// Package sweep drives the simulator across offered loads: latency
// curves (the x/y series of Figures 6-18) and saturation-throughput
// searches (the paper's "last injection rate before saturation"
// metric), with multi-seed averaging.
//
// All independent runs — the seeds of one point, the points of one
// curve, the bracket probes of a saturation search — are scheduled
// onto a shared exec.Pool. Results are deterministic regardless of
// worker count: every run derives its seed from cfg.Seed exactly as
// the sequential code did (rng.Hash64(cfg.Seed, seedIndex)), each
// run gets its own routing-function clone and pattern instance, and
// results are written by index then aggregated in index order.
//
// A saturation search is lazy on top of that: it reads one bit per
// probe, and only the bits up to the first saturated rate, so a probe
// whose bit cannot be read is not started, or is cancelled mid-run if
// it was started as speculation on an idle worker (see search). What a
// search returns depends on the bits it reads and on nothing else.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/rng"
	"tugal/internal/stats"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// Windows bundles the simulation phase lengths.
type Windows struct {
	Warmup  int64
	Measure int64
	Drain   int64
}

// PaperWindows returns the paper's settings: three 10000-cycle warmup
// windows and one 10000-cycle measurement window.
func PaperWindows() Windows {
	return Windows{Warmup: 30000, Measure: 10000, Drain: 20000}
}

// QuickWindows returns CI/benchmark-scale settings.
func QuickWindows() Windows {
	return Windows{Warmup: 2500, Measure: 1500, Drain: 3000}
}

// PatternFactory builds a traffic pattern for a seed. Patterns with
// frozen random structure (permutations, mixed node subsets) should
// derive it from the seed so multi-seed runs vary it. The factory is
// called once per simulation run (runs may execute concurrently), so
// it must return an instance not mutated by any other run.
type PatternFactory func(seed uint64) traffic.Pattern

// Fixed adapts a seed-independent pattern. Every run shares p: a
// pattern's Dest reads only its receiver and draws from the run's own
// rng.Source, so concurrently executing simulations may share it.
func Fixed(p traffic.Pattern) PatternFactory {
	return func(uint64) traffic.Pattern { return p }
}

// Point is one load point of a latency curve, averaged over seeds.
// Its JSON form (MarshalJSON) is written to be read, not decoded back:
// a saturated point's latency is null there, and encoding/json decodes
// null into a Point as Latency left at 0, not +Inf. Read Saturated.
type Point struct {
	Offered     float64
	Latency     float64 // mean over seeds; +Inf if any seed saturated
	LatencyErr  float64
	Throughput  float64
	VLBFraction float64
	AvgHops     float64
	Saturated   bool
}

// MarshalJSON encodes the point with saturated (+Inf) latency as
// null, which encoding/json cannot represent natively.
func (p Point) MarshalJSON() ([]byte, error) {
	a := pointJSON{
		Offered:     p.Offered,
		LatencyErr:  p.LatencyErr,
		Throughput:  p.Throughput,
		VLBFraction: p.VLBFraction,
		AvgHops:     p.AvgHops,
		Saturated:   p.Saturated,
	}
	if !math.IsInf(p.Latency, 0) && !math.IsNaN(p.Latency) {
		l := p.Latency
		a.Latency = &l
	}
	return json.Marshal(a)
}

// pointJSON is MarshalJSON's wire form.
type pointJSON struct {
	Offered     float64  `json:"offered"`
	Latency     *float64 `json:"latency"`
	LatencyErr  float64  `json:"latencyErr"`
	Throughput  float64  `json:"throughput"`
	VLBFraction float64  `json:"vlbFraction"`
	AvgHops     float64  `json:"avgHops"`
	Saturated   bool     `json:"saturated"`
}

// RunPointOn simulates one (routing, pattern, rate) point over seeds
// on pool and aggregates. Each seed runs an independent simulation (see runSeeds); per-seed results land in a
// slice by index and are aggregated in seed order, so the point is
// bit-identical whatever the pool's worker count.
func RunPointOn(pool *exec.Pool, t *topo.Compiled, cfg netsim.Config,
	rf netsim.RoutingFunc, pf PatternFactory, rate float64, w Windows, seeds int) Point {
	results, _ := runSeeds(context.TODO(), pool, t, cfg, rf, pf, rate, w, seeds, nil)
	var lat, thr, vlb, hops []float64
	saturated := false
	for _, res := range results {
		if res.Saturated {
			saturated = true
		}
		if !math.IsInf(res.AvgLatency, 1) {
			lat = append(lat, res.AvgLatency)
		}
		thr = append(thr, res.Throughput)
		vlb = append(vlb, res.VLBFraction)
		hops = append(hops, res.AvgHops)
	}
	p := Point{Offered: rate, Saturated: saturated}
	if len(lat) > 0 && !saturated {
		p.Latency, p.LatencyErr = stats.MeanErr(lat)
	} else {
		p.Latency = math.Inf(1)
	}
	p.Throughput = stats.Mean(thr)
	p.VLBFraction = stats.Mean(vlb)
	p.AvgHops = stats.Mean(hops)
	return p
}

// runSeeds is the one per-seed runner, under RunPointOn and
// saturatedAt alike: seed s of a (routing, pattern, rate) point is an
// independent simulation — own routing clone, own pattern instance,
// seed rng.Hash64(cfg.Seed, s) — scheduled on the pool, its result
// landing in results[s]. A seed that ctx stopped, before it built its
// network or mid-run, leaves finished[s] false and results[s] unset;
// each, when not nil, is handed every finished result as it arrives,
// on the goroutine that ran the seed.
//
// An aborted run is reported to the pool observer under the point's
// label plus "/aborted", with the cycles it stepped and the wall time
// it took: work done for a bit nobody read is still work.
func runSeeds(ctx context.Context, pool *exec.Pool, t *topo.Compiled, cfg netsim.Config,
	rf netsim.RoutingFunc, pf PatternFactory, rate float64, w Windows, seeds int,
	each func(netsim.RunResult)) (results []netsim.RunResult, finished []bool) {
	if seeds < 1 {
		seeds = 1
	}
	results = make([]netsim.RunResult, seeds)
	finished = make([]bool, seeds)
	shardStats := make([][2]int, seeds)
	label := fmt.Sprintf("%s@%.3g", rf.Name(), rate)
	pool.Run(label, seeds, func(s int) int64 {
		if ctx.Err() != nil {
			return 0
		}
		start := time.Now()
		c := cfg
		c.Seed = rng.Hash64(cfg.Seed, uint64(s))
		n := netsim.New(t, c, rf.CloneRouting(), pf(c.Seed), rate)
		res, err := n.RunContext(ctx, w.Warmup, w.Measure, w.Drain)
		shardStats[s][0], shardStats[s][1] = n.ShardStats()
		if err != nil {
			pool.Report(exec.Stat{Label: label + "/aborted", Index: s,
				Wall: time.Since(start), Cycles: res.Cycles})
			return 0
		}
		results[s], finished[s] = res, true
		if each != nil {
			each(res)
		}
		return res.Cycles
	})
	// Surface intra-run parallelism to the observer: one line per
	// point with the shard count and the widest worker crew any seed
	// obtained from the CPU-token budget (crews size per Run, so
	// seeds of one point may differ under a busy pool).
	shards, workers := 0, 0
	for _, st := range shardStats {
		shards, workers = max(shards, st[0]), max(workers, st[1])
	}
	if shards > 1 {
		pool.Report(exec.Stat{Label: "shards/" + label,
			Shards: shards, ShardWorkers: workers})
	}
	return results, finished
}

// Curve is a latency-vs-offered-load series for one routing scheme.
// The JSON keys are lowercase to match Point's wire form.
type Curve struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// SaturationThroughput returns the highest load point that did not
// saturate (0 if even the lowest did).
func (c Curve) SaturationThroughput() float64 {
	best := 0.0
	for _, p := range c.Points {
		if !p.Saturated && p.Offered > best {
			best = p.Offered
		}
	}
	return best
}

// LatencyCurve sweeps the given rates on the default pool.
func LatencyCurve(t *topo.Compiled, cfg netsim.Config, rf netsim.RoutingFunc,
	pf PatternFactory, rates []float64, w Windows, seeds int) Curve {
	return LatencyCurveOn(exec.Default(), t, cfg, rf, pf, rates, w, seeds)
}

// LatencyCurveOn is LatencyCurve on an explicit pool. Load points run
// concurrently, each on its own routing clone; every point derives
// its seeds from cfg.Seed alone, so the curve is deterministic for
// any worker count.
func LatencyCurveOn(pool *exec.Pool, t *topo.Compiled, cfg netsim.Config,
	rf netsim.RoutingFunc, pf PatternFactory, rates []float64, w Windows, seeds int) Curve {
	c := Curve{Name: rf.Name(), Points: make([]Point, len(rates))}
	pool.Run("curve/"+rf.Name(), len(rates), func(i int) int64 {
		c.Points[i] = RunPointOn(pool, t, cfg, rf, pf, rates[i], w, seeds)
		return 0
	})
	return c
}

// saturationProbes is the coarse grid of the bracket phase: the first
// two levels of a pure bisection of [0, 1] plus the 1.0 endpoint. The
// bracket is the first saturated grid rate in ascending order and the
// rate below it.
var saturationProbes = []float64{0.25, 0.5, 0.75, 1.0}

// Saturation searches the saturation throughput on the default pool.
func Saturation(t *topo.Compiled, cfg netsim.Config, rf netsim.RoutingFunc,
	pf PatternFactory, w Windows, seeds int, resolution float64) float64 {
	return SaturationOn(exec.Default(), t, cfg, rf, pf, w, seeds, resolution)
}

// SaturationOn searches the saturation throughput to the given
// resolution (0.01 when it is not a positive finite number): the
// largest rate whose run stays under the latency cap. The bracket
// phase is one pool.Run over the coarse probe grid; the refinement
// bisects the bracket sequentially (each probe depends on the previous
// outcome). Deterministic: every probe is a multi-seed point with
// seeds derived from cfg.Seed, and the search reads nothing of a probe
// but its saturated bit (see search for which bits it reads). It ends
// with one line to the pool observer: how many probes ran to an
// answer, were aborted mid-run, or were never started.
func SaturationOn(pool *exec.Pool, t *topo.Compiled, cfg netsim.Config,
	rf netsim.RoutingFunc, pf PatternFactory, w Windows, seeds int, resolution float64) float64 {
	if !(resolution > 0) || math.IsInf(resolution, 1) {
		resolution = 0.01
	}
	lo, tl := search(pool, resolution, func(ctx context.Context, rate float64) (sat, ok bool) {
		return saturatedAt(ctx, pool, t, cfg, rf, pf, rate, w, seeds)
	})
	pool.Report(exec.Stat{Label: fmt.Sprintf("search/%s: %d probes, %d aborted, %d skipped",
		rf.Name(), tl.completed, tl.aborted, tl.skipped)})
	return lo
}

// saturatedAt answers the one question a saturation search asks of a
// rate: does any seed saturate there? It is a RunPointOn that stops at
// the bit: the first seed to finish saturated cancels the others, whose
// results could no longer change the answer. ok is false when ctx
// stopped the point before it could tell; sat then means nothing.
func saturatedAt(ctx context.Context, pool *exec.Pool, t *topo.Compiled, cfg netsim.Config,
	rf netsim.RoutingFunc, pf PatternFactory, rate float64, w Windows, seeds int) (sat, ok bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results, finished := runSeeds(ctx, pool, t, cfg, rf, pf, rate, w, seeds,
		func(res netsim.RunResult) {
			if res.Saturated {
				cancel()
			}
		})
	ok = true
	for s, res := range results {
		if finished[s] && res.Saturated {
			return true, true
		}
		ok = ok && finished[s]
	}
	return false, ok
}

// probeFunc tells a search whether a rate saturates. ok is false when
// ctx stopped the probe before it had an answer; sat then means
// nothing and the search must not read it.
type probeFunc func(ctx context.Context, rate float64) (sat, ok bool)

// tally is what became of one search's probes.
type tally struct {
	// read lists the rates whose answer the search consumed, in the
	// order it consumed them; the returned rate is a function of these
	// answers alone.
	read []float64
	// completed probes ran to an answer (read or not), aborted ones were
	// cancelled mid-run, skipped ones never started.
	completed, aborted, skipped int
}

// search is the decision logic of SaturationOn over an abstract probe.
//
// The bracket is the first saturated rate of saturationProbes in
// ascending order, so the answer of any probe above a rate known to
// saturate is never read, and the search does not pay for it: a probe
// that finishes saturated cancels every higher one, and a cancelled
// probe that has not started is skipped. The grid is still one
// pool.Run, whose goroutines claim probes in ascending order: a probe
// starts only after every lower one has been claimed, and the
// submitter runs what it claims inline when no worker is free. Under a
// busy pool (Step 2 of Algorithm 1: more searches than workers) that
// makes the scan sequential, ending at the first saturated rate; a
// worker freed mid-scan claims the next probe up, and on an idle pool
// the higher probes start at once. Those are speculation — the answer
// when the lower ones come back unsaturated — and are aborted as soon
// as a lower one saturates. Either way the returned rate is the one an
// eager search of all four probes returns, monotone instance or not,
// because the eager scan stopped reading at the same place.
func search(pool *exec.Pool, resolution float64, probe probeFunc) (float64, tally) {
	n := len(saturationProbes)
	type answer struct{ sat, ok, started bool }
	answers := make([]answer, n)
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(context.TODO())
		defer cancels[i]()
	}
	pool.Run("saturation/bracket", n, func(i int) int64 {
		if ctxs[i].Err() != nil {
			return 0
		}
		sat, ok := probe(ctxs[i], saturationProbes[i])
		answers[i] = answer{sat, ok, true}
		if sat && ok {
			for _, cancel := range cancels[i+1:] {
				cancel()
			}
		}
		return 0
	})
	var tl tally
	for _, a := range answers {
		switch {
		case !a.started:
			tl.skipped++
		case a.ok:
			tl.completed++
		default:
			tl.aborted++
		}
	}
	// read consumes one answer. A probe is cancelled only by a
	// saturated one below it, which the ascending scan reaches first.
	read := func(rate float64, sat, ok bool) bool {
		if !ok {
			panic(fmt.Sprintf("sweep: saturation search read the cancelled probe at rate %v", rate))
		}
		tl.read = append(tl.read, rate)
		return sat
	}
	lo, hi := 0.0, saturationProbes[n-1]
	bracketed := false
	for i, a := range answers {
		if read(saturationProbes[i], a.sat, a.ok) {
			hi = saturationProbes[i]
			bracketed = true
			break
		}
		lo = saturationProbes[i]
	}
	if !bracketed {
		// Even the highest probe (rate 1.0) stayed unsaturated.
		return hi, tl
	}
	// Refinement: bisect the bracket.
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		sat, ok := probe(context.TODO(), mid)
		tl.completed++
		if read(mid, sat, ok) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, tl
}

// Rates builds an evenly spaced load grid in (0, max].
func Rates(max float64, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, max*float64(i)/float64(n))
	}
	return out
}
