package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// nominalSeconds is the -seconds value the segment counts below are
// written for; other values scale them in proportion.
const nominalSeconds = 10

// config is what the command line fixes for a run.
type config struct {
	seed    uint64
	seconds int
	quick   bool
	// procs pins GOMAXPROCS, the exec pool and the wire clients: 2,
	// or 1 on a one-CPU host, so the harness never runs more threads
	// or connections than the host has processors.
	procs int
	// buildDir receives the routed binary and the span files.
	buildDir string
}

// segments scales a workload's full-size segment count by -seconds.
// The result is a count fixed before the run starts: no workload
// reads a clock to decide how much to do.
func (c config) segments(full int) int {
	switch {
	case full == 1:
		return 1 // one indivisible call (Step 1, Algorithm 1)
	case c.quick:
		return 2
	}
	return max(1, (full*c.seconds+nominalSeconds/2)/nominalSeconds)
}

// passResult is what a round's untimed end-of-round checks report.
type passResult struct {
	ops, failed int64
	// digest hashes the round's deterministic outputs; every round of
	// every pass of a run must produce the same one.
	digest uint64
}

// runner is one pass of one workload. The harness calls setup once
// (timed from outside); then, for each round, rewind, segment 0..n-1
// in order and finish; probe runs only on the traced pass, after the
// last finish, and release always runs last.
type runner interface {
	// setup takes the workload from its spec string to ready for the
	// first unit of work.
	setup(tr *tracer, parent int32) error
	// rewind puts the generated inputs back at their start, so that
	// the next round repeats the last one exactly.
	rewind()
	// segment does fixed work unit i and returns the time spent
	// inside the system under test; input generation and output
	// checks around the calls are not counted.
	segment(i int, tr *tracer, parent int32) (time.Duration, error)
	// finish runs the round's remaining output checks.
	finish() (passResult, error)
	// probe makes the extra calls some per-layer metrics need and
	// derives this workload's metrics from them and from the spans.
	probe(tr *tracer, m metrics) error
	// release drops the system under test. It returns the peak
	// resident set of the process that did the work when that was not
	// this one (wire_g17's routed), else 0.
	release() (childRSSMB float64)
}

// workload is one row of the benchmark.
type workload struct {
	name, why string
	// passes is P, how often a run sets the workload up from its spec
	// string, and rounds is R, how often each pass repeats the work on
	// what it set up; R is 1 where the work changes that state. Every
	// segment is timed P×R times, seconds apart, and the estimator
	// keeps the fastest: for the same work, more rounds of fewer
	// segments give each segment more chances to meet a quiet host.
	passes, rounds int
	// fullSegments is S at -seconds 10; config.segments scales it.
	fullSegments int
	// new builds one pass's runner and generates its inputs from the
	// seed; segments is the scaled S.
	new func(c config, segments int) (runner, error)
}

var workloads = []workload{
	{name: "step1_g9", passes: 6, rounds: 1,
		why:          "core.Step1, 16 patterns x 31 grid points on dfly(4,8,4,9), 6 passes of 1 call: paths compile, flow MatrixGrid/LoadMatrix and the solver do all the work, netsim none",
		fullSegments: 1, new: newStep1},
	{name: "tvlb_g9", passes: 3, rounds: 1,
		why:          "core.ComputeTVLB (8+4 patterns, vicinity 1, 1 sim pattern, short windows) on dfly(4,8,4,9), 3 passes of 1 call: short cold netsim runs through sweep and exec, where netsim.New and warm-up count",
		fullSegments: 1, new: newTVLB},
	{name: "sim_sw702_adv", passes: 4, rounds: 1,
		why:          "UGAL-L on dfly(13,26,13,27), shift traffic at load 0.06, 4 passes x 12 segments x 300 cycles after 1000 fill cycles: the cycle loop, SourceRoute and VLB sampling; flow and route idle",
		fullSegments: 12, new: newSim},
	{name: "serve_g17", passes: 3, rounds: 4,
		why:          "LookupBatch on dfly(4,8,4,17), 3 passes x 4 rounds x 6 segments x 4000 batches of 256 pairs: set-up is store compile plus table emit, work is pure table lookup",
		fullSegments: 6, new: newServe},
	{name: "churn_g17", passes: 3, rounds: 1,
		why:          "same tables, 3 passes x 8 segments of one global-link failure then 1000 batches of 256 pairs: ApplyFailures, ApplyDelta and the epoch swap beside reads",
		fullSegments: 8, new: newChurn},
	{name: "wire_g17", passes: 3, rounds: 4,
		why:          "the real cmd/routed over loopback HTTP, 3 passes x 4 rounds x 3 segments x 2 clients x 200 POST /lookup of 256 pairs: JSON and the scratch mutex do most of the work, the tables little",
		fullSegments: 3, new: newWire},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is one workload's result: the three end-to-end metrics (or,
// from a traced run, the per-layer metrics), the op counts for the
// failure-share gate, and the output digest.
type outcome struct {
	Workload  string  `json:"workload"`
	Correct   bool    `json:"correct"`
	Ops       int64   `json:"ops"`
	OpsFailed int64   `json:"ops_failed"`
	Digest    string  `json:"digest"`
	Passes    int     `json:"passes"`
	Rounds    int     `json:"rounds"`
	Segments  int     `json:"segments"`
	Metrics   metrics `json:"metrics"`
	// Problems lists every failed check; empty when Correct.
	Problems []string `json:"problems,omitempty"`
}

func (o *outcome) problem(format string, args ...any) {
	o.Correct = false
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// onePass runs set-up, the rounds of segments with their checks, the
// probe when traced, and the release of one pass. It returns the
// first round's result; a later round that differs from it is an
// error.
func onePass(w workload, c config, rounds int, tr *tracer, m metrics) (pt passTiming, first passResult, err error) {
	n := c.segments(w.fullSegments)
	r, err := w.new(c, n)
	if err != nil {
		return pt, first, err
	}
	defer func() {
		if pt.rssMB = r.release(); pt.rssMB == 0 {
			pt.rssMB = peakRSSMB()
		}
	}()
	// Start every pass from a collected heap returned to the system,
	// so that neither the previous pass's garbage nor its resident
	// pages are charged to this one.
	debug.FreeOSMemory()
	resetPeakRSS()
	root := tr.begin(-1, "harness.pass")
	defer tr.end(root)
	sp := tr.begin(root, "harness.setup")
	start := time.Now()
	err = r.setup(tr, sp)
	pt.setup = time.Since(start)
	tr.end(sp)
	if err != nil {
		return pt, first, fmt.Errorf("set-up: %w", err)
	}
	for round := 0; round < rounds; round++ {
		r.rewind()
		segs := make([]time.Duration, n)
		for s := range segs {
			sp := tr.begin(root, "harness.segment")
			segs[s], err = r.segment(s, tr, sp)
			tr.end(sp)
			if err != nil {
				return pt, first, fmt.Errorf("round %d segment %d: %w", round, s, err)
			}
		}
		pt.rounds = append(pt.rounds, segs)
		res, err := r.finish()
		if err != nil {
			return pt, first, fmt.Errorf("round %d checks: %w", round, err)
		}
		if round == 0 {
			first = res
		} else if res != first {
			return pt, first, fmt.Errorf("round %d is not deterministic: %+v, round 0 had %+v", round, res, first)
		}
	}
	if tr != nil {
		if err := r.probe(tr, m); err != nil {
			return pt, first, fmt.Errorf("probe: %w", err)
		}
	}
	return pt, first, nil
}

// runWorkload measures one workload in this process. Untraced, it
// runs the workload's P passes of R rounds and reports the end-to-end
// metrics. Traced, it runs one untraced and one traced pass of one
// round each, reports the per-layer metrics, and writes the span file.
func runWorkload(w workload, c config, traced bool) outcome {
	start := time.Now()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out := outcome{Workload: w.name, Correct: true, Passes: w.passes, Rounds: w.rounds,
		Segments: c.segments(w.fullSegments), Metrics: metrics{}}
	if traced {
		out.Passes, out.Rounds = 2, 1
	}
	var timings []passTiming
	var first passResult
	var tr *tracer
	for p := 0; p < out.Passes; p++ {
		if traced && p == 1 {
			tr = newTracer()
		}
		pt, res, err := onePass(w, c, out.Rounds, tr, out.Metrics)
		if err != nil {
			out.problem("pass %d: %v", p, err)
			return out
		}
		timings = append(timings, pt)
		fmt.Printf("# %s pass %d: setup %.6f s, peak rss %.1f MB, work", w.name, p, pt.setup.Seconds(), pt.rssMB)
		for _, round := range pt.rounds {
			fmt.Printf(" %.6f", passTiming{rounds: [][]time.Duration{round}}.work().Seconds())
		}
		fmt.Println(" s")
		if p == 0 {
			first = res
		} else if res != first {
			out.problem("pass %d is not deterministic: %+v, pass 0 had %+v", p, res, first)
		}
	}
	out.Ops, out.OpsFailed, out.Digest = first.ops, first.failed, fmt.Sprintf("%016x", first.digest)
	if first.failed > 0 {
		out.problem("%d of %d ops failed", first.failed, first.ops)
	}
	setupS, workS, rssMB, spread := estimate(timings)
	if !traced {
		out.Metrics["setup_s"] = setupS
		out.Metrics["work_s"] = workS
		out.Metrics["peak_rss_mb"] = rssMB
		return out
	}
	if path, err := tr.write(c.buildDir, w.name, c.seed); err != nil {
		out.problem("write spans: %v", err)
	} else {
		fmt.Printf("# spans: %s (%d spans; self time by layer is in the file)\n", path, len(tr.spans))
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m := out.Metrics
	m["harness.wall_s"] = time.Since(start).Seconds()
	m["harness.cpu_s"] = cpuSeconds()
	m["harness.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["harness.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["harness.pass_spread"] = spread
	// The median over segments of traced ÷ untraced: one disturbed
	// segment of either pass does not move it.
	var ratios []float64
	for s, d := range timings[0].rounds[0] {
		ratios = append(ratios, float64(timings[1].rounds[0][s])/float64(d))
	}
	m["harness.trace_overhead_pct"] = 100 * (median(ratios) - 1)
	// Every traced run prints every per-layer metric; the ones this
	// workload's layers never produce read 0.
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return out
}

// pairPool draws n (src, dst) node pairs from the seed.
func pairPool(t *topo.Compiled, seed uint64, n int) (src, dst []int32) {
	r := rng.New(rng.Hash64(seed, 0x9a175))
	src, dst = make([]int32, n), make([]int32, n)
	nn := t.NumNodes()
	for i := range src {
		src[i], dst[i] = int32(r.Intn(nn)), int32(r.Intn(nn))
	}
	return src, dst
}

// fold mixes words into a running digest.
func fold(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		h = rng.Mix(h, w)
	}
	return h
}

func foldFloat(h uint64, xs ...float64) uint64 {
	for _, x := range xs {
		h = rng.Mix(h, math.Float64bits(x))
	}
	return h
}
