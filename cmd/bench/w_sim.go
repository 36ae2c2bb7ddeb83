package main

import (
	"fmt"
	"runtime"
	"time"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/routing"
	"tugal/internal/spec"
	"tugal/internal/traffic"
)

// simRunner is sim_sw702_adv: one long UGAL-L simulation under
// adversarial shift traffic, below saturation so that every segment
// sees the same steady state. A segment is one undrained measurement
// window. netsim counts a packet measured in one window and delivered
// in the next as delivered there, so a single window's Undelivered
// means nothing; summed over every window since netsim.New it is
// exactly the measured packets still in the network. finish therefore
// runs flush unmeasured cycles, long enough for every earlier packet
// to arrive, and closes with a one-cycle window whose own packets
// cannot have arrived yet: whatever the sum holds beyond those is
// lost, and a failed op.
type simRunner struct {
	c        config
	spec     string
	rate     float64
	fill     int64 // cycles run in set-up to reach steady state
	window   int64 // measured cycles per segment
	segments int
	shards   int

	n       *netsim.Network
	filled  netsim.RunResult   // the set-up's fill window
	results []netsim.RunResult // one per segment
	res     *passResult        // what finish computed
	wall    time.Duration
}

// flushWindows is the length of finish's flush in segment windows.
// Under adversarial traffic at 87 % of saturation the slowest packets
// take several hundred cycles; 600 cycles still left some in flight.
const flushWindows = 5

func newSim(c config, segments int) (runner, error) {
	r := &simRunner{c: c, spec: "dfly(13,26,13,27)", rate: 0.06, fill: 1000, window: 300, segments: segments}
	if c.quick {
		r.spec, r.rate, r.fill, r.window = "dfly(4,8,4,9)", 0.1, 300, 200
	}
	return r, nil
}

func (r *simRunner) setup(tr *tracer, parent int32) error {
	sp := tr.begin(parent, "topo.spec.Topology")
	t, err := spec.Topology(r.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(parent, "routing.NewUGALL")
	rf := routing.NewUGALL(t, paths.Full{T: t})
	tr.end(sp)
	cfg := netsim.DefaultConfig()
	cfg.Seed = r.c.seed
	cfg.Shards = r.shards
	cfg.ShardWorkers = min(r.shards, r.c.procs)
	sp = tr.begin(parent, "netsim.New")
	r.n = netsim.New(t, cfg, rf.CloneRouting(), traffic.Shift{T: t, DG: 2, DS: 0}, r.rate)
	tr.end(sp)
	sp = tr.begin(parent, "netsim.Run.fill")
	r.filled = r.n.Run(0, r.fill, 0)
	tr.end(sp)
	return nil
}

// rewind does nothing: the simulation runs one round, every segment
// continues the one before it.
func (r *simRunner) rewind() {}

func (r *simRunner) segment(_ int, tr *tracer, parent int32) (time.Duration, error) {
	sp := tr.begin(parent, "netsim.Run")
	start := time.Now()
	res := r.n.Run(0, r.window, 0)
	d := time.Since(start)
	tr.end(sp)
	r.results = append(r.results, res)
	r.wall += d
	return d, nil
}

func (r *simRunner) finish() (passResult, error) {
	if r.res != nil {
		return *r.res, nil
	}
	flush := r.n.Run(flushWindows*r.window, 1, 0)
	var out passResult
	var inFlight int64
	for _, res := range append(append([]netsim.RunResult{r.filled}, r.results...), flush) {
		out.ops += res.Measured
		out.failed += res.Refused
		inFlight += res.Undelivered
		if res.DeadlockSuspected {
			return out, fmt.Errorf("deadlock suspected at cycle %d", res.Cycles)
		}
		out.digest = foldFloat(out.digest, res.OfferedLoad, res.Throughput, res.AvgLatency,
			res.P50Latency, res.P99Latency, res.AvgHops, res.VLBFraction)
		out.digest = fold(out.digest, uint64(res.Measured), uint64(res.Undelivered), uint64(res.Refused), uint64(res.Cycles))
	}
	out.failed += max(0, inFlight-flush.Measured)
	if out.ops == 0 {
		return out, fmt.Errorf("no packet measured")
	}
	r.res = &out
	return out, nil
}

func (r *simRunner) release() float64 {
	r.n = nil
	return 0
}

func (r *simRunner) probe(tr *tracer, m metrics) error {
	m["topo.compile_ms"] = ms(tr.total("topo.spec.Topology"))
	m["netsim.new_ms"] = ms(tr.total("netsim.New"))
	last := r.results[len(r.results)-1]
	cycles := float64(r.window * int64(r.segments))
	m["netsim.cycles_per_s"] = cycles / r.wall.Seconds()
	m["netsim.us_per_cycle"] = r.wall.Seconds() * 1e6 / cycles
	// Simulated statistics of the last segment: exact counts,
	// so any change means behaviour changed, not speed.
	m["routing.vlb_fraction"] = last.VLBFraction
	m["routing.avg_hops"] = last.AvgHops
	m["routing.p99_latency_cycles"] = last.P99Latency

	// Steady-state allocations, then the phase split on its own
	// window: PhaseTiming adds clock reads to every cycle, so it never
	// overlaps a timed segment.
	const probeCycles = 200
	sp := tr.begin(-1, "netsim.Run.allocProbe")
	var before, after runtime.MemStats
	// One window first, uncounted: finish closed with a one-cycle
	// window, and the next Run sizes its per-run buffers again.
	r.n.Run(0, probeCycles, 0)
	runtime.ReadMemStats(&before)
	r.n.Run(0, probeCycles, 0)
	runtime.ReadMemStats(&after)
	tr.end(sp)
	m["netsim.steady_allocs_per_cycle"] = float64(after.Mallocs-before.Mallocs) / probeCycles
	sp = tr.begin(-1, "netsim.Run.phaseProbe")
	r.n.Cfg.PhaseTiming = true
	r.n.ResetPhaseTimes()
	r.n.Run(0, probeCycles, 0)
	r.n.Cfg.PhaseTiming = false
	tr.end(sp)
	pt := r.n.PhaseTimes()
	if total := float64(pt.DeliverNS + pt.InjectNS + pt.AllocNS + pt.EjectNS + pt.BarrierNS); total > 0 {
		m["netsim.phase_deliver_pct"] = 100 * float64(pt.DeliverNS) / total
		m["netsim.phase_inject_pct"] = 100 * float64(pt.InjectNS) / total
		m["netsim.phase_allocate_pct"] = 100 * float64(pt.AllocNS) / total
	}

	// The sampler SourceRoute draws VLB candidates from, over a seeded
	// switch-pair pool.
	t := r.n.T
	full := paths.Full{T: t}
	src := rng.New(rng.Hash64(r.c.seed, 0x5a3))
	const draws = 1 << 16
	pairs := make([][2]int, 1<<12)
	for i := range pairs {
		pairs[i] = [2]int{src.Intn(t.NumSwitches()), src.Intn(t.NumSwitches())}
	}
	var buf paths.Path
	sp = tr.begin(-1, "paths.SampleVLBInto")
	start := time.Now()
	for i := 0; i < draws; i++ {
		p := pairs[i%len(pairs)]
		full.SampleVLBInto(src, p[0], p[1], &buf)
	}
	m["paths.sample_ns"] = float64(time.Since(start).Nanoseconds()) / draws
	tr.end(sp)

	// The same run on two shards must reproduce the sequential digest.
	seq, err := r.finish()
	if err != nil {
		return err
	}
	r.n = nil
	two := &simRunner{c: r.c, spec: r.spec, rate: r.rate, fill: r.fill, window: r.window, segments: r.segments, shards: 2}
	defer two.release()
	sp = tr.begin(-1, "harness.2shardProbe")
	defer tr.end(sp)
	if err := two.setup(tr, sp); err != nil {
		return err
	}
	for i := 0; i < two.segments; i++ {
		if _, err := two.segment(i, tr, sp); err != nil {
			return err
		}
	}
	got, err := two.finish()
	if err != nil {
		return err
	}
	if got != seq {
		return fmt.Errorf("2-shard run diverged from the sequential one: %+v vs %+v", got, seq)
	}
	m["netsim.cycles_per_s_2shard"] = cycles / two.wall.Seconds()
	return nil
}
