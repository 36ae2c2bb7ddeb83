package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"tugal/internal/core"
	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/routing"
	"tugal/internal/spec"
	"tugal/internal/sweep"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// poolLog collects what the exec pool's observer reports while a
// traced call runs. The observer fires on worker goroutines, so the
// log is locked; the spans are added to the tracer once the call has
// returned and every worker has been joined.
type poolLog struct {
	mu    sync.Mutex
	stats []exec.Stat
	ends  []time.Time
}

// watch installs the log as the default pool's observer and returns
// the function that removes it.
func (l *poolLog) watch() (stop func()) {
	pool := exec.Default()
	pool.SetObserver(func(s exec.Stat) {
		now := time.Now()
		l.mu.Lock()
		l.stats = append(l.stats, s)
		l.ends = append(l.ends, now)
		l.mu.Unlock()
	})
	return func() { pool.SetObserver(nil) }
}

// poolSpan names the span for an observed pool task or report, by the
// layer whose work the label stands for.
func poolSpan(s exec.Stat) string {
	switch {
	case strings.HasPrefix(s.Label, "compile/"):
		return "paths.Compile"
	case strings.HasPrefix(s.Label, "loadgrid/"):
		return "flow.NewMatrixGrid"
	case strings.HasPrefix(s.Label, "loadmatrix/"):
		return "flow.MatrixGrid.Compile"
	case strings.HasPrefix(s.Label, "model/"):
		return "flow.ModelThroughput"
	case s.Label == "tvlb/candidates":
		return "core.candidate"
	case s.Label == "tvlb/score":
		return "core.simulateScore"
	case s.Label == "saturation/bracket":
		return "sweep.bracketProbe"
	case s.Cycles > 0:
		return "netsim.NewAndRun"
	}
	return "exec." + s.Label
}

// poolRanks orders the pool's known nesting for tracer.nest: a lower
// rank encloses a higher one, and unlisted spans are leaves.
var poolRanks = map[string]int{"core.candidate": 1, "core.simulateScore": 2, "sweep.bracketProbe": 3, "netsim.NewAndRun": 4}

// spans moves the log into the tracer under parent and nests it.
func (l *poolLog) spans(tr *tracer, parent int32) {
	var ids []int32
	for i, s := range l.stats {
		if s.Wall == 0 && s.Cycles == 0 && s.Bytes == 0 {
			continue // a shards/ report: no interval
		}
		ids = append(ids, tr.add(parent, poolSpan(s), l.ends[i].Add(-s.Wall), s.Wall))
	}
	tr.nest(ids, func(name string) int {
		if r, ok := poolRanks[name]; ok {
			return r
		}
		return 9
	})
}

// modelMetrics derives the paths/flow/exec/netsim numbers a pool log
// holds. wall is the length of the call the log covered and procs the
// pool's width.
func (l *poolLog) modelMetrics(m metrics, wall time.Duration, procs int) {
	var compile, grid, matrix, eval, busy, simWall time.Duration
	var storeBytes, evals, tasks, cycles int64
	for _, s := range l.stats {
		switch poolSpan(s) {
		case "paths.Compile":
			compile += s.Wall
			storeBytes = max(storeBytes, s.Bytes)
		case "flow.NewMatrixGrid":
			grid += s.Wall
		case "flow.MatrixGrid.Compile":
			matrix += s.Wall
		case "flow.ModelThroughput":
			eval += s.Wall
			evals++
			busy += s.Wall
			tasks++
		case "netsim.NewAndRun":
			simWall += s.Wall
			cycles += s.Cycles
			busy += s.Wall
			tasks++
		}
	}
	m["paths.compile_ms"] = ms(compile)
	m["paths.store_mb"] = float64(storeBytes) / (1 << 20)
	m["flow.matrixgrid_ms"] = ms(grid)
	m["flow.loadmatrix_ms"] = ms(matrix)
	if evals > 0 {
		m["flow.model_eval_ms"] = ms(eval) / float64(evals)
	}
	// Only leaf tasks (one model evaluation, one simulation) count as
	// busy time; the tasks that enclose them would count it twice.
	m["exec.tasks"] = float64(tasks)
	m["exec.busy_s"] = busy.Seconds()
	m["exec.parallel_eff"] = busy.Seconds() / (wall.Seconds() * float64(procs))
	if cycles > 0 {
		m["netsim.cycles_per_s"] = float64(cycles) / simWall.Seconds()
		m["netsim.us_per_cycle"] = simWall.Seconds() * 1e6 / float64(cycles)
	}
}

// lastModelEnd is when the last Step-1 model evaluation finished:
// inside ComputeTVLB that is where Step 1 ends and Step 2 begins.
func (l *poolLog) lastModelEnd() (time.Time, int64) {
	var last time.Time
	var evals int64
	for i, s := range l.stats {
		if strings.HasPrefix(s.Label, "model/") {
			evals++
			if l.ends[i].After(last) {
				last = l.ends[i]
			}
		}
	}
	return last, evals
}

// topoCompiles is how many times the set-up of step1_g9 and tvlb_g9
// compiles the topology from its spec string. One compile is all the
// set-up core.Step1 and core.ComputeTVLB need, and at 25 µs it is
// below what a wall clock resolves on a shared host; setup_s of these
// two workloads is the time of this fixed count of them.
const topoCompiles = 400

// modelRunner is the part step1_g9 and tvlb_g9 share: set-up is only
// the topology compile, topoCompiles times over.
type modelRunner struct {
	c    config
	spec string
	opt  core.Options
	t    *topo.Compiled

	start time.Time // of the traced work call
	wall  time.Duration
	log   *poolLog
}

func (r *modelRunner) setup(tr *tracer, parent int32) (err error) {
	sp := tr.begin(parent, "topo.spec.Topology")
	defer tr.end(sp)
	for k := 0; k < topoCompiles && err == nil; k++ {
		r.t, err = spec.Topology(r.spec)
	}
	return err
}

// rewind does nothing: the call's inputs are its options.
func (r *modelRunner) rewind() {}

func (r *modelRunner) release() float64 {
	r.t = nil
	return 0
}

// timed runs call under a span, with the pool observed when traced.
func (r *modelRunner) timed(tr *tracer, parent int32, name string, call func() error) (time.Duration, error) {
	if tr != nil {
		r.log = &poolLog{}
		defer r.log.watch()()
	}
	sp := tr.begin(parent, name)
	r.start = time.Now()
	err := call()
	r.wall = time.Since(r.start)
	tr.end(sp)
	if tr != nil {
		r.log.spans(tr, sp)
	}
	return r.wall, err
}

func (r *modelRunner) topoMetric(tr *tracer, m metrics) {
	m["topo.compile_ms"] = ms(tr.total("topo.spec.Topology")) / topoCompiles
}

// ---------------------------------------------------------------- step1_g9

type step1Runner struct {
	modelRunner
	curve []core.ProbePoint
	best  core.DataPoint
}

func newStep1(c config, _ int) (runner, error) {
	r := &step1Runner{modelRunner: modelRunner{c: c, spec: "dfly(4,8,4,9)", opt: core.DefaultOptions()}}
	// 12 of the 64 TYPE_1 patterns and 4 TYPE_2 ones: a call of about
	// 2 s, most of it the store, grid and matrix compiles, so that
	// six of them fit a run.
	r.opt.Type1Cap, r.opt.Type2Model = 12, 4
	if c.quick {
		r.spec, r.opt = "dfly(2,4,2,5)", core.QuickOptions()
	}
	r.opt.Seed = c.seed
	return r, nil
}

func (r *step1Runner) segment(_ int, tr *tracer, parent int32) (time.Duration, error) {
	return r.timed(tr, parent, "core.Step1", func() (err error) {
		r.curve, r.best, err = core.Step1(r.t, r.opt)
		return err
	})
}

func curveDigest(h uint64, curve []core.ProbePoint, best core.DataPoint) (uint64, int64) {
	var bad int64
	for _, p := range curve {
		if math.IsNaN(p.Mean) || math.IsNaN(p.StdErr) || p.Mean <= 0 {
			bad++
		}
		h = foldFloat(h, p.Mean, p.StdErr)
	}
	return foldFloat(fold(h, uint64(best.MaxHops)), best.Frac), bad
}

func (r *step1Runner) finish() (passResult, error) {
	if len(r.curve) != len(core.ProbeGrid()) {
		return passResult{}, fmt.Errorf("Step1 returned %d grid points, want %d", len(r.curve), len(core.ProbeGrid()))
	}
	h, bad := curveDigest(0, r.curve, r.best)
	return passResult{ops: int64(len(r.curve)), failed: bad, digest: h}, nil
}

func (r *step1Runner) probe(tr *tracer, m metrics) error {
	r.topoMetric(tr, m)
	r.log.modelMetrics(m, r.wall, r.c.procs)
	_, evals := r.log.lastModelEnd()
	m["core.step1_s"] = r.wall.Seconds()
	m["flow.evals_per_s"] = float64(evals) / r.wall.Seconds()
	return nil
}

// ---------------------------------------------------------------- tvlb_g9

type tvlbRunner struct {
	modelRunner
	res *core.Result
}

func newTVLB(c config, _ int) (runner, error) {
	r := &tvlbRunner{modelRunner: modelRunner{c: c, spec: "dfly(4,8,4,9)", opt: core.QuickOptions()}}
	r.opt.VicinityMax = 1
	r.opt.Sim.Patterns = 1
	// Short windows and a coarse search: three saturation searches of
	// about half a second each beside 2 s of Step 1 and 3 s of store
	// compiles and rebalancing, so that three calls fit a run.
	r.opt.Sim.Windows = sweep.Windows{Warmup: 800, Measure: 500, Drain: 1000}
	r.opt.Sim.Resolution = 0.1
	if c.quick {
		r.spec = "dfly(2,4,2,5)"
		r.opt.Sim.Windows = sweep.Windows{Warmup: 300, Measure: 300, Drain: 600}
		r.opt.Sim.Resolution = 0.125
	}
	r.opt.Seed = c.seed
	r.opt.Sim.Config.Seed = c.seed
	return r, nil
}

func (r *tvlbRunner) segment(_ int, tr *tracer, parent int32) (time.Duration, error) {
	return r.timed(tr, parent, "core.ComputeTVLB", func() (err error) {
		r.res, err = core.ComputeTVLB(r.t, r.opt)
		return err
	})
}

func (r *tvlbRunner) finish() (passResult, error) {
	res := r.res
	h, bad := curveDigest(0, res.Curve, res.Best)
	// One op per scored candidate, one for the baseline, one for the
	// final choice.
	scores := []float64{res.BaselineThroughput}
	for _, c := range res.Candidates {
		scores = append(scores, c.SimThroughput)
		h = fold(h, rng.Hash64(uint64(len(c.Name))), uint64(c.RemovedPaths))
		for _, b := range []byte(c.Name) {
			h = fold(h, uint64(b))
		}
	}
	for _, s := range scores {
		if math.IsNaN(s) || s <= 0 {
			bad++
		}
		h = foldFloat(h, s)
	}
	for _, b := range []byte(res.FinalName()) {
		h = fold(h, uint64(b))
	}
	if res.Final == nil {
		bad++
	}
	return passResult{ops: int64(len(scores)) + 1, failed: bad, digest: h}, nil
}

func (r *tvlbRunner) probe(tr *tracer, m metrics) error {
	r.topoMetric(tr, m)
	r.log.modelMetrics(m, r.wall, r.c.procs)
	step1End, evals := r.log.lastModelEnd()
	step1 := step1End.Sub(r.start)
	m["core.step1_s"] = step1.Seconds()
	m["core.step2_s"] = (r.wall - step1).Seconds()
	m["flow.evals_per_s"] = float64(evals) / step1.Seconds()

	t := r.t
	sp := tr.begin(-1, "core.Rebalance")
	start := time.Now()
	core.Rebalance(t, paths.Strategic{T: t, FirstLeg: 2}, r.opt.LB)
	m["core.rebalance_ms"] = ms(time.Since(start))
	tr.end(sp)

	// One saturation search on the conventional baseline, the unit
	// Step 2 repeats per candidate; its first simulation also times a
	// cold netsim.New on this topology.
	pol := paths.Policy(paths.Full{T: t})
	if st, ok := paths.TryCompile(t, pol, paths.DefaultCompileBudget); ok {
		pol = st
	}
	rf := routing.NewUGALL(t, pol)
	pf := func(seed uint64) traffic.Pattern {
		return traffic.NewGroupPermutation(t, rng.Hash64(r.c.seed, seed))
	}
	sp = tr.begin(-1, "netsim.New")
	start = time.Now()
	netsim.New(t, r.opt.Sim.Config, rf.CloneRouting(), pf(1), 0.1)
	m["netsim.new_ms"] = ms(time.Since(start))
	tr.end(sp)
	sp = tr.begin(-1, "sweep.Saturation")
	start = time.Now()
	sat := sweep.Saturation(t, r.opt.Sim.Config, rf, pf, r.opt.Sim.Windows, r.opt.Sim.Seeds, r.opt.Sim.Resolution)
	m["sweep.saturation_s"] = time.Since(start).Seconds()
	tr.end(sp)
	if sat <= 0 || math.IsNaN(sat) {
		return fmt.Errorf("sweep.Saturation on the baseline returned %v", sat)
	}
	return nil
}
