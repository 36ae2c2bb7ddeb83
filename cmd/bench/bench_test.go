package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestEstimateTakesTheMinimumPerSegment(t *testing.T) {
	ms := time.Millisecond
	round := func(ds ...time.Duration) []time.Duration { return ds }
	passes := []passTiming{
		{setup: 9 * ms, rounds: [][]time.Duration{round(10*ms, 30*ms, 20*ms), round(13*ms, 24*ms, 23*ms)}, rssMB: 120},
		{setup: 8 * ms, rounds: [][]time.Duration{round(12*ms, 21*ms, 25*ms), round(14*ms, 26*ms, 19*ms)}, rssMB: 101},
		{setup: 6 * ms, rounds: [][]time.Duration{round(11*ms, 22*ms, 22*ms), round(15*ms, 25*ms, 21*ms)}, rssMB: 104},
	}
	setupS, workS, rssMB, spread := estimate(passes)
	if rssMB != 101 {
		t.Errorf("peak_rss_mb = %v, want the smallest pass peak, 101", rssMB)
	}
	if setupS != 0.006 {
		t.Errorf("setup_s = %v, want the fastest pass's, 0.006", setupS)
	}
	// 10 from pass 0 round 0, 21 from pass 1 round 0, 19 from pass 1
	// round 1: no single round was that fast, which is the point of
	// taking the minimum per segment and not per round.
	if workS != 0.050 {
		t.Errorf("work_s = %v, want 0.050", workS)
	}
	if want := 61.0 / 55.0; math.Abs(spread-want) > 1e-12 {
		t.Errorf("pass spread = %v, want slowest/fastest round = %v", spread, want)
	}
	one := []passTiming{{setup: 7 * ms, rounds: passes[0].rounds[:1], rssMB: 120}}
	if s, w, rss, sp := estimate(one); s != 0.007 || w != 0.060 || rss != 120 || sp != 1 {
		t.Errorf("one pass of one round: got %v %v %v %v, want 0.007 0.060 120 1", s, w, rss, sp)
	}
}

// The acceptance check of this benchmark computes spreads with
// Python's statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{1.5, 2.5, 4, 8, 16, 32, 64}, 2.5, 8, 32},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	rep := func(x float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x * (1 + 0.001*float64(i%3))
		}
		return xs
	}
	noisy := []float64{1, 1.3, 0.8, 1.25, 0.75, 1.2, 0.9, 1.1, 1.0, 1.3}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", rep(1, 10), rep(1, 10), true, "unchanged"},
		{"faster", rep(1, 10), rep(0.8, 10), true, "improved"},
		{"slower", rep(1, 10), rep(1.2, 10), true, "regressed"},
		{"slower within bound", rep(1, 10), rep(1.05, 10), true, "unchanged"},
		{"higher is better, higher", rep(1, 10), rep(1.3, 10), false, "improved"},
		{"higher is better, lower", rep(1, 10), rep(0.7, 10), false, "regressed"},
		{"too noisy to tell", noisy, noisy, true, "unresolved"},
		{"noisy but every run better", noisy, rep(0.5, 10), true, "improved"},
		{"one run a side", rep(1, 1), rep(1.01, 1), true, "unresolved"},
	} {
		if got, _ := verdict(newSide(c.a), newSide(c.b), c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	dir := t.TempDir()
	rf := runFile{Host: hostFingerprint(), Seconds: nominalSeconds,
		Results: []outcome{{Workload: "serve_g17", Correct: true, Metrics: metrics{"setup_s": 1, "work_s": 2, "peak_rss_mb": 3}}}}
	a, b := dir+"/a.json", dir+"/b.json"
	if err := writeRunFile(a, rf); err != nil {
		t.Fatal(err)
	}
	if err := writeRunFile(b, rf); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}); code != 0 {
		t.Errorf("comparing a result with itself: exit %d, want 0", code)
	}
	rf.Host.NumCPU++
	if err := writeRunFile(b, rf); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}); code != 2 {
		t.Errorf("comparing results of two hosts: exit %d, want the refusal, 2", code)
	}
	rf.Host.NumCPU--
	rf.Seed++
	if err := writeRunFile(b, rf); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}); code != 2 {
		t.Errorf("pairing runs of two seeds: exit %d, want the refusal, 2", code)
	}
	if code := compareMain([]string{a}); code != 2 {
		t.Errorf("an odd number of files: exit %d, want 2", code)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int64) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(-1, "core.call", at(0), 100*time.Millisecond)
	// Two children that overlap each other (two workers): together
	// they cover 10..60 of the parent, not 30+40.
	tr.add(root, "netsim.run", at(10), 30*time.Millisecond)
	tr.add(root, "netsim.run", at(20), 40*time.Millisecond)
	self := tr.selfTimes()
	if got := self["core"]; got != 50*time.Millisecond {
		t.Errorf("core self time %v, want 50ms", got)
	}
	if got := self["netsim"]; got != 70*time.Millisecond {
		t.Errorf("netsim self time %v, want 70ms", got)
	}
	var none *tracer
	if id := none.begin(-1, "x.y"); id != -1 {
		t.Errorf("a nil tracer returned span %d", id)
	}
	none.end(-1) // must not panic
}

// fakeRunner is a pass whose work is instant; each new one reads the
// next digest of the list.
type fakeRunner struct{ res passResult }

func (f *fakeRunner) setup(*tracer, int32) error { return nil }
func (f *fakeRunner) rewind()                    {}
func (f *fakeRunner) segment(int, *tracer, int32) (time.Duration, error) {
	return time.Microsecond, nil
}
func (f *fakeRunner) finish() (passResult, error)  { return f.res, nil }
func (f *fakeRunner) probe(*tracer, metrics) error { return nil }
func (f *fakeRunner) release() float64             { return 0 }

// flakyRunner's every round reads another digest.
type flakyRunner struct{ fakeRunner }

func (f *flakyRunner) finish() (passResult, error) {
	f.res.digest++
	return f.res, nil
}

func fakeWorkload(results ...passResult) workload {
	next := 0
	return workload{name: "fake", passes: len(results), rounds: 2, fullSegments: 4,
		new: func(config, int) (runner, error) {
			next++
			return &fakeRunner{res: results[next-1]}, nil
		}}
}

func TestFailedChecksFailTheRun(t *testing.T) {
	c := config{seed: 1, seconds: nominalSeconds, procs: 1, buildDir: t.TempDir()}
	good := passResult{ops: 10, digest: 7}
	if o := runWorkload(fakeWorkload(good, good, good), c, false); !o.Correct || o.Ops != 10 || o.Segments != 4 {
		t.Errorf("three identical passes: %+v", o)
	}
	if o := runWorkload(fakeWorkload(good, passResult{ops: 10, digest: 8}), c, false); o.Correct {
		t.Error("a pass with another digest passed: a nondeterministic pass must fail the run")
	}
	if o := runWorkload(fakeWorkload(passResult{ops: 10, failed: 1, digest: 7}, passResult{ops: 10, failed: 1, digest: 7}), c, false); o.Correct || o.OpsFailed != 1 {
		t.Errorf("a failed op passed: %+v", o)
	}
	// A round that differs from the pass's first round fails too.
	flaky := fakeWorkload(good, good)
	flaky.new = func(config, int) (runner, error) { return &flakyRunner{}, nil }
	if o := runWorkload(flaky, c, false); o.Correct {
		t.Error("a round with another digest passed")
	}
	broken := fakeWorkload(good)
	broken.new = func(config, int) (runner, error) { return nil, errors.New("no inputs") }
	if o := runWorkload(broken, c, false); o.Correct {
		t.Error("a workload that could not start passed")
	}
}

func TestSegmentsScaleWithSeconds(t *testing.T) {
	for _, c := range []struct {
		seconds, full, want int
		quick               bool
	}{
		{nominalSeconds, 30, 30, false},
		{nominalSeconds / 2, 30, 15, false},
		{2 * nominalSeconds, 8, 16, false},
		{1, 8, 1, false},
		{60, 1, 1, false}, // one indivisible call stays one
		{nominalSeconds, 30, 2, true},
		{nominalSeconds, 1, 1, true},
	} {
		if got := (config{seconds: c.seconds, quick: c.quick}).segments(c.full); got != c.want {
			t.Errorf("segments(%d) at -seconds %d quick=%v = %d, want %d", c.full, c.seconds, c.quick, got, c.want)
		}
	}
}

// moves lists, per workload, the per-layer metrics its traced run must
// measure (the others read 0 there): the rows of the README's table of
// which layer metric should move which workload.
var moves = map[string][]string{
	"step1_g9": {"topo.compile_ms", "paths.compile_ms", "paths.store_mb", "flow.matrixgrid_ms", "flow.loadmatrix_ms",
		"flow.model_eval_ms", "flow.evals_per_s", "core.step1_s", "exec.tasks", "exec.busy_s", "exec.parallel_eff"},
	"tvlb_g9": {"topo.compile_ms", "paths.compile_ms", "paths.store_mb", "flow.matrixgrid_ms", "flow.loadmatrix_ms",
		"flow.model_eval_ms", "flow.evals_per_s", "core.step1_s", "core.step2_s", "core.rebalance_ms", "sweep.saturation_s",
		"exec.tasks", "exec.busy_s", "exec.parallel_eff", "netsim.new_ms", "netsim.cycles_per_s", "netsim.us_per_cycle"},
	"sim_sw702_adv": {"topo.compile_ms", "paths.sample_ns", "netsim.new_ms", "netsim.cycles_per_s", "netsim.us_per_cycle",
		"netsim.phase_deliver_pct", "netsim.phase_inject_pct", "netsim.phase_allocate_pct", "netsim.cycles_per_s_2shard",
		"routing.vlb_fraction", "routing.avg_hops", "routing.p99_latency_cycles"},
	"serve_g17": {"topo.compile_ms", "paths.compile_ms", "paths.store_mb", "paths.sample_ns", "route.emit_ms", "route.table_mb",
		"route.lookup_ns", "route.batch_p50_us", "route.batch_p99_us"},
	"churn_g17": {"topo.compile_ms", "paths.compile_ms", "paths.store_mb", "paths.apply_failures_ms", "route.emit_ms", "route.table_mb",
		"route.batch_p50_us", "route.batch_p99_us", "route.swap_ms_p50", "route.swap_ms_max", "route.apply_delta_ms",
		"route.dirty_rows_per_fail", "route.patch_mb_per_fail", "route.lookup_ns_degraded"},
	"wire_g17": {"route.lookup_ns", "routed.ready_ms", "routed.req_per_s", "routed.req_p50_us", "routed.req_p99_us",
		"routed.overhead_x", "harness.build_s"},
}

// TestQuickTier runs every workload at the seconds-scale tier, both
// untraced and traced, so that go test ./... keeps the whole harness
// compiling and running.
func TestQuickTier(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads and builds cmd/routed")
	}
	c := config{seed: 1, seconds: nominalSeconds, quick: true, procs: min(2, runtime.NumCPU()), buildDir: t.TempDir()}
	digests := map[string]string{}
	for _, w := range workloads {
		o := runWorkload(w, c, false)
		if !o.Correct || o.Ops < 1 || o.OpsFailed != 0 {
			t.Errorf("%s: %+v", w.name, o)
			continue
		}
		digests[w.name] = o.Digest
		if o.Passes != w.passes || o.Rounds != w.rounds {
			t.Errorf("%s ran %d passes of %d rounds, want %d of %d", w.name, o.Passes, o.Rounds, w.passes, w.rounds)
		}
		for _, d := range endToEnd {
			if v, ok := o.Metrics[d.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, d.name, v)
			}
		}
		if len(o.Metrics) != len(endToEnd) {
			t.Errorf("%s: an untraced run reported %d metrics, want the %d end-to-end ones", w.name, len(o.Metrics), len(endToEnd))
		}

		traced := runWorkload(w, c, true)
		if !traced.Correct {
			t.Errorf("%s traced: %v", w.name, traced.Problems)
			continue
		}
		if traced.Digest != o.Digest {
			t.Errorf("%s: the traced run's digest %s differs from the untraced run's %s", w.name, traced.Digest, o.Digest)
		}
		for _, d := range perLayer {
			if _, ok := traced.Metrics[d.name]; !ok {
				t.Errorf("%s traced: no %s", w.name, d.name)
			}
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want the %d per-layer ones", w.name, len(traced.Metrics), len(perLayer))
		}
		for _, name := range append([]string{"harness.wall_s", "harness.cpu_s", "harness.alloc_mb", "harness.pass_spread"}, moves[w.name]...) {
			if !(traced.Metrics[name] > 0) {
				t.Errorf("%s traced: %s = %v, want a positive value", w.name, name, traced.Metrics[name])
			}
		}
		for _, name := range []string{"netsim.steady_allocs_per_cycle", "route.allocs_per_batch"} {
			if v := traced.Metrics[name]; v != 0 {
				t.Errorf("%s traced: %s = %v, pinned 0", w.name, name, v)
			}
		}
		data, err := os.ReadFile(c.buildDir + "/trace-" + w.name + ".json")
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || tf.Workload != w.name || len(tf.Spans) == 0 {
			t.Errorf("%s: span file: %v, %d spans", w.name, err, len(tf.Spans))
		}
		for _, s := range tf.Spans {
			if s.End < s.Start || s.Parent < -1 || s.Parent >= int32(len(tf.Spans)) || !strings.Contains(s.Name, ".") {
				t.Errorf("%s: malformed span %+v", w.name, s)
				break
			}
		}
	}

	// The seed reaches the generated inputs: another seed, another
	// digest; the same seed, the same one.
	w, _ := findWorkload("serve_g17")
	other := c
	other.seed = 2
	if o := runWorkload(w, other, false); o.Digest == digests[w.name] {
		t.Errorf("serve_g17: seeds 1 and 2 gave the same digest %s", o.Digest)
	}
	if o := runWorkload(w, c, false); o.Digest != digests[w.name] {
		t.Errorf("serve_g17: seed 1 gave digests %s and %s", digests[w.name], o.Digest)
	}
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the tables of this
// package saying the same thing.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the segment counts are written for %d", bf.RunSeconds, nominalSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/bench" {
		t.Errorf("paths %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := bf.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, g, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := bf.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, g, d)
		}
	}
}
