package core_test

// Golden bit-identity pins: the dragonfly rebuilt on top of the
// topo.Network family interface must reproduce the pre-interface
// implementation bit for bit. The constants below are Float64bits
// fingerprints captured from the direct implementation on the same
// seeds; any change — an extra RNG draw, a reordered link list, a
// float reassociation — shows up as a mismatched word, not a fuzzy
// tolerance failure.

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"tugal/internal/core"
	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/spec"
	"tugal/internal/sweep"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

func TestGoldenNetsimG5(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	cfg := netsim.DefaultConfig()
	cfg.Seed = 42
	rf := routing.NewUGALL(tp, paths.Full{T: tp})
	res := netsim.New(tp, cfg, rf.CloneRouting(), traffic.Shift{T: tp, DG: 1}, 0.2).Run(500, 500, 2000)
	want := map[string][2]uint64{
		"Throughput":  {math.Float64bits(res.Throughput), 0x3fc97c1bda5119ce},
		"AvgLatency":  {math.Float64bits(res.AvgLatency), 0x40438f79b027fc68},
		"AvgHops":     {math.Float64bits(res.AvgHops), 0x400975b713ac2ee2},
		"VLBFraction": {math.Float64bits(res.VLBFraction), 0x3fd3a81504ad8767},
		"OfferedLoad": {math.Float64bits(res.OfferedLoad), 0x3fc9916872b020c5},
		"P50Latency":  {math.Float64bits(res.P50Latency), 0x4042c00000000000},
		"P99Latency":  {math.Float64bits(res.P99Latency), 0x4052200000000000},
	}
	for name, v := range want {
		if v[0] != v[1] {
			t.Errorf("%s = %#x, golden %#x", name, v[0], v[1])
		}
	}
}

func TestGoldenNetsimG9(t *testing.T) {
	if testing.Short() {
		t.Skip("g9 simulation in -short mode")
	}
	tp := topo.MustNew(4, 8, 4, 9)
	cfg := netsim.DefaultConfig()
	cfg.Seed = 7
	rf := routing.NewUGALG(tp, paths.Full{T: tp})
	res := netsim.New(tp, cfg, rf.CloneRouting(), traffic.Uniform{T: tp}, 0.1).Run(300, 300, 1500)
	want := map[string][2]uint64{
		"Throughput":  {math.Float64bits(res.Throughput), 0x3fb95aa499388277},
		"AvgLatency":  {math.Float64bits(res.AvgLatency), 0x40413e836c7a88c1},
		"AvgHops":     {math.Float64bits(res.AvgHops), 0x400750d932934818},
		"VLBFraction": {math.Float64bits(res.VLBFraction), 0x3fc2b9b91f5ab2ff},
		"OfferedLoad": {math.Float64bits(res.OfferedLoad), 0x3fb9419ca252adb3},
		"P50Latency":  {math.Float64bits(res.P50Latency), 0x4042c00000000000},
		"P99Latency":  {math.Float64bits(res.P99Latency), 0x4052200000000000},
	}
	for name, v := range want {
		if v[0] != v[1] {
			t.Errorf("%s = %#x, golden %#x", name, v[0], v[1])
		}
	}
}

func TestGoldenSweepPoint(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	cfg := netsim.DefaultConfig()
	cfg.Seed = 42
	rf := routing.NewUGALL(tp, paths.Full{T: tp})
	pt := sweep.RunPointOn(exec.Default(), tp, cfg, rf, func(seed uint64) traffic.Pattern {
		return traffic.Shift{T: tp, DG: 1}
	}, 0.15, sweep.Windows{Warmup: 300, Measure: 300, Drain: 1500}, 2)
	if got := math.Float64bits(pt.Throughput); got != 0x3fc3078263ab596e {
		t.Errorf("Throughput = %#x, golden 0x3fc3078263ab596e", got)
	}
	if got := math.Float64bits(pt.Latency); got != 0x40438f7dd9527e36 {
		t.Errorf("Latency = %#x, golden 0x40438f7dd9527e36", got)
	}
}

func TestGoldenStep1G9(t *testing.T) {
	if testing.Short() {
		t.Skip("Step-1 model probe in -short mode")
	}
	tp := topo.MustNew(4, 8, 4, 9)
	curve, best, err := core.Step1(tp, core.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(1469598103934665603)
	for _, p := range curve {
		h ^= math.Float64bits(p.Mean)
		h *= 1099511628211
		h ^= math.Float64bits(p.StdErr)
		h *= 1099511628211
	}
	if h != 0xd2fd0aea4422e67e || best.String() != "all VLB" || len(curve) != 31 {
		t.Errorf("curve hash=%#x best=%q n=%d, golden hash=0xd2fd0aea4422e67e best=\"all VLB\" n=31", h, best, len(curve))
	}
	wantPts := [][2]uint64{
		{0x3fcd6a827e331e48, 0x3f99c93dc8c70d95},
		{0x3fd163175a4d0388, 0x3f8b580fe57a77b8},
		{0x3fd452653076146c, 0x3f80b20a845ef1eb},
		{0x3fd62f2a183eb5cc, 0x3f8351d093637a31},
	}
	for i, w := range wantPts {
		if math.Float64bits(curve[i].Mean) != w[0] || math.Float64bits(curve[i].StdErr) != w[1] {
			t.Errorf("point %d = (%#x, %#x), golden (%#x, %#x)", i,
				math.Float64bits(curve[i].Mean), math.Float64bits(curve[i].StdErr), w[0], w[1])
		}
	}
}

// TestGoldenNetsimSequentialPathsG5 pins the configuration that only
// ever ran on the former sequential stepper — an in-flight reviser
// (PAR, whose credits travel interleaved with flit events) — captured
// from that stepper before it was replaced by the 1-shard
// case of the cycle engine.
func TestGoldenNetsimSequentialPathsG5(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	full := paths.Full{T: tp}
	type golden struct {
		thr, lat, hops, vlb, load uint64
		measured, refused         int64
		p50, p99                  uint64
	}
	cases := []struct {
		name string
		vcs  int
		rf   netsim.RoutingFunc
		rate float64
		want golden
	}{
		{"PAR", 5, routing.NewPAR(tp, full), 0.2, golden{
			0x3fc963886594af4f, 0x4045ce98204bdef1, 0x400c793d531ca4e2, 0x3fc72206cae0aa32, 0x3fc9916872b020c5, 3995, 0, 0x4042c00000000000, 0x4054a00000000000}},
	}
	for _, c := range cases {
		cfg := netsim.DefaultConfig()
		cfg.Seed = 42
		cfg.NumVCs = c.vcs
		res := netsim.New(tp, cfg, c.rf.CloneRouting(), traffic.Shift{T: tp, DG: 1}, c.rate).Run(500, 500, 2000)
		got := golden{
			math.Float64bits(res.Throughput), math.Float64bits(res.AvgLatency),
			math.Float64bits(res.AvgHops), math.Float64bits(res.VLBFraction),
			math.Float64bits(res.OfferedLoad), res.Measured, res.Refused,
			math.Float64bits(res.P50Latency), math.Float64bits(res.P99Latency),
		}
		if got != c.want {
			t.Errorf("%s:\n got    {%#x, %#x, %#x, %#x, %#x, %d, %d, %#x, %#x}\n golden {%#x, %#x, %#x, %#x, %#x, %d, %d, %#x, %#x}",
				c.name, got.thr, got.lat, got.hops, got.vlb, got.load, got.measured, got.refused, got.p50, got.p99,
				c.want.thr, c.want.lat, c.want.hops, c.want.vlb, c.want.load, c.want.measured, c.want.refused, c.want.p50, c.want.p99)
		}
	}
}

// TestGoldenNetsimInterpretedStrategicG5 pins T-UGAL-L over the
// interpreted strategic 2+3 policy: every VLB candidate of the run is
// a rejection-sampled draw, which no other netsim golden covers (they
// sample paths.Full or a compiled store). Captured from
// Strategic.SampleVLBInto's own rejection loop.
func TestGoldenNetsimInterpretedStrategicG5(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	cfg := netsim.DefaultConfig()
	cfg.Seed = 42
	rf := routing.NewUGALL(tp, paths.Strategic{T: tp, FirstLeg: 2})
	res := netsim.New(tp, cfg, rf.CloneRouting(), traffic.Shift{T: tp, DG: 1}, 0.2).Run(500, 500, 2000)
	want := map[string][2]uint64{
		"Throughput":  {math.Float64bits(res.Throughput), 0x3fc999999999999a},
		"AvgLatency":  {math.Float64bits(res.AvgLatency), 0x404328d9df51b3c3},
		"AvgHops":     {math.Float64bits(res.AvgHops), 0x4008c350eee3ff41},
		"VLBFraction": {math.Float64bits(res.VLBFraction), 0x3fd5736883bfa9e0},
		"OfferedLoad": {math.Float64bits(res.OfferedLoad), 0x3fc9916872b020c5},
		"P50Latency":  {math.Float64bits(res.P50Latency), 0x4042c00000000000},
		"P99Latency":  {math.Float64bits(res.P99Latency), 0x404f400000000000},
	}
	for name, v := range want {
		if v[0] != v[1] {
			t.Errorf("%s = %#x, golden %#x", name, v[0], v[1])
		}
	}
}

// tvlbGolden is everything Algorithm 1 reports about its Step 2.
type tvlbGolden struct {
	Names    []string
	Removed  []int
	Baseline uint64
	Scores   []uint64
	// Sets folds every candidate's surviving paths, pair by pair in
	// sampling order, into one word per candidate.
	Sets  []uint64
	Final string
}

// TestGoldenComputeTVLB pins Algorithm 1 end to end — candidate names,
// removal counts, Float64bits of every simulated score and the final
// choice — pristine and under one fixed failure mask, captured before
// Step 2 moved onto Step 1's store.
func TestGoldenComputeTVLB(t *testing.T) {
	// The tvlb_g9 workload of cmd/bench at seed 1.
	g9 := core.QuickOptions()
	g9.VicinityMax = 1
	g9.Sim.Patterns = 1
	g9.Sim.Windows = sweep.Windows{Warmup: 800, Measure: 500, Drain: 1000}
	g9.Sim.Resolution = 0.1
	g9.Sim.Config.Seed = 1
	// 1260 pairs against tinyOptions' PairCap of 500: the adjustment
	// samples its pairs, from an explicit seed so that the pin does not
	// depend on how ComputeTVLB derives one when none is given.
	tiny := core.TinyOptions()
	tiny.LB.Seed = 1
	cases := []struct {
		topo, fail string
		opt        core.Options
		long       bool
		want       tvlbGolden
	}{
		{"dfly(2,4,2,9)", "", tiny, false, tvlbGolden{[]string{"strategic 2+3", "strategic 3+2"}, []int{1053, 1053}, 0x3fd4000000000000, []uint64{0x3fd4000000000000, 0x3fd4000000000000},
			[]uint64{0xb461c9234b8be63a, 0x14e8e8f71587597f}, "T-VLB(strategic 3+2)"}},
		{"dfly(2,4,2,9)", "global:4:1,local:9:10", tiny, false, tvlbGolden{[]string{"strategic 2+3", "strategic 3+2"}, []int{842, 845}, 0x3fd4000000000000, []uint64{0x3fd4000000000000, 0x3fd4000000000000},
			[]uint64{0x60194d5b845fea24, 0x701e87aadd51571c}, "T-VLB(strategic 3+2)"}},
		{"dfly(4,8,4,9)", "", g9, true, tvlbGolden{[]string{"strategic 2+3", "strategic 3+2"}, []int{341760, 341760}, 0x3fc8000000000000, []uint64{0x3fd0000000000000, 0x3fc8000000000000},
			[]uint64{0x38c3a535074f9965, 0x627ee5d99c4ab4d6}, "T-VLB(strategic 2+3)"}},
		{"dfly(4,8,4,9)", "global:4:3,local:17:20", g9, true, tvlbGolden{[]string{"strategic 2+3", "strategic 3+2"}, []int{332415, 332415}, 0x3fc8000000000000, []uint64{0x3fc8000000000000, 0x3fc8000000000000},
			[]uint64{0x8b361adb554d9773, 0x65a2e84f38e8e925}, "T-VLB(strategic 3+2)"}},
	}
	for _, c := range cases {
		if c.long && testing.Short() {
			continue
		}
		tp, err := spec.Topology(c.topo)
		if err != nil {
			t.Fatal(err)
		}
		if c.fail != "" {
			if c.opt.Failures, err = spec.Failures(tp, c.fail); err != nil {
				t.Fatal(err)
			}
		}
		res, err := core.ComputeTVLB(tp, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		got := tvlbGolden{Baseline: math.Float64bits(res.BaselineThroughput), Final: res.FinalName()}
		for _, cd := range res.Candidates {
			got.Names = append(got.Names, cd.Name)
			got.Removed = append(got.Removed, cd.RemovedPaths)
			got.Scores = append(got.Scores, math.Float64bits(cd.SimThroughput))
			h, n := uint64(1469598103934665603), tp.NumSwitches()
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					for _, p := range cd.Policy.Enumerate(s, d) {
						h = (h ^ p.Key()) * 1099511628211
					}
				}
			}
			got.Sets = append(got.Sets, h)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s fail(%s):\n got    %#v\n golden %#v", c.topo, c.fail, got, c.want)
		}
	}
}

// TestGoldenSaturationProbeCounts pins, on the pristine g9 instance of
// TestGoldenComputeTVLB, what each Step-2 saturation search spent: the
// tally line it leaves on the pool observer, at one worker, where the
// bracket is a sequential scan and the counts are exact. A search that
// went back to running all four bracket probes shows here as
// "0 skipped", whatever the clock says. The scores are held to the
// golden test's words at 1, 2 and 8 workers beside it, so that the
// counts cannot be bought with a different answer.
func TestGoldenSaturationProbeCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("three Algorithm-1 runs on dfly(4,8,4,9)")
	}
	opt := core.QuickOptions()
	opt.VicinityMax = 1
	opt.Sim.Patterns = 1
	opt.Sim.Windows = sweep.Windows{Warmup: 800, Measure: 500, Drain: 1000}
	opt.Sim.Resolution = 0.1
	opt.Sim.Config.Seed = 1
	tp, err := spec.Topology("dfly(4,8,4,9)")
	if err != nil {
		t.Fatal(err)
	}
	wantScores := []uint64{0x3fc8000000000000, 0x3fd0000000000000, 0x3fc8000000000000}
	wantTallies := []string{
		"search/T-UGAL-L[T-VLB(strategic 2+3)]: 4 probes, 0 aborted, 2 skipped",
		"search/T-UGAL-L[T-VLB(strategic 3+2)]: 3 probes, 0 aborted, 3 skipped",
		"search/UGAL-L[VLB-all]: 3 probes, 0 aborted, 3 skipped",
	}
	for _, workers := range []int{1, 2, 8} {
		pool := exec.NewPool(workers)
		var mu sync.Mutex
		var tallies []string
		pool.SetObserver(func(s exec.Stat) {
			if strings.HasPrefix(s.Label, "search/") {
				mu.Lock()
				tallies = append(tallies, s.Label)
				mu.Unlock()
			}
		})
		old := exec.SetDefault(pool)
		res, err := core.ComputeTVLB(tp, opt)
		exec.SetDefault(old)
		if err != nil {
			t.Fatal(err)
		}
		scores := []uint64{math.Float64bits(res.BaselineThroughput)}
		for _, cd := range res.Candidates {
			scores = append(scores, math.Float64bits(cd.SimThroughput))
		}
		if !reflect.DeepEqual(scores, wantScores) {
			t.Errorf("workers=%d: scores %#x, golden %#x", workers, scores, wantScores)
		}
		sort.Strings(tallies)
		if workers == 1 && !reflect.DeepEqual(tallies, wantTallies) {
			t.Errorf("one worker: search tallies\n got  %q\n want %q", tallies, wantTallies)
		}
		if len(tallies) != len(wantTallies) {
			t.Errorf("workers=%d: %d tally lines for %d searches: %q", workers, len(tallies), len(wantTallies), tallies)
		}
	}
}
