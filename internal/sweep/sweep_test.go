package sweep

import (
	"encoding/json"
	"math"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

func testEnv() (*topo.Compiled, netsim.Config, netsim.RoutingFunc, PatternFactory) {
	t := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	rf := routing.NewUGALL(t, paths.Full{T: t})
	pf := Fixed(traffic.Uniform{T: t})
	return t, cfg, rf, pf
}

func TestRunPointLowLoad(t *testing.T) {
	tp, cfg, rf, pf := testEnv()
	p := RunPointOn(exec.Default(), tp, cfg, rf, pf, 0.05, QuickWindows(), 2)
	if p.Saturated {
		t.Fatal("saturated at 5% uniform load")
	}
	if p.Latency <= 0 || math.IsInf(p.Latency, 1) {
		t.Fatalf("latency %v", p.Latency)
	}
	if math.Abs(p.Throughput-0.05) > 0.01 {
		t.Fatalf("throughput %v at offered 0.05", p.Throughput)
	}
}

func TestLatencyCurveMonotoneLatency(t *testing.T) {
	tp, cfg, rf, _ := testEnv()
	pf := Fixed(traffic.Shift{T: tp, DG: 1, DS: 0})
	c := LatencyCurve(tp, cfg, rf, pf, []float64{0.05, 0.15, 0.3, 0.6}, QuickWindows(), 1)
	if c.Name != "UGAL-L" {
		t.Fatalf("curve name %q", c.Name)
	}
	// Latency must not decrease with load (within noise) and the
	// curve must eventually saturate on adversarial traffic.
	if !c.Points[len(c.Points)-1].Saturated {
		t.Fatal("no saturation at 60% adversarial load")
	}
	if c.Points[0].Latency > c.Points[1].Latency*1.2 {
		t.Fatalf("latency decreased sharply with load: %v -> %v",
			c.Points[0].Latency, c.Points[1].Latency)
	}
	sat := c.SaturationThroughput()
	if sat < 0.05 || sat >= 0.6 {
		t.Fatalf("saturation throughput %v implausible", sat)
	}
}

// TestPointJSONWireForm: MarshalJSON writes a saturated point's +Inf
// latency as null, which encoding/json cannot write itself, and the keys
// of a Point and of a Curve (the shape cmd/experiment writes) are
// lowercase.
func TestPointJSONWireForm(t *testing.T) {
	c := Curve{Name: "UGAL-L", Points: []Point{
		{Offered: 0.1, Latency: 31.5, LatencyErr: 0.25, Throughput: 0.099,
			VLBFraction: 0.4, AvgHops: 2.5},
		{Offered: 0.6, Latency: math.Inf(1), Throughput: 0.31,
			VLBFraction: 0.9, AvgHops: 3.8, Saturated: true},
	}}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"UGAL-L","points":[` +
		`{"offered":0.1,"latency":31.5,"latencyErr":0.25,"throughput":0.099,"vlbFraction":0.4,"avgHops":2.5,"saturated":false},` +
		`{"offered":0.6,"latency":null,"latencyErr":0,"throughput":0.31,"vlbFraction":0.9,"avgHops":3.8,"saturated":true}]}`
	if string(data) != want {
		t.Fatalf("wire form\n got %s\nwant %s", data, want)
	}
}

func TestSaturationSearch(t *testing.T) {
	tp, cfg, rf, _ := testEnv()
	pf := Fixed(traffic.Shift{T: tp, DG: 1, DS: 0})
	sat := Saturation(tp, cfg, rf, pf, QuickWindows(), 1, 0.05)
	if sat <= 0.02 || sat >= 0.9 {
		t.Fatalf("saturation %v implausible for adversarial UGAL-L", sat)
	}
	// Verify the bracket: sat itself must not saturate, sat+2*res must.
	if RunPointOn(exec.Default(), tp, cfg, rf, pf, sat, QuickWindows(), 1).Saturated {
		t.Fatalf("returned rate %v is saturated", sat)
	}
}

func TestSaturationHighForMinOnUniform(t *testing.T) {
	// MIN routing on uniform traffic sustains high load on this
	// small topology (at exactly 1.0 the M/D/1-like ejection queues
	// are critically loaded, so full rate may legitimately
	// saturate); the search must land at 0.7 or above.
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	rf := routing.NewMin(tp)
	pf := Fixed(traffic.Uniform{T: tp})
	if sat := Saturation(tp, cfg, rf, pf, QuickWindows(), 1, 0.05); sat < 0.7 {
		t.Fatalf("MIN/UR saturation %v, want >= 0.7", sat)
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	tp, cfg, _, _ := testEnv()
	pf := Fixed(traffic.Shift{T: tp, DG: 1, DS: 0})
	rates := []float64{0.05, 0.1, 0.2}
	w := QuickWindows()
	par := LatencyCurveOn(exec.NewPool(8), tp, cfg,
		routing.NewUGALL(tp, paths.Full{T: tp}), pf, rates, w, 1)
	seq := LatencyCurveOn(exec.NewPool(1), tp, cfg,
		routing.NewUGALL(tp, paths.Full{T: tp}), pf, rates, w, 1)
	for i := range rates {
		if par.Points[i] != seq.Points[i] {
			t.Fatalf("point %d differs:\npar %+v\nseq %+v", i, par.Points[i], seq.Points[i])
		}
	}
}

func TestRates(t *testing.T) {
	r := Rates(0.8, 4)
	want := []float64{0.2, 0.4, 0.6, 0.8}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Fatalf("rates %v", r)
		}
	}
}

func TestMultiSeedVariance(t *testing.T) {
	tp, cfg, _, _ := testEnv()
	rf := routing.NewUGALL(tp, paths.Full{T: tp})
	pf := func(seed uint64) traffic.Pattern { return traffic.NewPermutation(tp, seed) }
	p := RunPointOn(exec.Default(), tp, cfg, rf, pf, 0.2, QuickWindows(), 3)
	if p.Saturated {
		t.Fatal("saturated at 20% permutation load")
	}
	if p.LatencyErr < 0 {
		t.Fatal("negative latency stderr")
	}
}
