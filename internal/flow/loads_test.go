package flow

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// loadPolicies lists the policy shapes ComputeLoads must serve:
// interpreted (Full, LengthCapped with a fractional tier, Strategic)
// and compiled (Store) forms.
func loadPolicies(tp *topo.Compiled) map[string]paths.Policy {
	return map[string]paths.Policy{
		"full":         paths.Full{T: tp},
		"capped":       paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7},
		"strategic":    paths.Strategic{T: tp, FirstLeg: 2},
		"full-store":   paths.Compile(tp, paths.Full{T: tp}),
		"capped-store": paths.Compile(tp, paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7}),
		"empty-of-vlb": paths.LengthCapped{T: tp, MaxHops: 1, Seed: 1},
	}
}

// naiveLoads is the map-based per-demand row builder ComputeLoads
// once was: every candidate enumerated and Alive-filtered in order,
// each row summed in a fresh map[Edge]float64 and sorted at the end. It
// shares nothing with rowEnv, edgeAcc or GridWalk, so it is the
// independent reference for all of them.
func naiveLoads(net *Network, pol paths.Policy, demands []traffic.Demand) *DemandLoads {
	dl := &DemandLoads{
		Net:     net,
		Demands: demands,
		Min:     make([]SparseVec, len(demands)),
		Vlb:     make([]SparseVec, len(demands)),
		VlbOK:   make([]bool, len(demands)),
		MinHops: make([]float64, len(demands)),
		VlbHops: make([]float64, len(demands)),
	}
	// row spreads unit traffic evenly over ps, returning the sorted
	// per-edge sums and the average hop count.
	row := func(ps []paths.Path) (SparseVec, float64) {
		acc := make(map[Edge]float64)
		hops := 0.0
		for _, p := range ps {
			w := 1 / float64(len(ps))
			for _, e := range net.PathEdges(nil, p) {
				acc[e] += w
			}
			hops += w * float64(p.Hops())
		}
		v := make(SparseVec, 0, len(acc))
		for e, w := range acc {
			v = append(v, EdgeWeight{E: e, W: w})
		}
		sort.Slice(v, func(i, j int) bool { return v[i].E < v[j].E })
		return v, hops
	}
	for i, d := range demands {
		s, t := int(d.Src), int(d.Dst)
		dl.Min[i], dl.MinHops[i] = row(paths.EnumerateMinAlive(net.T, net.Fail, s, t))
		var vlb []paths.Path
		for _, p := range pol.Enumerate(s, t) {
			if paths.Alive(net.Fail, p) {
				vlb = append(vlb, p)
			}
		}
		dl.Vlb[i], dl.VlbHops[i] = row(vlb)
		dl.VlbOK[i] = len(vlb) > 0
	}
	return dl
}

// TestComputeLoadsMatchesNaive pins ComputeLoads — the per-demand
// rowEnv build — against the map-based naiveLoads, bit for bit, on
// interpreted and compiled policies, and the two solvers on both.
func TestComputeLoadsMatchesNaive(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	pats := []traffic.Deterministic{
		traffic.Shift{T: tp, DG: 1, DS: 0},
		traffic.Shift{T: tp, DG: 2, DS: 1},
		traffic.NewGroupPermutation(tp, 11),
	}
	for name, pol := range loadPolicies(tp) {
		for _, pat := range pats {
			demands := traffic.SwitchDemands(tp, pat)
			want := naiveLoads(net, pol, demands)
			got := ComputeLoads(net, pol, demands, LoadOptions{Enumerate: true})
			requireBitIdenticalLoads(t, name+"/"+pat.Name(), want, got)

			// The solved results must therefore agree bit for bit.
			ws, gs := SolveSymmetric(want), SolveSymmetric(got)
			if ws != gs {
				t.Fatalf("%s/%s: symmetric %v vs %v", name, pat.Name(), gs, ws)
			}
			wl, err1 := SolveLP(want)
			gl, err2 := SolveLP(got)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%s: LP errors %v %v", name, pat.Name(), err1, err2)
			}
			if wl != gl {
				t.Fatalf("%s/%s: LP %v vs %v", name, pat.Name(), gl, wl)
			}
		}
	}
}

// TestAverageModeledWorkerDeterminism: the parallel pattern fan-out
// must reproduce the sequential
// per-pattern loop bit for bit at any worker count.
func TestAverageModeledWorkerDeterminism(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 3}
	pats := append(traffic.Type1Set(tp)[:6], traffic.Type2Set(tp, 4, 99)...)
	opt := DefaultModelOptions()

	// Reference: the pre-matrix sequential loop.
	vals := make([]float64, len(pats))
	for i, pat := range pats {
		res, err := ModelThroughput(tp, pol, pat, opt)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = res.Alpha
	}

	var means, errs [2]float64
	for i, workers := range []int{1, 16} {
		old := exec.SetDefault(exec.NewPool(workers))
		m, se, err := AverageModeled(tp, pol, pats, opt)
		exec.SetDefault(old)
		if err != nil {
			t.Fatal(err)
		}
		means[i], errs[i] = m, se
	}
	if math.Float64bits(means[0]) != math.Float64bits(means[1]) ||
		math.Float64bits(errs[0]) != math.Float64bits(errs[1]) {
		t.Fatalf("worker-count dependent: %v/%v vs %v/%v", means[0], errs[0], means[1], errs[1])
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if want := sum / float64(len(vals)); math.Float64bits(means[0]) != math.Float64bits(want) {
		t.Fatalf("parallel mean %v differs from sequential %v", means[0], want)
	}
}

func TestDebugBindingWriter(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	demands := traffic.SwitchDemands(tp, traffic.Shift{T: tp, DG: 1, DS: 0})
	dl := ComputeLoads(net, paths.Full{T: tp}, demands, LoadOptions{Enumerate: true})
	res := SolveSymmetric(dl)
	var buf bytes.Buffer
	DebugBinding(&buf, dl, res, 5)
	out := buf.String()
	if !strings.Contains(out, "util=") {
		t.Fatalf("unexpected output %q", out)
	}
	if n := strings.Count(out, "\n"); n != 5 {
		t.Fatalf("%d lines, want 5", n)
	}
}

// BenchmarkAverageModeled measures the per-data-point quantity of a
// Monte-Carlo or single-policy probe — the full pattern-suite average
// on g=9 with every demand's rows built per pattern.
func BenchmarkAverageModeled(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 1}
	pats := append(traffic.Type1Set(tp), traffic.Type2Set(tp, 20, 1)...)
	opt := DefaultModelOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AverageModeled(tp, pol, pats, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pats))*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}
