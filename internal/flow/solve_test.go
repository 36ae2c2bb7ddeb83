package flow

import (
	"math"
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// alphaAtScan is alphaAt as one division per edge: the least cap/load
// over every edge whose load exceeds 1e-12, or 0 when none does. It is
// the solver's scan from before the packed edges were grouped by
// capacity, kept as the oracle, and it reads the dense arrays and the
// network's capacities, so it shares no packing with alphaAt either.
func alphaAtScan(a *Aggregate, caps []float64, x float64) float64 {
	best := math.Inf(1)
	for i, f := range a.Fixed {
		load := f + x*a.Mu[i] + (1-x)*a.Nu[i]
		if load <= 1e-12 {
			continue
		}
		if al := caps[i] / load; al < best {
			best = al
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// randomLoads draws a pattern of demands on tp's switches with random
// sparse rows: capacities 0 (on a random eighth of the edges), 1 and p;
// VLB-less pairs and pairs with no MIN row; and weights spread over ten
// decades, so loads fall on both sides of the 1e-12 cutoff. With idle
// set every weight is below 1e-15, so every load stays under it.
func randomLoads(tp *topo.Compiled, r *rng.Source, idle bool) *DemandLoads {
	net := NewNetwork(tp)
	for e := range net.Cap {
		if r.Intn(8) == 0 {
			net.Cap[e] = 0
		}
	}
	weight := func() float64 {
		if idle {
			return math.Pow(10, -16-r.Float64())
		}
		if r.Intn(3) == 0 {
			return math.Pow(10, -14+3*r.Float64()) // 1e-14 .. 1e-11
		}
		return math.Pow(10, -3+3*r.Float64())
	}
	row := func() SparseVec {
		var v SparseVec
		for range r.Intn(8) {
			v = append(v, EdgeWeight{E: Edge(r.Intn(net.NumEdges)), W: weight()})
		}
		return v
	}
	n := 1 + r.Intn(24)
	dl := &DemandLoads{Net: net, Min: make([]SparseVec, n), Vlb: make([]SparseVec, n), VlbOK: make([]bool, n)}
	for i := range n {
		dl.Demands = append(dl.Demands, traffic.Demand{Src: int32(r.Intn(tp.NumSwitches())), Dst: int32(r.Intn(tp.NumSwitches())), Rate: 0.1 + r.Float64()})
		if r.Intn(6) != 0 {
			dl.Min[i] = row()
		}
		dl.Vlb[i], dl.VlbOK[i] = row(), r.Intn(5) != 0
	}
	return dl
}

// TestAlphaAtMatchesScan: on random aggregates alphaAt, one division per
// capacity, is Float64bits-equal to the per-edge scan at every split a
// Solve visits, and Solve returns the same result over either. The
// aggregates mix capacities 0, 1 and p with loads on both sides of
// 1e-12; every fourth one is all idle (every load under the cutoff) and
// must give 0 at every split, as must an aggregate of no demand at all
// (trial 1) and one whose only load is exactly the cutoff (trial 2).
func TestAlphaAtMatchesScan(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5) // p = 2
	r := rng.New(29)
	var agg Aggregate // reused, as the grid reuses it
	for trial := 0; trial < 400; trial++ {
		dl := randomLoads(tp, r, trial%4 == 0)
		idle := trial%4 == 0 || trial == 1 || trial == 2
		switch trial {
		case 1:
			dl.Demands, dl.Min, dl.Vlb, dl.VlbOK = nil, nil, nil, nil
		case 2:
			dl.Net.Cap[0] = 1
			dl.Demands = []traffic.Demand{{Src: 0, Dst: 1, Rate: 1}}
			dl.Min, dl.Vlb, dl.VlbOK = []SparseVec{{{E: 0, W: 1e-12}}}, []SparseVec{nil}, []bool{false}
		}
		agg.From(dl)
		visited := 0
		got := maximize(func(x float64) float64 {
			visited++
			al, want := agg.alphaAt(x), alphaAtScan(&agg, dl.Net.Cap, x)
			if math.Float64bits(al) != math.Float64bits(want) {
				t.Fatalf("trial %d at x=%v: alphaAt %v (%#x), scan %v (%#x)", trial, x, al, math.Float64bits(al), want, math.Float64bits(want))
			}
			if idle && al != 0 {
				t.Fatalf("trial %d: idle aggregate gives %v at x=%v, want 0", trial, al, x)
			}
			return al
		})
		want := maximize(func(x float64) float64 { return alphaAtScan(&agg, dl.Net.Cap, x) })
		if s := agg.Solve(); s != got || math.Float64bits(s.Alpha) != math.Float64bits(want.Alpha) ||
			math.Float64bits(s.SplitMin) != math.Float64bits(want.SplitMin) {
			t.Fatalf("trial %d: Solve %+v, on the scan %+v", trial, s, want)
		}
		if visited < 100 {
			t.Fatalf("trial %d: Solve visited %d splits", trial, visited)
		}
	}
}
