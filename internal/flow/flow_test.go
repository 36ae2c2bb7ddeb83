package flow

import (
	"math"
	"testing"
	"testing/quick"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// rngNew and quickCheck keep the property test terse.
func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

func quickCheck(f any, maxCount int) error {
	return quick.Check(f, &quick.Config{MaxCount: maxCount})
}

func TestNetworkEdgeSpace(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	want := tp.NumSwitches()*(tp.A-1+tp.H) + 2*tp.NumSwitches()
	if net.NumEdges != want {
		t.Fatalf("NumEdges=%d want %d", net.NumEdges, want)
	}
	for e := 0; e < net.NumEdges; e++ {
		if net.Cap[e] <= 0 {
			t.Fatalf("edge %d without capacity", e)
		}
	}
	if net.Cap[net.InjectionEdge(3)] != float64(tp.P) {
		t.Fatal("injection capacity != p")
	}
	// Switch-to-switch edges come before the terminal edges.
	gl, ll := net.EdgeOf(0, tp.GlobalPort(0)), net.EdgeOf(0, tp.LocalPort(0, 1))
	if gl == ll || gl >= net.InjectionEdge(0) || ll >= net.InjectionEdge(0) {
		t.Fatalf("edges %d and %d of switch 0 overlap or reach the injection edges", gl, ll)
	}
}

func TestPathEdgesRoundTrip(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	p := paths.EnumerateMin(tp, 0, tp.SwitchID(3, 2))[0]
	edges := net.PathEdges(nil, p)
	if len(edges) != p.Hops()+2 {
		t.Fatalf("edge count %d want hops+2=%d", len(edges), p.Hops()+2)
	}
	if edges[0] != net.InjectionEdge(0) || edges[len(edges)-1] != net.EjectionEdge(p.Dst()) {
		t.Fatal("terminal edges wrong")
	}
}

// TestShiftAllVLBAlpha checks the model against the hand-derived
// optimum for adversarial shift traffic on dfly(4,8,4,9) with the
// full VLB set: direct links cap MIN at 32*alpha*x <= 4 and indirect
// global links cap VLB at 64*alpha*(1-x)/7 <= 4, giving alpha = 9/16
// = 0.5625 — the value the paper's Figure 4 reports as ~0.56 for
// conventional UGAL.
func TestShiftAllVLBAlpha(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	res := ModelThroughput(tp, paths.Full{T: tp},
		traffic.Shift{T: tp, DG: 2, DS: 0}, nil)
	if math.Abs(res.Alpha-0.5625) > 0.003 {
		t.Fatalf("alpha=%.4f want 0.5625", res.Alpha)
	}
}

// TestG33MonotoneTowardFull reproduces Figure 5's shape: on the
// maximal dfly(4,8,4,33) (one link per group pair), restricting VLB
// paths only hurts, and the full set is best.
func TestG33MonotoneTowardFull(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 33)
	pat := traffic.Shift{T: tp, DG: 1, DS: 0}
	a4 := ModelThroughput(tp, paths.LengthCapped{T: tp, MaxHops: 4, Seed: 1}, pat, nil)
	a5 := ModelThroughput(tp, paths.LengthCapped{T: tp, MaxHops: 5, Seed: 1}, pat, nil)
	aAll := ModelThroughput(tp, paths.Full{T: tp}, pat, nil)
	if !(aAll.Alpha > a5.Alpha && a5.Alpha > a4.Alpha) {
		t.Fatalf("expected monotone: <=4:%.3f <=5:%.3f all:%.3f", a4.Alpha, a5.Alpha, aAll.Alpha)
	}
}

func TestMinOnlyBound(t *testing.T) {
	// With x forced toward MIN by removing VLB (empty policy via a
	// LengthCapped below any real path), the shift throughput is
	// bounded by the direct links: 32*alpha <= K, alpha = K/32.
	tp := topo.MustNew(4, 8, 4, 9)
	net := NewNetwork(tp)
	demands := traffic.SwitchDemands(tp, traffic.Shift{T: tp, DG: 1, DS: 0})
	pol := paths.LengthCapped{T: tp, MaxHops: 1, Seed: 1} // no VLB path has <=1 hops
	loads := ComputeLoads(net, pol, demands)
	res := fold(loads).Solve()
	want := float64(tp.K) * 1.0 / float64(tp.A*tp.P)
	if math.Abs(res.Alpha-want) > 0.005 {
		t.Fatalf("MIN-only alpha %.4f want %.4f", res.Alpha, want)
	}
}

// pathLPAlpha solves the unconstrained path LP over the candidates the
// symmetric solver spreads dl's demands on: every MIN path and every VLB
// path of pol. The behavioural split is one feasible flow of that LP,
// so its optimum bounds fold(dl).Solve() from above. A demand with no
// surviving path (a dead endpoint) would force alpha to zero; the
// symmetric model leaves it out, and so does this.
func pathLPAlpha(t *testing.T, dl *DemandLoads, pol paths.Policy) float64 {
	t.Helper()
	var servable []traffic.Demand
	for i, d := range dl.Demands {
		if len(dl.Min[i]) > 0 || dl.VlbOK[i] {
			servable = append(servable, d)
		}
	}
	if len(servable) == 0 {
		t.Fatal("no servable demand")
	}
	alpha, err := BuildPathSets(dl.Net, pol, servable, 0, 1).MaxConcurrentLP(false)
	if err != nil {
		t.Fatal(err)
	}
	return alpha
}

// TestPathLPAtLeastSymmetric: the paper's path LP, without the
// dominance constraint, is at least the symmetric solver's alpha on the
// same candidates, pristine and degraded, on instances small enough
// for the dense simplex.
func TestPathLPAtLeastSymmetric(t *testing.T) {
	for _, c := range []struct {
		tp      *topo.Compiled
		demands int // the first this many of each pattern; 0 = all
	}{
		{topo.MustNew(1, 2, 1, 3), 0},
		{topo.MustNew(2, 4, 2, 5), 0},
		{topo.MustNew(2, 4, 2, 9), 6},
	} {
		tp := c.tp
		for _, degraded := range []bool{false, true} {
			var mask *topo.FailureMask
			if degraded {
				mask = topo.NewFailureMask(tp)
				degradeSteps(tp, mask)
			}
			net := NewDegradedNetwork(tp, mask)
			pol := paths.CompileDegraded(tp, paths.Full{T: tp}, mask)
			for _, pat := range []traffic.Deterministic{
				traffic.Shift{T: tp, DG: 1, DS: 0},
				traffic.NewGroupPermutation(tp, 3),
			} {
				demands := traffic.SwitchDemands(tp, pat)
				if c.demands > 0 {
					demands = demands[:c.demands]
				}
				dl := ComputeLoads(net, pol, demands)
				sym := fold(dl).Solve()
				if lp := pathLPAlpha(t, dl, pol); lp < sym.Alpha-1e-9 {
					t.Errorf("%s degraded=%v %s: path LP %.6f below symmetric %.6f", tp.Label(), degraded, pat.Name(), lp, sym.Alpha)
				}
			}
		}
	}
}

func TestAvgVLBHopsFullSet(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	net := NewNetwork(tp)
	demands := traffic.SwitchDemands(tp, traffic.Shift{T: tp, DG: 2, DS: 0})
	full := ComputeLoads(net, paths.Full{T: tp}, demands)
	capped := ComputeLoads(net, paths.LengthCapped{T: tp, MaxHops: 4, Seed: 1}, demands)
	if full.AvgVLBHops() < 5.3 {
		t.Fatalf("full-set average VLB length %.2f implausibly short", full.AvgVLBHops())
	}
	if capped.AvgVLBHops() > 4.0 {
		t.Fatalf("capped-set average VLB length %.2f above cap", capped.AvgVLBHops())
	}
}

// TestGKMatchesExactLP cross-validates the Garg-Könemann solver
// against the exact path LP on a small instance.
func TestGKMatchesExactLP(t *testing.T) {
	tp := topo.MustNew(1, 2, 1, 3)
	net := NewNetwork(tp)
	demands := traffic.SwitchDemands(tp, traffic.Shift{T: tp, DG: 1, DS: 0})
	ps := BuildPathSets(net, paths.Full{T: tp}, demands, 0, 1)
	exact, err := ps.MaxConcurrentLP(false)
	if err != nil {
		t.Fatal(err)
	}
	gk := ps.MaxConcurrentGK(0.05)
	if gk > exact+1e-6 {
		t.Fatalf("GK %.4f exceeds exact %.4f", gk, exact)
	}
	if gk < 0.80*exact {
		t.Fatalf("GK %.4f too far below exact %.4f", gk, exact)
	}
}

// TestDominanceConstraintTightens verifies the paper's refinement:
// the dominance-constrained LP can only reduce the optimal
// throughput relative to the unconstrained path LP.
func TestDominanceConstraintTightens(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	net := NewNetwork(tp)
	demands := traffic.SwitchDemands(tp, traffic.Shift{T: tp, DG: 1, DS: 0})
	// Keep the instance tiny for the exact solver.
	demands = demands[:4]
	ps := BuildPathSets(net, paths.Full{T: tp}, demands, 24, 1)
	plain, err := ps.MaxConcurrentLP(false)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := ps.MaxConcurrentLP(true)
	if err != nil {
		t.Fatal(err)
	}
	if dom > plain+1e-6 {
		t.Fatalf("dominance LP %.4f exceeds plain %.4f", dom, plain)
	}
	if dom <= 0 {
		t.Fatal("dominance LP returned zero")
	}
}

// TestOptimalFlowOverestimates demonstrates why the paper refined the
// model: the unconstrained optimal-flow LP reports higher throughput
// than the behavioural (candidate-uniform) model, because it is free
// to concentrate rate on the best paths in ways UGAL's random
// candidate selection cannot.
func TestOptimalFlowOverestimates(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	net := NewNetwork(tp)
	demands := traffic.SwitchDemands(tp, traffic.Shift{T: tp, DG: 1, DS: 0})
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.2, Seed: 1}
	loads := ComputeLoads(net, pol, demands)
	behav := fold(loads).Solve()
	ps := BuildPathSets(net, pol, demands, 0, 1)
	opt := ps.MaxConcurrentGK(0.05)
	if opt < behav.Alpha*0.95 {
		t.Fatalf("optimal flow %.4f unexpectedly below behavioural %.4f", opt, behav.Alpha)
	}
}

// TestGKBoundedByExactProperty: across random small demand sets and
// policies, Garg-Könemann must stay within (0.8, 1] of the exact LP.
func TestGKBoundedByExactProperty(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	net := NewNetwork(tp)
	f := func(seedRaw uint16, nd uint8) bool {
		seed := uint64(seedRaw)
		r := rngNew(seed)
		nDemands := 2 + int(nd)%3
		var demands []traffic.Demand
		seen := map[[2]int32]bool{}
		for len(demands) < nDemands {
			s := r.Intn(tp.NumSwitches())
			d := r.Intn(tp.NumSwitches())
			if s == d || tp.SameGroup(s, d) {
				continue
			}
			k := [2]int32{int32(s), int32(d)}
			if seen[k] {
				continue
			}
			seen[k] = true
			demands = append(demands, traffic.Demand{Src: k[0], Dst: k[1], Rate: 1 + float64(r.Intn(3))})
		}
		ps := BuildPathSets(net, paths.Full{T: tp}, demands, 30, seed)
		exact, err := ps.MaxConcurrentLP(false)
		if err != nil {
			return false
		}
		gk := ps.MaxConcurrentGK(0.05)
		return gk <= exact+1e-6 && gk >= 0.8*exact
	}
	if err := quickCheck(f, 15); err != nil {
		t.Error(err)
	}
}

func TestAverageModeled(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pats := []traffic.Deterministic{
		traffic.Shift{T: tp, DG: 1, DS: 0},
		traffic.Shift{T: tp, DG: 2, DS: 0},
	}
	mean, se := AverageModeled(tp, paths.Full{T: tp}, pats, nil)
	if mean <= 0 || mean > 1 {
		t.Fatalf("mean %.4f out of range", mean)
	}
	if se < 0 {
		t.Fatalf("negative stderr")
	}
}
