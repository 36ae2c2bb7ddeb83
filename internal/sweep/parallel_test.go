package sweep

import (
	"testing"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// The determinism contract of the execution engine: RunPoint and
// LatencyCurve produce bit-identical Points on a one-worker pool
// (strictly sequential, the pre-engine reference behavior) and on a
// heavily parallel pool, across every routing scheme and across
// stateful traffic patterns. Seeds derive from cfg.Seed exactly as
// before; results are written by index.

func detSchemes(t *topo.Compiled) map[string]func() netsim.RoutingFunc {
	full := paths.Full{T: t}
	strat := paths.Strategic{T: t, FirstLeg: 2}
	// Store-backed variants: one immutable compiled store shared by
	// every cloned run on both pools, exercising the PathID sampling
	// path under the same determinism contract.
	fullSt := paths.Compile(t, full)
	stratSt := paths.Compile(t, strat)
	return map[string]func() netsim.RoutingFunc{
		"UGAL-L/store": func() netsim.RoutingFunc { return routing.NewUGALL(t, fullSt) },
		"T-UGAL-L/store": func() netsim.RoutingFunc {
			r := routing.NewUGALL(t, stratSt)
			r.Label = "T-UGAL-L"
			return r
		},
		"MIN":     func() netsim.RoutingFunc { return routing.NewMin(t) },
		"VLB":     func() netsim.RoutingFunc { return routing.NewVLB(t, full) },
		"UGAL-L":  func() netsim.RoutingFunc { return routing.NewUGALL(t, full) },
		"UGAL-G":  func() netsim.RoutingFunc { return routing.NewUGALG(t, full) },
		"UGAL-PB": func() netsim.RoutingFunc { return routing.NewPiggyback(t, full) },
		"PAR":     func() netsim.RoutingFunc { return routing.NewPAR(t, full) },
		"T-UGAL-L": func() netsim.RoutingFunc {
			r := routing.NewUGALL(t, strat)
			r.Label = "T-UGAL-L"
			return r
		},
	}
}

func detPatterns(t *topo.Compiled) map[string]PatternFactory {
	return map[string]PatternFactory{
		// TMIXED draws a fresh UR-vs-ADV decision per packet — the
		// adversarial stateful-ish pattern the issue singles out.
		"tmixed": Fixed(traffic.NewTimeMixed(t, 50, traffic.Shift{T: t, DG: 1, DS: 0})),
		// alltoall keeps per-source cursors: the genuinely stateful
		// pattern, exercised through Fixed's per-run cloning.
		"alltoall": Fixed(traffic.NewAllToAll(t)),
		// per-seed frozen structure.
		"perm": func(seed uint64) traffic.Pattern { return traffic.NewPermutation(t, seed) },
	}
}

func TestDeterminismAcrossPoolSizes(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	seq := exec.NewPool(1)
	par := exec.NewPool(16)
	w := Windows{Warmup: 600, Measure: 400, Drain: 800}
	rates := []float64{0.05, 0.15, 0.45}
	for pname, pf := range detPatterns(tp) {
		for sname, mk := range detSchemes(tp) {
			cfg := netsim.DefaultConfig()
			if sname == "PAR" {
				cfg.NumVCs = 5
			}
			cs := LatencyCurveOn(seq, tp, cfg, mk(), pf, rates, w, 2)
			cp := LatencyCurveOn(par, tp, cfg, mk(), pf, rates, w, 2)
			for i := range rates {
				if cs.Points[i] != cp.Points[i] {
					t.Errorf("%s/%s point %d differs:\nseq %+v\npar %+v",
						pname, sname, i, cs.Points[i], cp.Points[i])
				}
			}
		}
	}
}

// TestRunPointDeterminismMultiSeed pins the per-seed fan-out alone:
// 4 seeds of one point, sequential vs parallel, must agree exactly.
func TestRunPointDeterminismMultiSeed(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	rf := routing.NewUGALL(tp, paths.Full{T: tp})
	pf := Fixed(traffic.NewTimeMixed(tp, 50, traffic.Shift{T: tp, DG: 1, DS: 0}))
	w := QuickWindows()
	ps := RunPointOn(exec.NewPool(1), tp, cfg, rf, pf, 0.1, w, 4)
	pp := RunPointOn(exec.NewPool(8), tp, cfg, rf, pf, 0.1, w, 4)
	if ps != pp {
		t.Fatalf("multi-seed point differs:\nseq %+v\npar %+v", ps, pp)
	}
}

// TestSaturationDeterminismAcrossPoolSizes pins the bracket+bisect
// search: same result on sequential and parallel pools.
func TestSaturationDeterminismAcrossPoolSizes(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	pf := Fixed(traffic.Shift{T: tp, DG: 1, DS: 0})
	w := QuickWindows()
	mk := func() netsim.RoutingFunc { return routing.NewUGALL(tp, paths.Full{T: tp}) }
	ss := SaturationOn(exec.NewPool(1), tp, cfg, mk(), pf, w, 1, 0.05)
	sp := SaturationOn(exec.NewPool(8), tp, cfg, mk(), pf, w, 1, 0.05)
	if ss != sp {
		t.Fatalf("saturation differs: seq %v par %v", ss, sp)
	}
}

// TestFixedClonesStatefulPatterns: Fixed must hand each run its own
// clone of a Cloner pattern, and the same instance of a stateless one.
func TestFixedClonesStatefulPatterns(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	stateful := traffic.NewAllToAll(tp)
	pf := Fixed(stateful)
	a, b := pf(1), pf(2)
	if a == traffic.Pattern(stateful) || b == traffic.Pattern(stateful) || a == b {
		t.Fatal("Fixed handed out a shared stateful pattern instance")
	}
	stateless := traffic.Uniform{T: tp}
	pf = Fixed(stateless)
	if pf(1) != traffic.Pattern(stateless) {
		t.Fatal("Fixed needlessly wrapped a stateless pattern")
	}
}
