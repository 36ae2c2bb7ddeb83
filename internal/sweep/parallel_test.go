package sweep

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// The determinism contract of the execution engine: RunPointOn and
// LatencyCurve produce bit-identical Points on a one-worker pool
// (strictly sequential, the pre-engine reference behavior) and on a
// heavily parallel pool, across every routing scheme, for a pattern
// every run shares and one drawn per seed. Seeds derive from cfg.Seed
// exactly as before; results are written by index.

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
		// TMIXED draws a fresh UR-vs-ADV decision per packet from the
		// run's own stream; one instance serves every run.
		"tmixed": Fixed(traffic.NewTimeMixed(t, 50, traffic.Shift{T: t, DG: 1, DS: 0})),
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
// search on real simulations: at 1 and 3 seeds, pools of 1, 2 and 8
// workers — sequential scan, a mix, and every probe started at once
// with the higher ones aborted — all return the rate the eager
// four-probe oracle (lazy_test.go) computes from whole RunPointOn
// points, which run every seed to the end.
func TestSaturationDeterminismAcrossPoolSizes(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	pf := Fixed(traffic.Shift{T: tp, DG: 1, DS: 0})
	w := Windows{Warmup: 400, Measure: 300, Drain: 600}
	mk := func() netsim.RoutingFunc { return routing.NewUGALL(tp, paths.Full{T: tp}) }
	seedCounts, pools := []int{1, 3}, []int{1, 2, 8}
	if testing.Short() {
		seedCounts, pools = []int{3}, []int{1, 8}
	}
	for _, seeds := range seedCounts {
		want, _ := eagerSearch(0.05, func(rate float64) bool {
			return RunPointOn(exec.NewPool(1), tp, cfg, mk(), pf, rate, w, seeds).Saturated
		})
		for _, workers := range pools {
			if got := SaturationOn(exec.NewPool(workers), tp, cfg, mk(), pf, w, seeds, 0.05); got != want {
				t.Errorf("seeds=%d workers=%d: saturation %v, eager oracle %v", seeds, workers, got, want)
			}
		}
	}
}

// TestSaturationLazyObserved: nothing a search skips or aborts is
// silent. It ends with one tally line on the pool observer, an aborted
// run reports the cycles it stepped under its own label, and a
// sequential pool aborts nothing — what it does not need it never
// starts. Small enough to run many times under the race detector, with
// the observer, the seeds and the cancellations all live.
func TestSaturationLazyObserved(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	pf := Fixed(traffic.Shift{T: tp, DG: 1, DS: 0})
	w := Windows{Warmup: 200, Measure: 200, Drain: 400}
	rf := routing.NewUGALL(tp, paths.Full{T: tp})
	var got [2]float64
	for k, workers := range []int{1, 8} {
		pool := exec.NewPool(workers)
		var mu sync.Mutex
		var stats []exec.Stat
		pool.SetObserver(func(s exec.Stat) {
			mu.Lock()
			stats = append(stats, s)
			mu.Unlock()
		})
		got[k] = SaturationOn(pool, tp, cfg, rf, pf, w, 3, 0.1)
		var tallies, abortedRuns int
		var completed, aborted, skipped int
		for _, s := range stats {
			switch {
			case strings.HasPrefix(s.Label, "search/UGAL-L: "):
				tallies++
				if _, err := fmt.Sscanf(s.Label, "search/UGAL-L: %d probes, %d aborted, %d skipped",
					&completed, &aborted, &skipped); err != nil {
					t.Fatalf("workers=%d: tally line %q: %v", workers, s.Label, err)
				}
			case strings.HasSuffix(s.Label, "/aborted"):
				abortedRuns++
				if s.Cycles >= w.Warmup+w.Measure+w.Drain || s.Wall <= 0 {
					t.Errorf("workers=%d: %s reports %d cycles in %v", workers, s.Label, s.Cycles, s.Wall)
				}
			}
		}
		if tallies != 1 || completed+aborted+skipped < len(saturationProbes) {
			t.Errorf("workers=%d: %d tally lines, last %d/%d/%d", workers, tallies, completed, aborted, skipped)
		}
		if workers == 1 && (aborted != 0 || abortedRuns != 0 || skipped == 0) {
			t.Errorf("sequential pool: %d probes and %d runs aborted, %d probes skipped; want 0, 0 and some",
				aborted, abortedRuns, skipped)
		}
		if aborted > 0 && abortedRuns == 0 {
			t.Errorf("workers=%d: %d probes aborted but no run reported itself aborted", workers, aborted)
		}
	}
	if got[0] != got[1] {
		t.Errorf("saturation %v on 1 worker, %v on 8", got[0], got[1])
	}
}

// TestSaturationResolutionNotFinite: a resolution that is not a
// positive finite number means the default, as zero always did. NaN
// used to slip past the `<= 0` guard and end the bisection before it
// began (hi-lo > NaN is false), returning the 0.25-wide bracket's floor.
func TestSaturationResolutionNotFinite(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	pf := Fixed(traffic.Shift{T: tp, DG: 1, DS: 0})
	w := Windows{Warmup: 300, Measure: 300, Drain: 600}
	rf := routing.NewUGALL(tp, paths.Full{T: tp})
	pool := exec.NewPool(2)
	want := SaturationOn(pool, tp, cfg, rf, pf, w, 1, 0.01)
	if want == 0.25 || want == 0.5 {
		t.Fatalf("the 0.01 search returned the grid rate %v: the instance cannot tell a refined search from a bare bracket", want)
	}
	for _, res := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if got := SaturationOn(pool, tp, cfg, rf, pf, w, 1, res); got != want {
			t.Errorf("resolution %v: saturation %v, want %v (the default resolution's)", res, got, want)
		}
	}
}
