package flow

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// tableOne is core.ProbeGrid as policies (core imports flow, so the
// grid is restated here): all paths of at most 3, 4, 5 hops, each with
// 0 %, 10 % … 90 % of the paths one hop longer under a seed of its own,
// then the full set — 31 policies whose fractional sets are independent
// draws, not a nested chain.
func tableOne(tp *topo.Compiled, seed uint64) []paths.Policy {
	var out []paths.Policy
	for maxHops := 3; maxHops <= 5; maxHops++ {
		for f := 0; f <= 9; f++ {
			frac := float64(f) / 10
			out = append(out, paths.LengthCapped{T: tp, MaxHops: maxHops, Frac: frac,
				Seed: rng.Hash64(seed, uint64(maxHops), uint64(frac*1000))})
		}
	}
	return append(out, paths.Full{T: tp})
}

// unNested is a policy list that is nothing like a chain: the full set
// first, the grid backwards with one point twice, a second seed's grid
// and two caps outside Table 1 (nothing in; one keyed length only).
func unNested(tp *topo.Compiled) []paths.Policy {
	out := []paths.Policy{paths.Full{T: tp}}
	g := tableOne(tp, 1)
	slices.Reverse(g)
	out = append(out, g...)
	out = append(out, g[7])
	out = append(out, tableOne(tp, 2)...)
	return append(out,
		paths.LengthCapped{T: tp, MaxHops: 1, Seed: 1},
		paths.LengthCapped{T: tp, MaxHops: 1, Frac: 0.5, Seed: 3})
}

// gridDemands is two patterns' demands and a hand-made set: an
// in-group pair, both directions of one pair, a pair repeated, and both
// directions of a pair whose far end degradeSteps kills.
func gridDemands(tp *topo.Compiled) [][]traffic.Demand {
	last := int32(tp.NumSwitches() - 1)
	return [][]traffic.Demand{
		traffic.SwitchDemands(tp, traffic.Shift{T: tp, DG: 1, DS: 1}),
		traffic.SwitchDemands(tp, traffic.NewGroupPermutation(tp, 11)),
		{{Src: 0, Dst: 1, Rate: 1}, {Src: 0, Dst: last, Rate: 2}, {Src: last, Dst: 0, Rate: 1},
			{Src: 0, Dst: last, Rate: 1}, {Src: int32(tp.A), Dst: 2, Rate: 1},
			{Src: 1, Dst: int32(tp.SwitchID(tp.G-1, 0)), Rate: 1}, {Src: int32(tp.SwitchID(tp.G-1, 0)), Dst: 1, Rate: 1}},
	}
}

// requireFolds holds a walk's sums to the oracles' rows, policy by
// policy, Float64bits-equal: every demand folded at once, which pins
// the order of the additions, then one demand at a time, which pins
// each demand's rows and where they go. Each oracle lists one
// DemandLoads a policy, in the walk's order.
func requireFolds(t *testing.T, name string, g *GridWalk, demands []traffic.Demand, oracles ...[]*DemandLoads) {
	t.Helper()
	got := g.Fold(demands)
	if len(demands) > 0 && (g.Decode <= 0 || g.Derive <= 0) {
		t.Fatalf("%s: decode %v, derive %v", name, g.Decode, g.Derive)
	}
	for _, want := range oracles {
		if len(got) != len(want) {
			t.Fatalf("%s: %d sums, want %d", name, len(got), len(want))
		}
		for k, dl := range want {
			if diff := sumsDiffer(fold(dl), &got[k]); diff != "" {
				t.Fatalf("%s policy %d: %s", name, k, diff)
			}
		}
	}
	var one Aggregate
	for i := range demands {
		got := g.Fold(demands[i : i+1])
		for k, dl := range oracles[0] {
			one.From(dl.only(i))
			if diff := sumsDiffer(&one, &got[k]); diff != "" {
				t.Fatalf("%s policy %d demand %d: %s", name, k, i, diff)
			}
		}
	}
}

// only is dl cut down to its demand i.
func (dl *DemandLoads) only(i int) *DemandLoads {
	return &DemandLoads{Net: dl.Net, Demands: dl.Demands[i : i+1], Min: dl.Min[i : i+1], Vlb: dl.Vlb[i : i+1],
		VlbOK: dl.VlbOK[i : i+1], MinHops: dl.MinHops[i : i+1], VlbHops: dl.VlbHops[i : i+1]}
}

// unkeyedBases are the bases a one-policy walk (ModelThroughput)
// serves that no keyed filter describes: both strategic expansions, a
// compiled store of a fractional set degraded under mask, and a
// relabeled Explicit with a third of the full set's paths on the pairs
// of sets removed, as the load-balance adjustment leaves it.
func unkeyedBases(tp *topo.Compiled, mask *topo.FailureMask, sets [][]traffic.Demand) map[string]paths.Policy {
	full := paths.Full{T: tp}
	ex := paths.NewExplicit(full)
	for _, demands := range sets {
		for _, d := range demands {
			for _, p := range full.Enumerate(int(d.Src), int(d.Dst)) {
				if p.Key()%3 == 0 {
					ex.Remove(p)
				}
			}
		}
	}
	return map[string]paths.Policy{
		"strategic-2+3": paths.Strategic{T: tp, FirstLeg: 2},
		"strategic-3+2": paths.Strategic{T: tp, FirstLeg: 3},
		"store":         paths.CompileDegraded(tp, paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7}, mask),
		"explicit":      paths.SetLabel(ex, "rebalanced"),
	}
}

// TestGridLoads holds the grid walk to the per-demand builder and to
// the map-based oracle: for the Table-1 grid and for an un-nested list,
// on three instances (one link per group pair, parallel links, d3),
// pristine and degraded, walking the compiled full store and the
// interpreted full set, every policy's folded Fixed, Mu and Nu are
// Float64bits-equal to Aggregate.From over ComputeLoads' and
// naiveLoads' rows under that policy (requireFolds). The one-policy
// walk ModelThroughput runs is held to the same oracles over bases no
// keyed filter describes. One walk serves every demand set in turn, so
// its scratch and sums reuse is under the same check.
func TestGridLoads(t *testing.T) {
	for _, tp := range []*topo.Compiled{
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 4, 3), // parallel global links (h > g-1)
		topo.MustNewD3(12, 4, 2),
	} {
		for _, degraded := range []bool{false, true} {
			var mask *topo.FailureMask
			if degraded {
				mask = topo.NewFailureMask(tp)
				degradeSteps(tp, mask)
			}
			net := NewDegradedNetwork(tp, mask)
			full := paths.Full{T: tp}
			bases := map[string]paths.Policy{"store": paths.CompileDegraded(tp, full, mask), "interpreted": full}
			sets := gridDemands(tp)
			for listName, list := range map[string][]paths.Policy{"table-1": tableOne(tp, 1), "un-nested": unNested(tp)} {
				t.Run(fmt.Sprintf("%s/degraded=%v/%s", tp.Label(), degraded, listName), func(t *testing.T) {
					if testing.Short() && listName == "un-nested" && tp.NumSwitches() > 36 {
						t.Skip("the oracle over 65 policies")
					}
					walks := map[string]*GridWalk{}
					for name, base := range bases {
						g, err := NewGridWalk(net, base, list)
						if err != nil {
							t.Fatal(err)
						}
						walks[name] = g
					}
					for si, demands := range sets {
						want := make([]*DemandLoads, len(list))
						for k, pol := range list {
							want[k] = ComputeLoads(net, pol, demands)
							requireBitIdenticalLoads(t, fmt.Sprintf("set %d policy %d (%s): oracle", si, k, pol.Name()), naiveLoads(net, pol, demands), want[k])
						}
						for name, g := range walks {
							requireFolds(t, fmt.Sprintf("set %d over %s", si, name), g, demands, want)
						}
					}
				})
			}
			t.Run(fmt.Sprintf("%s/degraded=%v/one-policy", tp.Label(), degraded), func(t *testing.T) {
				for name, base := range unkeyedBases(tp, mask, sets) {
					g, err := NewGridWalk(net, base, []paths.Policy{full})
					if err != nil {
						t.Fatal(err)
					}
					for si, demands := range sets {
						requireFolds(t, fmt.Sprintf("set %d over %s", si, name), g, demands,
							[]*DemandLoads{ComputeLoads(net, base, demands)}, []*DemandLoads{naiveLoads(net, base, demands)})
					}
				}
			})
		}
	}
}

// TestGridLoadsRefusesUnkeyed: a policy whose membership is not a
// function of hop count and hash is refused, not mis-served.
func TestGridLoadsRefusesUnkeyed(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	full := paths.Full{T: tp}
	for name, pol := range map[string]paths.Policy{
		"strategic": paths.Strategic{T: tp, FirstLeg: 2},
		"store":     paths.Compile(tp, full),
		"explicit":  paths.NewExplicit(full),
	} {
		if g, err := NewGridWalk(net, full, []paths.Policy{full, pol}); err == nil || g != nil {
			t.Errorf("%s: served by a grid walk (err %v)", name, err)
		}
	}
	pats := []traffic.Deterministic{traffic.Shift{T: tp, DG: 1, DS: 0}}
	if _, _, err := AverageModeledGrid(tp, full, []paths.Policy{paths.Strategic{T: tp, FirstLeg: 2}}, pats, nil); err == nil {
		t.Error("AverageModeledGrid served a strategic policy")
	}
}

// TestAverageModeledGridMatchesAverageModeled: the pattern-major
// evaluation returns, policy by policy, the bits of the per-policy one,
// and reports its work under the labels cmd/bench reads (one loadgrid/
// and one loadmatrix/ per pattern, one model/ per solve).
func TestAverageModeledGridMatchesAverageModeled(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	full := paths.Full{T: tp}
	list := tableOne(tp, 5)
	pats := append(traffic.Type1Set(tp)[:3], traffic.Type2Set(tp, 2, 9)...)
	var mu sync.Mutex
	seen := map[string]int{}
	pool := exec.NewPool(2)
	pool.SetObserver(func(s exec.Stat) {
		mu.Lock()
		seen[s.Label[:strings.Index(s.Label, "/")]]++
		mu.Unlock()
	})
	defer exec.SetDefault(exec.SetDefault(pool))
	means, ses, err := AverageModeledGrid(tp, paths.Compile(tp, full), list, pats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seen["loadgrid"] != len(pats) || seen["loadmatrix"] != len(pats) || seen["model"] != len(list)*len(pats) {
		t.Errorf("observer saw %v, want %d loadgrid, %d loadmatrix, %d model", seen, len(pats), len(pats), len(list)*len(pats))
	}
	for k, pol := range list {
		m, se := AverageModeled(tp, pol, pats, nil)
		if !sameBits(m, means[k]) || !sameBits(se, ses[k]) {
			t.Fatalf("%s: grid (%v, %v), per policy (%v, %v)", pol.Name(), means[k], ses[k], m, se)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestAverageModeledGridStoreOrNot: Step 1 walks the interpreted full set
// under the mask, and a compiled store of it must give the same curve —
// means and standard errors Float64bits-equal, pristine and degraded,
// for the Table-1 grid under two seeds, at 1, 2 and 8 workers.
func TestAverageModeledGridStoreOrNot(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	full := paths.Full{T: tp}
	pats := append(traffic.Type1Set(tp)[:4], traffic.Type2Set(tp, 2, 7)...)
	for _, degraded := range []bool{false, true} {
		var mask *topo.FailureMask
		if degraded {
			// One dead global link: degradeSteps' dead switch would zero
			// most of these patterns' alphas and hide a difference.
			mask = topo.NewFailureMask(tp)
			if _, err := mask.FailGlobalLink(tp.A/2, tp.H-1); err != nil {
				t.Fatal(err)
			}
		}
		bases := map[string]paths.Policy{"store": paths.CompileDegraded(tp, full, mask), "interpreted": full}
		for _, seed := range []uint64{1, 2} {
			list := tableOne(tp, seed)
			var wantM, wantS []float64
			for _, workers := range []int{1, 2, 8} {
				if testing.Short() && workers == 2 {
					continue
				}
				old := exec.SetDefault(exec.NewPool(workers))
				for name, base := range bases {
					means, ses, err := AverageModeledGrid(tp, base, list, pats, mask)
					if err != nil {
						t.Fatal(err)
					}
					if wantM == nil {
						wantM, wantS = means, ses
					}
					for k, pol := range list {
						if !sameBits(means[k], wantM[k]) || !sameBits(ses[k], wantS[k]) {
							t.Fatalf("degraded=%v seed %d, %d workers, %s: %s is (%v, %v), want (%v, %v)",
								degraded, seed, workers, name, pol.Name(), means[k], ses[k], wantM[k], wantS[k])
						}
					}
				}
				exec.SetDefault(old)
			}
		}
	}
}

// TestGridLoadsAllocs: a warm walk folds a pattern into scratch and
// sums it already has, MIN legs included, so it allocates nothing, over
// a compiled store or the interpreted set, pristine or degraded.
func TestGridLoadsAllocs(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := topo.NewFailureMask(tp)
	degradeSteps(tp, mask)
	demands := traffic.SwitchDemands(tp, traffic.NewGroupPermutation(tp, 3))
	for _, m := range []*topo.FailureMask{nil, mask} {
		full := paths.Full{T: tp}
		for name, base := range map[string]paths.Policy{"store": paths.CompileDegraded(tp, full, m), "interpreted": full} {
			g, err := NewGridWalk(NewDegradedNetwork(tp, m), base, tableOne(tp, 1))
			if err != nil {
				t.Fatal(err)
			}
			g.Fold(demands)
			if perDemand := testing.AllocsPerRun(5, func() { g.Fold(demands) }) / float64(len(demands)); perDemand != 0 {
				t.Errorf("%s, degraded=%v: %.2f allocations a demand on a warm walk, want 0", name, m != nil, perDemand)
			}
		}
	}
}

// BenchmarkGridLoads measures the kernel of a Step-1 probe on g=9: one
// pattern's 72 demands walked once for the 31 Table-1 policies, over
// the compiled full store and over the interpreted full set (the base
// core.Step1 walks there), with the Fold's decode and derive walls per
// op:
//
//	go test -run '^$' -bench GridLoads ./internal/flow/
func BenchmarkGridLoads(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	net := NewNetwork(tp)
	full := paths.Full{T: tp}
	demands := traffic.SwitchDemands(tp, traffic.NewGroupPermutation(tp, 1))
	for _, bc := range []struct {
		name string
		base paths.Policy
	}{{"store", paths.Compile(tp, full)}, {"interpreted", full}} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := NewGridWalk(net, bc.base, tableOne(tp, 1))
			if err != nil {
				b.Fatal(err)
			}
			var decode, derive time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Fold(demands)
				decode += g.Decode
				derive += g.Derive
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(decode), "decode-ms")
			b.ReportMetric(ms(derive), "derive-ms")
			b.ReportMetric(float64(len(demands)), "demands")
		})
	}
}

// TestAverageModeledGridKeepsNothing: the walks (their scratch and the
// policies' sums) are garbage once the call returns —
// one collection brings the heap back to where it stood. A free list
// that outlives the call, or a sync.Pool and its victim cache, would
// leave them in the live heap of whatever runs next.
func TestAverageModeledGridKeepsNothing(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	base := paths.Compile(tp, paths.Full{T: tp})
	list := tableOne(tp, 1)
	pats := traffic.Type1Set(tp)[:6]
	defer exec.SetDefault(exec.SetDefault(exec.NewPool(2)))
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	if _, _, err := AverageModeledGrid(tp, base, list, pats, nil); err != nil {
		t.Fatal(err)
	}
	after := live()
	if kept := int64(after) - int64(before); kept > 64<<10 {
		t.Errorf("%d KiB still live one collection after the call, want next to nothing", kept>>10)
	}
	runtime.KeepAlive(base)
}
