package flow

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

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

// TestGridLoads holds the grid walk to the per-demand builder and to
// the map-based oracle: for the Table-1 grid and for an un-nested list,
// on three instances (one link per group pair, parallel links, d3),
// pristine and degraded, walking the compiled full store and the
// interpreted full set, every policy's rows, hop averages and
// availability are Float64bits-equal to ComputeLoads' and naiveLoads'
// under that policy. One walk serves every demand set in turn, so its
// scratch and arena reuse is under the same check.
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
						got := map[string][]*DemandLoads{}
						for name, g := range walks {
							got[name] = g.Loads(demands)
							if len(got[name]) != len(list) || g.RowBytes() <= 0 || g.Decode <= 0 || g.Derive <= 0 {
								t.Fatalf("%s: %d loads, %d row bytes, decode %v, derive %v", name, len(got[name]), g.RowBytes(), g.Decode, g.Derive)
							}
						}
						for k, pol := range list {
							want := ComputeLoads(net, pol, demands, LoadOptions{Enumerate: true})
							requireBitIdenticalLoads(t, "oracle", naiveLoads(net, pol, demands), want)
							for name := range walks {
								requireBitIdenticalLoads(t, fmt.Sprintf("set %d policy %d (%s) over %s", si, k, pol.Name(), name), want, got[name][k])
							}
						}
					}
				})
			}
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
	if _, _, err := AverageModeledGrid(tp, full, []paths.Policy{paths.Strategic{T: tp, FirstLeg: 2}}, pats, DefaultModelOptions()); err == nil {
		t.Error("AverageModeledGrid served a strategic policy")
	}
}

// TestAverageModeledGridMatchesAverageModeled: the pattern-major
// evaluation returns, policy by policy, the bits of the per-policy one,
// under both solvers, and reports its work under the labels cmd/bench
// reads (one loadgrid/ and one loadmatrix/ per pattern, one model/ per
// solve).
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
	for _, exact := range []bool{false, true} {
		opt := DefaultModelOptions()
		opt.Exact = exact
		if exact {
			list, pats = list[8:12], pats[:2] // the LP is slow
		}
		clear(seen)
		means, ses, err := AverageModeledGrid(tp, paths.Compile(tp, full), list, pats, opt)
		if err != nil {
			t.Fatal(err)
		}
		if seen["loadgrid"] != len(pats) || seen["loadmatrix"] != len(pats) || seen["model"] != len(list)*len(pats) {
			t.Errorf("exact=%v: observer saw %v, want %d loadgrid, %d loadmatrix, %d model", exact, seen, len(pats), len(pats), len(list)*len(pats))
		}
		for k, pol := range list {
			m, se, err := AverageModeled(tp, pol, pats, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(m, means[k]) || !sameBits(se, ses[k]) {
				t.Fatalf("exact=%v %s: grid (%v, %v), per policy (%v, %v)", exact, pol.Name(), means[k], ses[k], m, se)
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestGridLoadsAllocs: a warm walk builds a pattern's rows in scratch
// it already has. What is left is the MIN enumeration (K paths of two
// slices each, and their list, per demand), which does not grow with
// the policies or the VLB paths.
func TestGridLoadsAllocs(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	g, err := NewGridWalk(net, paths.Compile(tp, paths.Full{T: tp}), tableOne(tp, 1))
	if err != nil {
		t.Fatal(err)
	}
	demands := traffic.SwitchDemands(tp, traffic.NewGroupPermutation(tp, 3))
	g.Loads(demands)
	perDemand := testing.AllocsPerRun(5, func() { g.Loads(demands) }) / float64(len(demands))
	if limit := float64(2*tp.K + 2); perDemand > limit {
		t.Errorf("%.1f allocations a demand on a warm walk, want at most %.0f", perDemand, limit)
	}
}

// BenchmarkGridLoads measures the kernel of a Step-1 probe on g=9: one
// pattern's 72 demands walked once for the 31 Table-1 policies.
func BenchmarkGridLoads(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	net := NewNetwork(tp)
	g, err := NewGridWalk(net, paths.Compile(tp, paths.Full{T: tp}), tableOne(tp, 1))
	if err != nil {
		b.Fatal(err)
	}
	demands := traffic.SwitchDemands(tp, traffic.NewGroupPermutation(tp, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Loads(demands)
	}
	b.ReportMetric(float64(g.RowBytes())/(1<<20), "row-MiB")
	b.ReportMetric(float64(len(demands)), "demands")
}

// TestAverageModeledGridKeepsNothing: the walks (scratch and row arenas,
// a quarter MiB each at the least) are garbage once the call returns —
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
	if _, _, err := AverageModeledGrid(tp, base, list, pats, DefaultModelOptions()); err != nil {
		t.Fatal(err)
	}
	after := live()
	if kept := int64(after) - int64(before); kept > 64<<10 {
		t.Errorf("%d KiB still live one collection after the call, want next to nothing", kept>>10)
	}
	runtime.KeepAlive(base)
}
