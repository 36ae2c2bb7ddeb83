package flow

import (
	"fmt"
	"math"
	"testing"

	"tugal/internal/paths"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// requireBitIdenticalLoads pins two DemandLoads demand by demand: edge
// ids, Float64bits of the weights and hop averages, availability.
func requireBitIdenticalLoads(t *testing.T, name string, want, got *DemandLoads) {
	t.Helper()
	if len(got.Demands) != len(want.Demands) || got.Net != want.Net {
		t.Fatalf("%s: %d demands on %p vs %d on %p", name, len(got.Demands), got.Net, len(want.Demands), want.Net)
	}
	for i, dm := range want.Demands {
		s, d := int(dm.Src), int(dm.Dst)
		requireSameRow(t, name, "min", s, d, want.Min[i], got.Min[i])
		requireSameRow(t, name, "vlb", s, d, want.Vlb[i], got.Vlb[i])
		if math.Float64bits(want.MinHops[i]) != math.Float64bits(got.MinHops[i]) ||
			math.Float64bits(want.VlbHops[i]) != math.Float64bits(got.VlbHops[i]) || want.VlbOK[i] != got.VlbOK[i] {
			t.Fatalf("%s: pair (%d,%d): hops/ok (%v,%v,%v) vs (%v,%v,%v)", name, s, d,
				got.MinHops[i], got.VlbHops[i], got.VlbOK[i], want.MinHops[i], want.VlbHops[i], want.VlbOK[i])
		}
	}
}

// sumsDiffer compares two Aggregates' dense sums — Fixed, Mu and Nu,
// edge by edge, by Float64bits — and describes the first difference,
// or returns "" when there is none.
func sumsDiffer(want, got *Aggregate) string {
	for _, c := range []struct {
		kind      string
		want, got []float64
	}{{"Fixed", want.Fixed, got.Fixed}, {"Mu", want.Mu, got.Mu}, {"Nu", want.Nu, got.Nu}} {
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s over %d edges, want %d", c.kind, len(c.got), len(c.want))
		}
		for e, w := range c.want {
			if math.Float64bits(w) != math.Float64bits(c.got[e]) {
				return fmt.Sprintf("%s[%d] = %v (%#x), want %v (%#x)", c.kind, e, c.got[e], math.Float64bits(c.got[e]), w, math.Float64bits(w))
			}
		}
	}
	return ""
}

func requireSameRow(t *testing.T, name, kind string, s, d int, want, got SparseVec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: pair (%d,%d) %s row: %d entries vs %d", name, s, d, kind, len(got), len(want))
	}
	for i := range want {
		if want[i].E != got[i].E || math.Float64bits(want[i].W) != math.Float64bits(got[i].W) {
			t.Fatalf("%s: pair (%d,%d) %s row entry %d: (%d,%x) vs (%d,%x)",
				name, s, d, kind, i, got[i].E, math.Float64bits(got[i].W), want[i].E, math.Float64bits(want[i].W))
		}
		if math.IsNaN(want[i].W) || math.IsInf(want[i].W, 0) {
			t.Fatalf("%s: pair (%d,%d) %s row entry %d: non-finite weight %v", name, s, d, kind, i, want[i].W)
		}
	}
}

// degradeSteps fails one global link, one local link and one switch.
func degradeSteps(tp *topo.Compiled, mask *topo.FailureMask) {
	if _, err := mask.FailGlobalLink(tp.A/2, tp.H-1); err != nil {
		panic(err)
	}
	if _, err := mask.FailLocalLink(tp.SwitchID(1, 0), tp.SwitchID(1, 1)); err != nil {
		panic(err)
	}
	if _, err := mask.FailSwitch(tp.SwitchID(tp.G-1, 0)); err != nil {
		panic(err)
	}
}

// TestDegradedLoadsAndSolvers checks the model end to end on a lossy
// g9-family topology with K=1 (one global link per group pair, so one
// link failure leaves cross-group pairs with zero MIN paths): loads
// from ComputeLoads and from the map-based naiveLoads agree
// bit-for-bit and the grid walk folds them into the same sums, demands
// with no surviving MIN ride VLB only, dead-endpoint demands are
// unservable, the symmetric solver returns finite positive throughput
// and the path LP bounds it from above.
func TestDegradedLoadsAndSolvers(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := topo.NewFailureMask(tp)
	degradeSteps(tp, mask)
	deadSw := tp.SwitchID(tp.G-1, 0)

	degNet := NewDegradedNetwork(tp, mask)
	degStore := paths.CompileDegraded(tp, paths.Full{T: tp}, mask)

	// With K=1, failing one global link leaves its two groups' cross
	// pairs with zero surviving MIN paths; find one with both
	// endpoints alive, plus a pair whose MIN set survived.
	n := tp.NumSwitches()
	cutS, cutD, okS, okD := -1, -1, -1, -1
	for s := 0; s < n && (cutS < 0 || okS < 0); s++ {
		for d := 0; d < n; d++ {
			if s == d || mask.SwitchDead(s) || mask.SwitchDead(d) {
				continue
			}
			alive := len(paths.EnumerateMinAlive(tp, mask, s, d))
			if alive == 0 && cutS < 0 {
				cutS, cutD = s, d
			}
			if alive > 0 && !tp.SameGroup(s, d) && okS < 0 {
				okS, okD = s, d
			}
		}
	}
	if cutS < 0 || okS < 0 {
		t.Fatalf("scenario lost: cut pair (%d,%d), healthy pair (%d,%d)", cutS, cutD, okS, okD)
	}
	demands := []traffic.Demand{
		{Src: int32(cutS), Dst: int32(cutD), Rate: 1},   // VLB-only
		{Src: 0, Dst: int32(deadSw), Rate: 1},           // unservable
		{Src: int32(deadSw), Dst: int32(tp.A), Rate: 1}, // unservable
		{Src: int32(okS), Dst: int32(okD), Rate: 1},     // healthy
	}

	dlA := ComputeLoads(degNet, degStore, demands)
	requireBitIdenticalLoads(t, "per demand", naiveLoads(degNet, degStore, demands), dlA)
	walk, err := NewGridWalk(degNet, degStore, []paths.Policy{paths.Full{T: tp}})
	if err != nil {
		t.Fatal(err)
	}
	requireFolds(t, "grid walk", walk, demands, []*DemandLoads{dlA})

	if len(dlA.Min[0]) != 0 || !dlA.VlbOK[0] {
		t.Fatalf("link-cut pair: MinRow len %d, VlbOK %v; want empty row, VLB available",
			len(dlA.Min[0]), dlA.VlbOK[0])
	}
	for i := 1; i <= 2; i++ {
		if len(dlA.Min[i]) != 0 || dlA.VlbOK[i] || len(dlA.Vlb[i]) != 0 {
			t.Fatalf("dead-endpoint demand %d not unservable: min=%d vlb=%d ok=%v",
				i, len(dlA.Min[i]), len(dlA.Vlb[i]), dlA.VlbOK[i])
		}
	}
	if len(dlA.Min[3]) == 0 || !dlA.VlbOK[3] {
		t.Fatal("healthy demand lost its rows")
	}

	sym := fold(dlA).Solve()
	if !(sym.Alpha > 0) || math.IsInf(sym.Alpha, 0) || math.IsNaN(sym.Alpha) {
		t.Fatalf("symmetric alpha = %v", sym.Alpha)
	}
	// The path LP over the same candidates bounds the shared split.
	if lp := pathLPAlpha(t, dlA, degStore); lp < sym.Alpha-1e-9 {
		t.Fatalf("path LP alpha %v below symmetric %v", lp, sym.Alpha)
	}
}

// TestDegradedGridMatchesMatrix pins the grid walk on every ordered
// pair of a topology, pristine and degraded, dead endpoints and empty
// MIN rows included: walking the (degraded) full store, and walking the
// interpreted full set under the mask, folds for a fractional policy
// the sums of the rows ComputeLoads builds from the policy's own
// (degraded) store — the Alive filter preserves enumeration order. The
// one-policy walk over each base no keyed filter describes folds its
// own rows' sums. (The name is from when both sides were compiled
// matrices.)
func TestDegradedGridMatchesMatrix(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	full := paths.Full{T: tp}
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7}
	var demands []traffic.Demand
	for s := 0; s < tp.NumSwitches(); s++ {
		for d := 0; d < tp.NumSwitches(); d++ {
			if s != d {
				demands = append(demands, traffic.Demand{Src: int32(s), Dst: int32(d), Rate: 1})
			}
		}
	}
	for _, degraded := range []bool{false, true} {
		var mask *topo.FailureMask
		if degraded {
			mask = topo.NewFailureMask(tp)
			degradeSteps(tp, mask)
		}
		net := NewDegradedNetwork(tp, mask)
		want := []*DemandLoads{ComputeLoads(net, paths.CompileDegraded(tp, pol, mask), demands)}
		for name, base := range map[string]paths.Policy{"store": paths.CompileDegraded(tp, full, mask), "interpreted": full} {
			walk, err := NewGridWalk(net, base, []paths.Policy{pol})
			if err != nil {
				t.Fatal(err)
			}
			requireFolds(t, fmt.Sprintf("degraded=%v over %s", degraded, name), walk, demands, want)
		}
		for name, base := range unkeyedBases(tp, mask, [][]traffic.Demand{demands}) {
			walk, err := NewGridWalk(net, base, []paths.Policy{full})
			if err != nil {
				t.Fatal(err)
			}
			requireFolds(t, fmt.Sprintf("degraded=%v one policy over %s", degraded, name), walk, demands,
				[]*DemandLoads{ComputeLoads(net, base, demands)}, []*DemandLoads{naiveLoads(net, base, demands)})
		}
	}
}
