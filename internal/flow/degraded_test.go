package flow

import (
	"math"
	"testing"

	"tugal/internal/paths"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// requireSameMatrix pins two matrices row by row over every pair:
// edge ids, bit-level weights, hop averages and availability.
func requireBitIdenticalMatrix(t *testing.T, name string, want, got *LoadMatrix) {
	t.Helper()
	n := want.n
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if want.Has(s, d) != got.Has(s, d) {
				t.Fatalf("%s: pair (%d,%d): Has %v vs %v", name, s, d, got.Has(s, d), want.Has(s, d))
			}
			wm, wmh := want.MinRow(s, d)
			gm, gmh := got.MinRow(s, d)
			requireSameRow(t, name, "min", s, d, wm, gm)
			if math.Float64bits(wmh) != math.Float64bits(gmh) {
				t.Fatalf("%s: pair (%d,%d): min hops %v vs %v", name, s, d, gmh, wmh)
			}
			wv, wvh, wok := want.VlbRow(s, d)
			gv, gvh, gok := got.VlbRow(s, d)
			requireSameRow(t, name, "vlb", s, d, wv, gv)
			if math.Float64bits(wvh) != math.Float64bits(gvh) || wok != gok {
				t.Fatalf("%s: pair (%d,%d): vlb hops/ok (%v,%v) vs (%v,%v)", name, s, d, gvh, gok, wvh, wok)
			}
		}
	}
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
// from the matrix and from the map-based naiveLoads agree bit-for-bit,
// demands
// with no surviving MIN ride VLB only, dead-endpoint demands are
// unservable, and both solvers return finite positive throughput.
func TestDegradedLoadsAndSolvers(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := topo.NewFailureMask(tp)
	degradeSteps(tp, mask)
	deadSw := tp.SwitchID(tp.G-1, 0)

	degNet := NewDegradedNetwork(tp, mask)
	degStore := paths.CompileDegraded(tp, paths.Full{T: tp}, mask)
	lm := CompileLoadMatrix(degNet, degStore, nil)

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

	dlA := ComputeLoads(degNet, degStore, demands, LoadOptions{Enumerate: true, Matrix: lm})
	requireSameLoads(t, naiveLoads(degNet, degStore, demands), dlA)

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

	sym := SolveSymmetric(dlA)
	if !(sym.Alpha > 0) || math.IsInf(sym.Alpha, 0) || math.IsNaN(sym.Alpha) {
		t.Fatalf("symmetric alpha = %v", sym.Alpha)
	}
	res, err := SolveLP(dlA)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Alpha > 0) || math.IsInf(res.Alpha, 0) || math.IsNaN(res.Alpha) {
		t.Fatalf("LP alpha = %v", res.Alpha)
	}
	// The per-demand LP can never do worse than the shared split.
	if res.Alpha < sym.Alpha-1e-9 {
		t.Fatalf("LP alpha %v below symmetric %v", res.Alpha, sym.Alpha)
	}
}

// TestDegradedGridMatchesMatrix pins the grid path: a MatrixGrid over
// a degraded store and network derives the same matrix as the direct
// compile of the policy's own degraded store, empty MIN rows included,
// and so does the interpreted policy on the degraded network — the
// Alive filter preserves enumeration order.
func TestDegradedGridMatchesMatrix(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := topo.NewFailureMask(tp)
	degradeSteps(tp, mask)

	degNet := NewDegradedNetwork(tp, mask)
	degStore := paths.CompileDegraded(tp, paths.Full{T: tp}, mask)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7}

	grid := NewMatrixGrid(degNet, degStore, nil)
	got, ok := grid.Compile(pol)
	if !ok {
		t.Fatal("grid rejected a KeyedFilter policy")
	}
	want := CompileLoadMatrix(degNet, paths.CompileDegraded(tp, pol, mask), nil)
	requireBitIdenticalMatrix(t, "grid", want, got)
	requireBitIdenticalMatrix(t, "interpreted", want, CompileLoadMatrix(degNet, pol, nil))
}
