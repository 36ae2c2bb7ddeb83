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

// matrixPolicies lists the policy shapes the matrix must reproduce:
// interpreted (Full, LengthCapped with a fractional tier, Strategic)
// and compiled (Store) forms.
func matrixPolicies(tp *topo.Compiled) map[string]paths.Policy {
	return map[string]paths.Policy{
		"full":         paths.Full{T: tp},
		"capped":       paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7},
		"strategic":    paths.Strategic{T: tp, FirstLeg: 2},
		"full-store":   paths.Compile(tp, paths.Full{T: tp}),
		"capped-store": paths.Compile(tp, paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7}),
		"empty-of-vlb": paths.LengthCapped{T: tp, MaxHops: 1, Seed: 1},
	}
}

// requireSameLoads pins two DemandLoads row by row: edges, weights,
// hop averages and VLB availability must match exactly.
func requireSameLoads(t *testing.T, want, got *DemandLoads) {
	t.Helper()
	for i := range want.Demands {
		if want.VlbOK[i] != got.VlbOK[i] {
			t.Fatalf("demand %d: VlbOK %v vs %v", i, got.VlbOK[i], want.VlbOK[i])
		}
		if want.MinHops[i] != got.MinHops[i] || want.VlbHops[i] != got.VlbHops[i] {
			t.Fatalf("demand %d: hops (%v,%v) vs (%v,%v)", i,
				got.MinHops[i], got.VlbHops[i], want.MinHops[i], want.VlbHops[i])
		}
		for _, rows := range [][2]SparseVec{{want.Min[i], got.Min[i]}, {want.Vlb[i], got.Vlb[i]}} {
			if len(rows[0]) != len(rows[1]) {
				t.Fatalf("demand %d: row length %d vs %d", i, len(rows[1]), len(rows[0]))
			}
			for k := range rows[0] {
				if rows[0][k] != rows[1][k] {
					t.Fatalf("demand %d entry %d: %v vs %v", i, k, rows[1][k], rows[0][k])
				}
			}
		}
	}
}

// naiveLoads is the map-based per-demand row builder ComputeLoads
// shipped before it shared rowEnv with the matrix compile: every
// candidate enumerated and Alive-filtered in order, each row summed in
// a fresh map[Edge]float64 and sorted at the end. It shares nothing
// with rowEnv or edgeAcc, so it is the independent reference for both.
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

// TestLoadMatrixMatchesComputeLoads pins ComputeLoads — the matrix
// row-gather and the per-demand rowEnv build — against the map-based
// naiveLoads, bit for bit, on interpreted and compiled policies.
func TestLoadMatrixMatchesComputeLoads(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	pats := []traffic.Deterministic{
		traffic.Shift{T: tp, DG: 1, DS: 0},
		traffic.Shift{T: tp, DG: 2, DS: 1},
		traffic.NewGroupPermutation(tp, 11),
	}
	for name, pol := range matrixPolicies(tp) {
		lm := CompileLoadMatrix(net, pol, nil)
		if lm.Pairs() != tp.NumSwitches()*(tp.NumSwitches()-1) {
			t.Fatalf("%s: compiled %d pairs", name, lm.Pairs())
		}
		for _, pat := range pats {
			demands := traffic.SwitchDemands(tp, pat)
			want := naiveLoads(net, pol, demands)
			requireSameLoads(t, want, ComputeLoads(net, pol, demands, LoadOptions{Enumerate: true}))
			got := ComputeLoads(net, pol, demands, LoadOptions{Enumerate: true, Matrix: lm})
			requireSameLoads(t, want, got)

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

// requireSameMatrix pins two LoadMatrices pair by pair: coverage, VLB
// and MIN rows, hop averages and availability must match exactly.
func requireSameMatrix(t *testing.T, name string, tp *topo.Compiled, want, got *LoadMatrix) {
	t.Helper()
	if got.Pairs() != want.Pairs() {
		t.Fatalf("%s: %d pairs vs %d", name, got.Pairs(), want.Pairs())
	}
	n := tp.NumSwitches()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if want.Has(s, d) != got.Has(s, d) {
				t.Fatalf("%s: Has(%d,%d) mismatch", name, s, d)
			}
			if !want.Has(s, d) {
				continue
			}
			wv, wh, wok := want.VlbRow(s, d)
			gv, gh, gok := got.VlbRow(s, d)
			if wok != gok || wh != gh || len(wv) != len(gv) {
				t.Fatalf("%s (%d,%d): row shape differs", name, s, d)
			}
			for k := range wv {
				if wv[k] != gv[k] {
					t.Fatalf("%s (%d,%d) entry %d: %v vs %v", name, s, d, k, gv[k], wv[k])
				}
			}
			wm, wmh := want.MinRow(s, d)
			gm, gmh := got.MinRow(s, d)
			if wmh != gmh || len(wm) != len(gm) {
				t.Fatalf("%s (%d,%d): min row shape differs", name, s, d)
			}
			for k := range wm {
				if wm[k] != gm[k] {
					t.Fatalf("%s (%d,%d) min entry %d differs", name, s, d, k)
				}
			}
		}
	}
}

// TestMatrixGrid: matrices derived from the per-path edge/key cache
// must reproduce direct compilation bit for bit for every
// KeyedFilter policy, refuse the rest, and honor the budget gate.
func TestMatrixGrid(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	base := paths.Compile(tp, paths.Full{T: tp})
	pairs := PatternPairs(tp, []traffic.Deterministic{
		traffic.Shift{T: tp, DG: 1, DS: 0},
		traffic.NewGroupPermutation(tp, 5),
	})
	for _, pairSet := range [][][2]int32{nil, pairs} {
		grid := NewMatrixGrid(net, base, pairSet)
		if grid.Paths() == 0 || grid.Bytes() == 0 || grid.BuildTime() <= 0 {
			t.Fatalf("degenerate grid: %d paths %d bytes", grid.Paths(), grid.Bytes())
		}
		keyed := 0
		for name, pol := range matrixPolicies(tp) {
			got, ok := grid.Compile(pol)
			if _, isKeyed := pol.(paths.KeyedFilter); !isKeyed {
				if ok {
					t.Fatalf("%s: grid compiled a non-KeyedFilter policy", name)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: grid refused a KeyedFilter policy", name)
			}
			keyed++
			want := CompileLoadMatrix(net, pol, pairSet)
			requireSameMatrix(t, name, tp, want, got)
		}
		if keyed < 2 {
			t.Fatalf("only %d KeyedFilter policies exercised", keyed)
		}
	}

	// The budget gate is exact: one cached path costs a little over
	// two 16-byte entries, so a one-entry budget must refuse and an
	// unlimited one must not.
	if _, ok := TryNewMatrixGrid(net, base, pairs, 1); ok {
		t.Fatal("grid compiled under a 1-entry budget")
	}
	if _, ok := TryNewMatrixGrid(net, base, pairs, 0); !ok {
		t.Fatal("grid refused an unlimited budget")
	}
	// core.step1 has no rung between the grid and a per-pair compile: a
	// store inside the compile budget must always fit the grid's.
	if paths.DefaultCompileBudget*(gridStride*4+9) > DefaultMatrixBudget*16 {
		t.Fatal("a store within paths.DefaultCompileBudget can exceed the grid's share of DefaultMatrixBudget")
	}
}

// TestLoadMatrixPartialPairsFallback: a matrix restricted to one
// pattern's pairs serves that pattern and falls back per demand for
// pairs it never compiled.
func TestLoadMatrixPartialPairsFallback(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	pol := paths.Full{T: tp}
	inside := traffic.Shift{T: tp, DG: 1, DS: 0}
	outside := traffic.Shift{T: tp, DG: 3, DS: 1}
	lm := CompileLoadMatrix(net, pol, PatternPairs(tp, []traffic.Deterministic{inside}))
	if lm.Pairs() == 0 || lm.Pairs() >= tp.NumSwitches()*(tp.NumSwitches()-1) {
		t.Fatalf("unexpected pair coverage %d", lm.Pairs())
	}
	miss := 0
	for _, pat := range []traffic.Deterministic{inside, outside} {
		demands := traffic.SwitchDemands(tp, pat)
		for _, d := range demands {
			if !lm.Has(int(d.Src), int(d.Dst)) {
				miss++
			}
		}
		want := naiveLoads(net, pol, demands)
		got := ComputeLoads(net, pol, demands, LoadOptions{Enumerate: true, Matrix: lm})
		requireSameLoads(t, want, got)
	}
	if miss == 0 {
		t.Fatal("outside pattern did not exercise the fallback")
	}
}

// TestLoadMatrixBudget: a zero-entry budget refuses compilation, an
// ample one accepts, and the estimate overestimates the real size.
func TestLoadMatrixBudget(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	pol := paths.Full{T: tp}
	if _, ok := TryCompileLoadMatrix(net, pol, nil, 1); ok {
		t.Fatal("1-entry budget accepted")
	}
	lm, ok := TryCompileLoadMatrix(net, pol, nil, 0)
	if !ok {
		t.Fatal("unlimited budget refused")
	}
	n := tp.NumSwitches()
	est := EstimateMatrixEntries(net, pol, n*(n-1))
	// Inter-group rows dominate; the scaled-max estimate must cover
	// the true arena.
	if real := int64(len(lm.minArena) + len(lm.vlbArena)); est < real/2 {
		t.Fatalf("estimate %d far below real %d", est, real)
	}
	if lm.Bytes() <= 0 || lm.BuildTime() <= 0 {
		t.Fatal("missing compile stats")
	}
}

// TestAverageModeledWorkerDeterminism: the parallel pattern fan-out
// (with its auto-compiled matrix) must reproduce the sequential
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

// BenchmarkLoadMatrix measures one matrix compilation over a Step-1
// pattern suite's pair union on the paper's g=9 topology.
func BenchmarkLoadMatrix(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	net := NewNetwork(tp)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 1}
	pairs := PatternPairs(tp, append(traffic.Type1Set(tp), traffic.Type2Set(tp, 20, 1)...))
	b.ReportAllocs()
	b.ResetTimer()
	var lm *LoadMatrix
	for i := 0; i < b.N; i++ {
		lm = CompileLoadMatrix(net, pol, pairs)
	}
	b.ReportMetric(float64(lm.Bytes())/(1<<20), "MiB")
	b.ReportMetric(float64(lm.Pairs()), "pairs")
}

// BenchmarkMatrixGrid measures deriving one grid point's matrix from
// the per-path edge/key cache on g=9 — the steady-state per-point
// compile cost of a Step-1 probe (the cache itself is built once,
// outside the loop).
func BenchmarkMatrixGrid(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	net := NewNetwork(tp)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 1}
	pairs := PatternPairs(tp, append(traffic.Type1Set(tp), traffic.Type2Set(tp, 20, 1)...))
	base := paths.Compile(tp, paths.Full{T: tp})
	grid := NewMatrixGrid(net, base, pairs)
	b.ReportAllocs()
	b.ResetTimer()
	var lm *LoadMatrix
	for i := 0; i < b.N; i++ {
		var ok bool
		if lm, ok = grid.Compile(pol); !ok {
			b.Fatal("grid refused a KeyedFilter policy")
		}
	}
	b.ReportMetric(float64(grid.Bytes())/(1<<20), "grid-MiB")
	b.ReportMetric(float64(lm.Pairs()), "pairs")
}

// BenchmarkAverageModeled measures the per-data-point quantity of
// Step 1 — the full pattern-suite average on g=9 — with the matrix
// compiled once outside the loop (the steady-state eval rate).
func BenchmarkAverageModeled(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	net := NewNetwork(tp)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 1}
	pats := append(traffic.Type1Set(tp), traffic.Type2Set(tp, 20, 1)...)
	opt := DefaultModelOptions()
	opt.Loads.Matrix = CompileLoadMatrix(net, pol, PatternPairs(tp, pats))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AverageModeled(tp, pol, pats, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pats))*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}
