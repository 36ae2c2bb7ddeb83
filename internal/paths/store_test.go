package paths

import (
	"fmt"
	"slices"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// storePolicies builds the interpreted policies the equivalence
// suite compiles: the conventional set, the Table-1 length-capped
// family (with and without a hashed 5-hop fraction), both strategic
// expansions, and a removal-adjusted set.
func storePolicies(t *topo.Compiled) []Policy {
	capped := LengthCapped{T: t, MaxHops: 4, Frac: 0.5, Seed: 7}
	adj := NewExplicit(capped)
	// Remove a few real paths so the Explicit case is non-trivial.
	n := t.NumSwitches()
	for s := 0; s < n && len(adj.Removed) < 5; s++ {
		for d := 0; d < n && len(adj.Removed) < 5; d++ {
			if ps := capped.Enumerate(s, d); len(ps) > 1 {
				adj.Remove(ps[len(ps)/2])
			}
		}
	}
	if t.NumSwitches() > 48 {
		// One policy per shape keeps the g9 cases to seconds.
		return []Policy{Full{T: t}, capped, Strategic{T: t, FirstLeg: 2}, adj}
	}
	return []Policy{
		Full{T: t},
		LengthCapped{T: t, MaxHops: 3},
		capped,
		Strategic{T: t, FirstLeg: 2},
		Strategic{T: t, FirstLeg: 3},
		adj,
	}
}

// TestStoreMatchesInterpreted proves each compiled store reproduces
// its interpreted policy exactly: identical Enumerate sequence per
// pair, Contains agreement on every full-VLB path, and every sample
// drawn from the store is a member of the enumerated set.
func TestStoreMatchesInterpreted(t *testing.T) {
	for _, pr := range []topo.Params{
		{P: 2, A: 4, H: 2, G: 9},
		{P: 2, A: 4, H: 4, G: 3}, // parallel global links (h > g-1)
		{P: 1, A: 2, H: 1, G: 3}, // no intra-group VLB (a < 3)
	} {
		tp := topo.MustNew(pr.P, pr.A, pr.H, pr.G)
		for _, pol := range storePolicies(tp) {
			pol := pol
			t.Run(fmt.Sprintf("dfly(%d,%d,%d,%d)/%s", pr.P, pr.A, pr.H, pr.G, pol.Name()), func(t *testing.T) {
				st := Compile(tp, pol)
				if st.Name() != pol.Name() {
					t.Errorf("store name %q != policy name %q", st.Name(), pol.Name())
				}
				r := rng.New(11)
				n := tp.NumSwitches()
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						want := pol.Enumerate(s, d)
						got := st.Enumerate(s, d)
						if len(got) != len(want) {
							t.Fatalf("pair (%d,%d): store enumerates %d paths, policy %d",
								s, d, len(got), len(want))
						}
						for i := range want {
							if !got[i].Equal(want[i]) {
								t.Fatalf("pair (%d,%d) path %d: store %v != policy %v",
									s, d, i, got[i], want[i])
							}
							if err := ValidateVLB(tp, got[i]); err != nil {
								t.Fatalf("pair (%d,%d) path %d: %v", s, d, i, err)
							}
						}
						// Contains must agree on members and non-members
						// alike; the full VLB set supplies both kinds.
						for _, p := range EnumerateVLB(tp, s, d) {
							if st.Contains(s, d, p) != pol.Contains(s, d, p) {
								t.Fatalf("pair (%d,%d): Contains disagrees on %v", s, d, p)
							}
						}
						// Store draws must land inside the enumerated set
						// (the interpreted rejection sampler's fallback
						// could escape it; the compiled form cannot).
						var buf Path
						for k := 0; k < 20; k++ {
							ok := st.SampleVLBInto(r, s, d, &buf)
							if ok != (len(want) > 0) {
								t.Fatalf("pair (%d,%d): sample ok=%v with %d candidates",
									s, d, ok, len(want))
							}
							if ok && !pol.Contains(s, d, buf) {
								t.Fatalf("pair (%d,%d): sampled %v outside the policy set",
									s, d, buf)
							}
						}
					}
				}
			})
		}
	}
}

// TestStoreSamplingIsUniform checks the single-draw sampler hits
// every candidate of a pair with near-uniform frequency.
func TestStoreSamplingIsUniform(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	st := Compile(tp, Strategic{T: tp, FirstLeg: 2})
	s, d := 0, tp.SwitchID(4, 1)
	first, count := st.PairRange(s, d)
	if count < 2 {
		t.Fatalf("pair has %d candidates; want >= 2", count)
	}
	r := rng.New(3)
	draws := 200 * count
	counts := make([]int, count)
	for i := 0; i < draws; i++ {
		id, ok := st.SampleID(r, s, d)
		if !ok {
			t.Fatal("sample failed")
		}
		counts[id-first]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("candidate %d never drawn in %d draws", i, draws)
		}
		if c > 3*draws/count {
			t.Errorf("candidate %d drawn %d times; expected about %d", i, c, draws/count)
		}
	}
}

// TestStoreWithout checks PathID-indexed removal: the compacted
// store drops exactly the marked paths and keeps pair order.
func TestStoreWithout(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	st := Compile(tp, LengthCapped{T: tp, MaxHops: 4})
	removed := make([]bool, st.NumPaths())
	// Mark every third path of a few pairs.
	marked := 0
	n := tp.NumSwitches()
	for s := 0; s < 4; s++ {
		for d := 0; d < n; d++ {
			first, count := st.PairRange(s, d)
			for i := 0; i < count; i += 3 {
				removed[int(first)+i] = true
				marked++
			}
		}
	}
	out := st.Without(removed)
	if got := st.NumPaths() - out.NumPaths(); got != marked {
		t.Fatalf("Without dropped %d paths; marked %d", got, marked)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			first, count := st.PairRange(s, d)
			var want []Path
			for i := 0; i < count; i++ {
				if !removed[int(first)+i] {
					var p Path
					st.MaterializeInto(s, first+PathID(i), &p)
					want = append(want, p)
				}
			}
			got := out.Enumerate(s, d)
			if len(got) != len(want) {
				t.Fatalf("pair (%d,%d): %d paths after Without, want %d", s, d, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("pair (%d,%d) path %d: got %v want %v", s, d, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStoreSampleIsAllocationFree guards the acceptance criterion at
// the unit level: once the destination buffer has capacity, a store
// draw performs no allocation.
func TestStoreSampleIsAllocationFree(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	st := Compile(tp, Strategic{T: tp, FirstLeg: 2})
	r := rng.New(5)
	buf := Path{Sw: make([]int32, 0, MaxVLBHops+1), Ports: make([]int8, 0, MaxVLBHops)}
	d := tp.SwitchID(5, 2)
	allocs := testing.AllocsPerRun(200, func() {
		st.SampleVLBInto(r, 0, d, &buf)
	})
	if allocs != 0 {
		t.Fatalf("store sample allocates %.1f objects per draw; want 0", allocs)
	}
}

// TestTryCompileBudget checks the budget gate: a generous budget
// compiles, a tiny one refuses, and estimates bound reality.
func TestTryCompileBudget(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := Full{T: tp}
	est := EstimatePaths(tp, pol)
	st, ok := TryCompile(tp, pol, est+1)
	if !ok {
		t.Fatalf("TryCompile refused with budget %d >= estimate %d", est+1, est)
	}
	if int64(st.NumPaths()) > est {
		t.Errorf("estimate %d below actual %d paths (must overestimate)", est, st.NumPaths())
	}
	if _, ok := TryCompile(tp, pol, 1); ok {
		t.Error("TryCompile accepted a 1-path budget")
	}
	// A store passes through regardless of budget.
	if st2, ok := TryCompile(tp, st, 1); !ok || st2 != st {
		t.Error("TryCompile did not pass an existing store through")
	}
}

// TestStoredFilterMatchesContains pins the no-materialization
// membership path on every stored full-VLB path of four instances (one
// link per group pair, parallel links, the second family): KeyOf must
// equal the materialized path's Key, AllowsStored and AllowsKeyed must
// agree with Contains under every filter policy, and Strategic — whose
// Contains tests its one split point in place — must agree with the
// slice-building legSplits definition.
func TestStoredFilterMatchesContains(t *testing.T) {
	for _, tp := range []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5), topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 4, 3), topo.MustNewD3(12, 4, 2),
	} {
		base := Compile(tp, Full{T: tp})
		filters := []Policy{
			Full{T: tp},
			LengthCapped{T: tp, MaxHops: 3},
			LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7},
			Strategic{T: tp, FirstLeg: 2},
			Strategic{T: tp, FirstLeg: 3},
		}
		n := tp.NumSwitches()
		var p Path
		fiveHop := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				first, count := base.PairRange(s, d)
				for k := 0; k < count; k++ {
					id := first + PathID(k)
					base.MaterializeInto(s, id, &p)
					if got := base.KeyOf(s, id); got != p.Key() {
						t.Fatalf("%s pair (%d,%d) path %d: KeyOf %x, materialized Key %x",
							tp.Label(), s, d, k, got, p.Key())
					}
					for _, pol := range filters {
						want := pol.Contains(s, d, p)
						if pol.(StoredFilter).AllowsStored(base, s, d, id) != want {
							t.Fatalf("%s %s pair (%d,%d) path %d: AllowsStored disagrees with Contains",
								tp.Label(), pol.Name(), s, d, k)
						}
						if kf, ok := pol.(KeyedFilter); ok && kf.AllowsKeyed(p.Hops(), p.Key()) != want {
							t.Fatalf("%s %s pair (%d,%d) path %d: AllowsKeyed disagrees with Contains",
								tp.Label(), pol.Name(), s, d, k)
						}
						st, ok := pol.(Strategic)
						if !ok || p.Hops() != 5 {
							continue
						}
						fiveHop++
						oracle := false
						for _, split := range legSplits(tp, p) {
							oracle = oracle || split[0] == st.FirstLeg
						}
						if want != oracle {
							t.Fatalf("%s %s pair (%d,%d) path %d: Contains %v, legSplits says %v",
								tp.Label(), pol.Name(), s, d, k, want, oracle)
						}
					}
				}
			}
		}
		if fiveHop == 0 {
			t.Errorf("%s: no 5-hop path exercised the strategic split", tp.Label())
		}
	}
}

// TestDropMaskWorkers pins a candidate derived from the full store —
// DropMask, then the one Without compaction — byte-identical in pair
// index, hop array and port arena to the policy's own enumerating
// compile, at 1, 2 and 8 workers, for every policy shape (Explicit has
// no stored-filter hook and takes the materializing fallback), pristine
// and masked, from a full store compiled under the mask and from the
// pristine store filtered by it.
func TestDropMaskWorkers(t *testing.T) {
	for _, tp := range oracleTopos() {
		pristine := Compile(tp, Full{T: tp})
		for _, mask := range []*topo.FailureMask{nil, degradedMask(tp)} {
			bases := map[string]*Store{"compiled": CompileDegraded(tp, Full{T: tp}, mask)}
			if mask != nil {
				bases["filtered"] = CompileDegraded(tp, pristine, mask)
			}
			for _, pol := range storePolicies(tp) {
				want := CompileDegraded(tp, pol, mask)
				for kind, base := range bases {
					for _, workers := range []int{1, 2, 8} {
						old := exec.SetDefault(exec.NewPool(workers))
						got := base.Without(base.DropMask(pol))
						exec.SetDefault(old)
						if !slices.Equal(got.pairStart, want.pairStart) || !slices.Equal(got.hops, want.hops) ||
							!slices.Equal(got.ports, want.ports) || got.Mask() != mask {
							t.Fatalf("%s %s mask %v, %s base, %d workers: candidate differs from the policy's compile",
								tp.Label(), pol.Name(), mask, kind, workers)
						}
					}
				}
			}
		}
	}
}

// TestCompileDegradedPassesThrough: a store already compiled under the
// mask — the same one, or another over the same dead set — comes back
// as it is, whether it was enumerated under the mask or filtered from
// the pristine store, and no edge index is built for it; a grown mask
// derives a new store.
func TestCompileDegradedPassesThrough(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := degradedMask(tp)
	st := CompileDegraded(tp, Full{T: tp}, mask)
	filtered := CompileDegraded(tp, Compile(tp, Full{T: tp}), mask)
	for _, st := range []*Store{st, filtered} {
		for _, m := range []*topo.FailureMask{mask, mask.Clone(), nil} {
			got, ok := TryCompileDegraded(tp, st, 1, m)
			if !ok || got != st || CompileDegraded(tp, st, m) != st {
				t.Fatalf("store under %v recompiled for mask %v", st.Mask(), m)
			}
		}
		if st.Mask() != mask || st.idx != nil {
			t.Fatalf("pass-through moved the store: mask %v, index built %v", st.Mask(), st.idx != nil)
		}
	}
	grown := mask.Clone()
	if _, err := grown.FailGlobalLink(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := CompileDegraded(tp, st, grown); got == st || got.NumPaths() >= st.NumPaths() || got.Mask() != grown {
		t.Fatalf("a grown mask did not derive a smaller store under it (%d of %d paths)", got.NumPaths(), st.NumPaths())
	}
}

// naiveCompile is the enumerate-then-append store compile the package
// shipped before count -> fill, over the naive enumeration: the
// byte-level reference for pairStart, hops and ports.
func naiveCompile(t *topo.Compiled, pol Policy, mask *topo.FailureMask) (pairStart []int32, hops []uint8, ports []int8) {
	n := t.NumSwitches()
	pairStart = make([]int32, n*n+1)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			pairStart[s*n+d] = int32(len(hops))
			for _, p := range naiveEnumerateVLBMax(t, s, d, hopCap(pol)) {
				if !pol.Contains(s, d, p) || !Alive(mask, p) {
					continue
				}
				hops = append(hops, uint8(p.Hops()))
				base := len(ports)
				ports = append(ports, make([]int8, MaxVLBHops)...)
				copy(ports[base:], p.Ports)
			}
		}
	}
	pairStart[n*n] = int32(len(hops))
	return pairStart, hops, ports
}

// degradedMask fails one global link, one local link and one switch.
func degradedMask(t *topo.Compiled) *topo.FailureMask {
	m := topo.NewFailureMask(t)
	for _, sc := range failSteps() {
		sc.step(t, m)
	}
	return m
}

// TestCompileWorkers pins the row-parallel compile byte-identical to
// the naive sequential reference — pair index, hop array and port
// arena — at 1, 2 and 8 workers, for every policy shape, pristine and
// under a failure mask.
func TestCompileWorkers(t *testing.T) {
	for _, tp := range oracleTopos() {
		for _, mask := range []*topo.FailureMask{nil, degradedMask(tp)} {
			for _, pol := range storePolicies(tp) {
				name := fmt.Sprintf("%s/%s/pristine", tp.Label(), pol.Name())
				if mask != nil {
					name = fmt.Sprintf("%s/%s/%v", tp.Label(), pol.Name(), mask)
				}
				t.Run(name, func(t *testing.T) {
					pairStart, hops, ports := naiveCompile(tp, pol, mask)
					for _, workers := range []int{1, 2, 8} {
						old := exec.SetDefault(exec.NewPool(workers))
						st := CompileDegraded(tp, pol, mask)
						exec.SetDefault(old)
						if !slices.Equal(st.pairStart, pairStart) {
							t.Fatalf("%d workers: pair index differs from the reference", workers)
						}
						if !slices.Equal(st.hops, hops) {
							t.Fatalf("%d workers: hop array differs from the reference", workers)
						}
						if !slices.Equal(st.ports, ports) {
							t.Fatalf("%d workers: port arena differs from the reference", workers)
						}
						if st.Mask() != mask || st.Name() != pol.Name() {
							t.Fatalf("%d workers: store carries mask %v name %q", workers, st.Mask(), st.Name())
						}
					}
				})
			}
		}
	}
}

// TestCompileRefusesPathIDOverflow covers a policy whose counted size
// does not fit the PathID space: the count pass must stop the compile
// before the arenas are allocated. An instance that really holds 2^31
// paths takes minutes to count, so the test hands compileStore a small
// limit on a small instance instead — the one argument TryCompile* and
// Compile do not choose; they turn its nil store into ok=false and
// into CompileDegraded's panic naming the counted total.
func TestCompileRefusesPathIDOverflow(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	full := Full{T: tp}
	_, hops, _ := naiveCompile(tp, full, nil)
	total := int64(len(hops))
	for _, mask := range []*topo.FailureMask{nil, degradedMask(tp)} {
		// The mask kills far fewer than half the paths.
		if st, n := compileStore(tp, full, mask, total/2); st != nil || n <= total/2 || n > total {
			t.Errorf("mask %v: compileStore = (%v, %d) under limit %d, want no store and the counted total", mask, st, n, total/2)
		}
	}
	// The boundary is inclusive, and a policy that fits is unaffected.
	if st, n := compileStore(tp, full, nil, total); st == nil || n != total || int64(st.NumPaths()) != total {
		t.Errorf("compileStore refused a policy that exactly fills its limit (%d of %d)", n, total)
	}
	if st, _ := compileStore(tp, LengthCapped{T: tp, MaxHops: 3}, nil, total/2); st == nil {
		t.Error("compileStore refused a policy inside its limit")
	}
}
