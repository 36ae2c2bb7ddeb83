package paths

import (
	"fmt"
	"slices"
	"strings"
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
	removed := NewIDSet(st.NumPaths())
	// Mark every third path of a few pairs.
	marked := 0
	n := tp.NumSwitches()
	for s := 0; s < 4; s++ {
		for d := 0; d < n; d++ {
			first, count := st.PairRange(s, d)
			for i := 0; i < count; i += 3 {
				removed.Add(first + PathID(i))
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
				if !removed.Has(first + PathID(i)) {
					want = append(want, materializeID(st, s, d, first+PathID(i)))
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
// link per group pair, parallel links, the second family): the word
// read off the stored ports must be the built path's, and DropMask's
// verdict Contains' under every word
// policy; and Strategic — whose table lists its 5-letter words — must
// agree with the slice-building legSplits definition.
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
		drops := make([]IDSet, len(filters))
		for i, pol := range filters {
			drops[i] = base.DropMask(pol)
		}
		n := tp.NumSwitches()
		fiveHop := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				first, count := base.PairRange(s, d)
				for k := 0; k < count; k++ {
					id := first + PathID(k)
					p := materializeID(base, s, d, id)
					if globals(tp, unpack(base.Ports(s, d, id))) != globals(tp, p.Ports) {
						t.Fatalf("%s pair (%d,%d) path %d: stored and built words differ", tp.Label(), s, d, k)
					}
					for i, pol := range filters {
						want := pol.Contains(s, d, p)
						if drops[i].Has(id) == want {
							t.Fatalf("%s %s pair (%d,%d) path %d: DropMask disagrees with Contains",
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
// DropMask, then the one Without copy — identical in pair index and
// bits to the policy's own enumerating compile, at 1, 2 and 8 workers, for every policy shape (an Explicit
// checks its removals on each admitted path's key), pristine and
// masked, from a full store compiled under the mask and from the
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
						if !sameStore(got, want) || got.Mask() != mask {
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
// the pristine store; a grown mask derives a new store.
func TestCompileDegradedPassesThrough(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := degradedMask(tp)
	st := CompileDegraded(tp, Full{T: tp}, mask)
	filtered := CompileDegraded(tp, Compile(tp, Full{T: tp}), mask)
	for _, st := range []*Store{st, filtered} {
		for _, m := range []*topo.FailureMask{mask, mask.Clone(), nil} {
			got, ok := Compiled(exec.Default(), tp, st, m)
			if !ok || got != st || CompileDegraded(tp, st, m) != st {
				t.Fatalf("store under %v recompiled for mask %v", st.Mask(), m)
			}
		}
		if st.Mask() != mask {
			t.Fatalf("pass-through moved the store: mask %v", st.Mask())
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

// readStore returns st's paths as a hop array and a port arena,
// MaxVLBHops slots a path, read pair by pair (Store.PairPorts): the form
// naiveCompile gives its reference in.
func readStore(st *Store) ([]uint8, []int8) {
	hops, ports := make([]uint8, st.NumPaths()), make([]int8, st.NumPaths()*MaxVLBHops)
	for s := 0; s < st.n; s++ {
		for d := 0; d < st.n; d++ {
			st.PairPorts(s, d, func(id PathID, x uint64) {
				hops[id] = uint8(PackedHops(x))
				for i := range MaxVLBHops {
					ports[int(id)*MaxVLBHops+i] = int8(x >> (8 * i))
				}
			})
		}
	}
	return hops, ports
}

// sameStore reports whether two stores of one topology hold the same
// pair index and the same bits, so the same offsets and paths. The
// pristine full set keeps no bits: with the same pair index, the other
// store keeps every path of every pair.
func sameStore(a, b *Store) bool {
	return slices.Equal(a.pairStart, b.pairStart) && (a.keep == nil || b.keep == nil || slices.Equal(a.keep, b.keep))
}

// unpack returns packed ports (Store.Ports) as a port sequence.
func unpack(ports uint64) []int8 {
	var out []int8
	for ; ports != 0; ports >>= 8 {
		out = append(out, int8(ports))
	}
	return out
}

// naiveCompile is the enumerate-then-append store compile the package
// shipped before its walked compile, over the naive enumeration: the
// byte-level reference for pairStart, hops and ports.
func naiveCompile(t *topo.Compiled, pol Policy, mask *topo.FailureMask) (pairStart []int32, hops []uint8, ports []int8) {
	ref := naiveCompileAll(t, []Policy{pol}, mask)[0]
	return ref.pairStart, ref.hops, ref.ports
}

// naiveRef is one policy's naiveCompile reference.
type naiveRef struct {
	pairStart []int32
	hops      []uint8
	ports     []int8
}

// naiveCompileAll is naiveCompile for several policies under one mask,
// from one naive enumeration of each pair.
func naiveCompileAll(t *topo.Compiled, pols []Policy, mask *topo.FailureMask) []naiveRef {
	n := t.NumSwitches()
	refs := make([]naiveRef, len(pols))
	hmax := 0
	for i, pol := range pols {
		refs[i].pairStart = make([]int32, n*n+1)
		hmax = max(hmax, hopCap(pol))
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			for i := range refs {
				refs[i].pairStart[s*n+d] = int32(len(refs[i].hops))
			}
			for _, p := range naiveEnumerateVLBMax(t, s, d, hmax) {
				if !Alive(mask, p) {
					continue
				}
				for i, pol := range pols {
					if pol.Contains(s, d, p) {
						ref := &refs[i]
						ref.hops = append(ref.hops, uint8(p.Hops()))
						base := len(ref.ports)
						ref.ports = append(ref.ports, make([]int8, MaxVLBHops)...)
						copy(ref.ports[base:], p.Ports)
					}
				}
			}
		}
	}
	for i := range refs {
		refs[i].pairStart[n*n] = int32(len(refs[i].hops))
	}
	return refs
}

// hopCap is the longest hop count pol, a word policy or an Explicit
// over one, admits a path of: the longest paths naiveCompile lists.
func hopCap(pol Policy) int {
	root, _ := unwrap(pol)
	w, ok := WordsOf(root)
	h := MaxVLBHops
	for ; ok && h > 0; h-- {
		if c, uniform := w.length(h); !uniform || c != admitNone {
			break
		}
	}
	return h
}

// degradedMask fails one global link, one local link and one switch.
func degradedMask(t *topo.Compiled) *topo.FailureMask {
	m := topo.NewFailureMask(t)
	for _, sc := range failSteps() {
		sc.step(t, m)
	}
	return m
}

// TestCompileWorkers pins the row-parallel compile to the naive
// sequential reference — pair index, and the paths read back as a hop
// array and port arena — and its bits identical at 1, 2 and 8
// workers, for every policy shape, pristine and under a failure mask.
func TestCompileWorkers(t *testing.T) {
	for _, tp := range oracleTopos() {
		for _, mask := range []*topo.FailureMask{nil, degradedMask(tp)} {
			pols := storePolicies(tp)
			refs := naiveCompileAll(tp, pols, mask)
			for i, pol := range pols {
				name := fmt.Sprintf("%s/%s/pristine", tp.Label(), pol.Name())
				if mask != nil {
					name = fmt.Sprintf("%s/%s/%v", tp.Label(), pol.Name(), mask)
				}
				t.Run(name, func(t *testing.T) {
					pairStart, hops, ports := refs[i].pairStart, refs[i].hops, refs[i].ports
					var one *Store
					for _, workers := range []int{1, 2, 8} {
						old := exec.SetDefault(exec.NewPool(workers))
						st := CompileDegraded(tp, pol, mask)
						exec.SetDefault(old)
						if !slices.Equal(st.pairStart, pairStart) {
							t.Fatalf("%d workers: pair index differs from the reference", workers)
						}
						if one == nil {
							one = st
							stHops, stPorts := readStore(st)
							if !slices.Equal(stHops, hops) {
								t.Fatalf("%d workers: hop array differs from the reference", workers)
							}
							if !slices.Equal(stPorts, ports) {
								t.Fatalf("%d workers: port arena differs from the reference", workers)
							}
						} else if !sameStore(st, one) {
							t.Fatalf("%d workers: bits differ from 1 worker's", workers)
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

// TestWalkerMatchesStore holds the interpreted walk, which joins legs
// it builds per source and intermediate, to the same policy's compiled
// store, each path materialized from its Ports: the same paths of every
// pair, in order, pristine and under a failure mask, with one walk
// moving from source to source as the load-balance feed moves it.
func TestWalkerMatchesStore(t *testing.T) {
	for _, tp := range oracleTopos() {
		if tp.NumSwitches() > 48 {
			continue
		}
		for _, mask := range []*topo.FailureMask{nil, degradedMask(tp)} {
			for _, pol := range storePolicies(tp) {
				interp := newPolicyWalk(tp, pol, mask, -1, nil)
				st := CompileDegraded(tp, pol, mask)
				var q Path
				for s := 0; s < tp.NumSwitches(); s++ {
					for d := 0; d < tp.NumSwitches(); d++ {
						first, count := st.PairRange(s, d)
						k := 0
						interp.v.from(s)
						interp.paths(d, func(p Path) {
							if k < count {
								st.materialize(s, st.Ports(s, d, first+PathID(k)), &q)
							}
							if k >= count || !p.Equal(q) {
								t.Fatalf("%s %s mask %v pair (%d,%d) path %d: %v interpreted, %v stored (%d stored)", tp.Label(), pol.Name(), mask, s, d, k, p, q, count)
							}
							k++
						})
						if k != count {
							t.Fatalf("%s %s mask %v pair (%d,%d): %d paths interpreted, %d stored", tp.Label(), pol.Name(), mask, s, d, k, count)
						}
					}
				}
			}
		}
	}
}

// TestCompileRefusesPathIDOverflow covers a policy whose counted size
// does not fit the PathID space: the compile must return no store and
// the counted total. An instance that really holds 2^31
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

// TestExplicitOverStore: the walk of an Explicit whose base is a Store,
// or an Explicit under another (a LegWalk), admits the base's stored
// range less the keys its wrappers remove: what it admits over the
// interpreted base, join for join, with the same keys.
func TestExplicitOverStore(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	capped := LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7}
	inner := thinned(tp, capped)
	outer := NewExplicit(inner)
	outer.Remove(capped.Enumerate(0, tp.NumSwitches()-1)[0])
	onStore := NewExplicit(NewExplicit(Compile(tp, capped)))
	onStore.Base.(*Explicit).Removed = inner.Removed
	onStore.Removed = outer.Removed
	wa, wb := NewLegWalk(tp, outer, nil, 1<<5), NewLegWalk(tp, onStore, nil, 1<<5)
	for s := 0; s < tp.NumSwitches(); s++ {
		for d := 0; d < tp.NumSwitches(); d++ {
			if a, b := legWalkRecord(wa, s, d), legWalkRecord(wb, s, d); !slices.EqualFunc(a, b, slices.Equal[[]uint64]) {
				t.Fatalf("pair (%d,%d): the walk over the store differs from the one over the policy", s, d)
			}
		}
	}
}

// TestCompileExplicitOverStore: an Explicit over a Store — what
// Rebalance returns with the adjustment off, and what a rebalanced
// candidate is wrapped in — compiles, pristine and under a mask, over
// the arithmetic full store, a masked full store and stores that keep
// bits (a fractional set, pristine and masked: the offsets cases), whether the compile's mask
// is the store's or a larger one: per pair the store holds the
// Explicit's Enumerate less the paths the compile's mask kills, in
// order; it carries that mask; and EstimatePaths is no less than its
// size.
func TestCompileExplicitOverStore(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := degradedMask(tp)
	capped := LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7}
	for _, c := range []struct {
		name        string
		base        *Store
		compileMask *topo.FailureMask
	}{
		{"full", Compile(tp, Full{T: tp}), nil},
		{"full/masked", CompileDegraded(tp, Full{T: tp}, mask), mask},
		{"full/then-masked", Compile(tp, Full{T: tp}), mask},
		{"offsets", Compile(tp, capped), nil},
		{"offsets/masked", CompileDegraded(tp, capped, mask), mask},
		{"offsets/then-masked", Compile(tp, capped), mask},
	} {
		t.Run(c.name, func(t *testing.T) {
			ex := NewExplicit(thinned(tp, c.base))
			ex.Remove(c.base.Enumerate(1, tp.NumSwitches()-1)[0])
			st, ok := Compiled(exec.Default(), tp, ex, c.compileMask)
			if !ok {
				t.Fatal("the Explicit over a store did not compile")
			}
			if !sameDead(st.Mask(), c.compileMask) {
				t.Fatalf("the store carries mask %v, the compile's is %v", st.Mask(), c.compileMask)
			}
			if est := EstimatePaths(tp, ex); est < int64(st.NumPaths()) {
				t.Fatalf("EstimatePaths %d below the compiled %d paths", est, st.NumPaths())
			}
			for s := 0; s < tp.NumSwitches(); s++ {
				for d := 0; d < tp.NumSwitches(); d++ {
					var want []Path
					for _, p := range ex.Enumerate(s, d) {
						if Alive(c.compileMask, p) {
							want = append(want, p)
						}
					}
					if got := st.Enumerate(s, d); !slices.EqualFunc(got, want, Path.Equal) {
						t.Fatalf("pair (%d,%d): the compile holds %d paths, the Explicit's live ones are %d", s, d, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestRankSelectOracle holds the bit reads of a store that is not the
// full set to a naive scan of its bits: select (nth, a PathID's offset)
// and rank (ones, an offset's PathID). On bit sets mixing random, empty
// and full words it checks ones over every window and nth at every
// place; on stores it checks, pair by pair, the pair's place in the full
// set against the summed counts of the pairs before it, its PathID
// count, every PathID's offset and ports, and every offset's rank. The
// stores are g17's full set thinned by such words — inter-group pairs of
// 480 paths, whose windows start anywhere in a word, in-group pairs of
// A-2, empty pairs (s = d) and the last pair, which ends in the set's
// last, partial word, with no bit set past it — and a strategic set
// compiled under a mask on dfly(2,4,2,5).
func TestRankSelectOracle(t *testing.T) {
	r := rng.New(52)
	mixed := func(words int) IDSet {
		b := make(IDSet, words)
		for i := range b {
			switch r.Intn(3) {
			case 0:
				b[i] = r.Uint64()
			case 1:
				b[i] = ^uint64(0)
			}
		}
		return b
	}
	b := mixed(6)
	n := 64*len(b) - 13
	var places []int // the set's places below n, ascending
	for i := range n {
		if b.Has(PathID(i)) {
			places = append(places, i)
		}
	}
	for lo := 0; lo <= n; lo++ {
		from, _ := slices.BinarySearch(places, lo)
		for hi := lo; hi <= n; hi++ {
			to, _ := slices.BinarySearch(places, hi)
			if got := b.ones(lo, hi); got != to-from {
				t.Fatalf("ones(%d, %d) = %d, scan %d", lo, hi, got, to-from)
			}
			if got := IDSet(nil).ones(lo, hi); got != hi-lo {
				t.Fatalf("nil ones(%d, %d) = %d", lo, hi, got)
			}
		}
		for k, p := range places[from:] {
			if got := b.nth(lo, k); got != p {
				t.Fatalf("nth(%d, %d) = %d, scan %d", lo, k, got, p)
			}
		}
	}
	g17 := topo.MustNew(4, 8, 4, 17)
	full := Compile(g17, Full{T: g17})
	drop := mixed(len(NewIDSet(full.NumPaths())))
	drop[len(drop)-1] = 0 // the last word's paths kept: no bit past them may be
	thinned := full.Without(drop)
	g5 := topo.MustNew(2, 4, 2, 5)
	for _, c := range []struct {
		st   *Store
		rows []int
	}{
		{thinned, []int{0, 1, 37, g17.NumSwitches() - 1}},
		{CompileDegraded(g5, Strategic{T: g5, FirstLeg: 2}, degradedMask(g5)), []int{0, 5, g5.NumSwitches() - 1}},
	} {
		st := c.st
		if st.keep == nil || st.NumPaths() == 0 {
			t.Fatalf("%s keeps %d paths in %d words", st.Name(), st.NumPaths(), len(st.keep))
		}
		for _, s := range c.rows {
			at := 0
			for pi := range s * st.n {
				at += st.set.count(pi/st.n, pi%st.n)
			}
			for d := 0; d < st.n; d++ {
				count := st.set.count(s, d)
				if got := st.set.start(s, d); got != at {
					t.Fatalf("%s pair (%d,%d): place %d in the full set, counts before it %d", st.Name(), s, d, got, at)
				}
				first, kept := st.PairRange(s, d)
				var offs []int // the pair's kept offsets, by scan
				for o := range count {
					if got := PathID(st.keep.ones(at, at+o)) + first; got != first+PathID(len(offs)) {
						t.Fatalf("%s pair (%d,%d) offset %d: rank %d, scan %d", st.Name(), s, d, o, got, first+PathID(len(offs)))
					}
					if st.keep.Has(PathID(at + o)) {
						offs = append(offs, o)
					}
				}
				if kept != len(offs) {
					t.Fatalf("%s pair (%d,%d): %d PathIDs, %d bits set", st.Name(), s, d, kept, len(offs))
				}
				for k, o := range offs {
					id := first + PathID(k)
					if got := st.offset(s, d, id); got != o {
						t.Fatalf("%s pair (%d,%d) path %d: offset %d, scan %d", st.Name(), s, d, id, got, o)
					}
					if st.Ports(s, d, id) != st.set.path(s, d, o) {
						t.Fatalf("%s pair (%d,%d) path %d: ports are not offset %d's", st.Name(), s, d, id, o)
					}
				}
				at += count
			}
		}
		if last := st.set.start(st.n-1, st.n-1); int64(last) != fullPaths(st.T) || st.keep.ones(last, 64*len(st.keep)) != 0 {
			t.Fatalf("%s: the full set ends at %d of %d, with bits set past it", st.Name(), last, fullPaths(st.T))
		}
	}
}

// TestCompiledDecisions pins what Compiled decides for the 31 Table-1
// points and strategic 2 and 3, in that order ('1': it compiles), on
// the topologies the paper and the harness use: a set's bits, one per
// path of its full set, change no decision there. Compiled itself runs
// where it refuses and on dfly(2,4,2,5); elsewhere its decision, fits,
// is read without the compile. A set whose paths fit the budget but
// whose bits do not is refused: dfly(1,16,34,3) <=3-hop (~1.8M paths,
// 217 MiB of bits).
func TestCompiledDecisions(t *testing.T) {
	for _, c := range []struct {
		tp   *topo.Compiled
		want string
	}{
		{topo.MustNew(4, 8, 4, 9), strings.Repeat("1", 33)},
		{topo.MustNew(4, 8, 4, 17), strings.Repeat("1", 33)},
		{topo.MustNew(2, 4, 2, 5), strings.Repeat("1", 33)},
		{topo.MustNew(4, 8, 4, 33), strings.Repeat("1", 23) + strings.Repeat("0", 8) + "11"},
		{topo.MustNewD3(12, 4, 1), strings.Repeat("1", 33)},
		{topo.MustNew(13, 26, 13, 27), strings.Repeat("0", 33)},
	} {
		got := ""
		for _, pol := range append(table1(c.tp), Strategic{T: c.tp, FirstLeg: 2}, Strategic{T: c.tp, FirstLeg: 3}) {
			ok := fits(c.tp, pol, nil, DefaultCompileBudget)
			if !ok || c.tp.NumSwitches() <= 20 {
				st, compiled := Compiled(exec.Default(), c.tp, pol, nil)
				if compiled != ok || compiled != (st != nil) {
					t.Fatalf("%s %s: Compiled says %v, fits %v", c.tp.Label(), pol.Name(), compiled, ok)
				}
			}
			got += map[bool]string{false: "0", true: "1"}[ok]
		}
		if got != c.want {
			t.Errorf("%s: decisions %s, want %s", c.tp.Label(), got, c.want)
		}
	}
	wide := topo.MustNew(1, 16, 34, 3)
	pol := LengthCapped{T: wide, MaxHops: 3}
	if est := EstimatePaths(wide, pol); est > DefaultCompileBudget {
		t.Fatalf("%s %s: about %d paths, over the budget before its bits count", wide.Label(), pol.Name(), est)
	}
	if st, ok := Compiled(exec.Default(), wide, pol, nil); ok || st != nil {
		t.Fatalf("%s %s: compiled, with %d MiB of bits", wide.Label(), pol.Name(), fullPaths(wide)>>23)
	}
	if _, ok := TryCompile(wide, pol, DefaultCompileBudget); ok {
		t.Fatalf("%s %s: TryCompile compiled it", wide.Label(), pol.Name())
	}
}
