package paths

import (
	"fmt"
	"math"
	"time"

	"tugal/internal/exec"
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// PathID indexes one compiled path inside a Store. IDs of a
// (src, dst) pair are contiguous, so uniform sampling over a pair's
// candidate set is a single bounded RNG draw.
type PathID int32

// DefaultCompileBudget caps, in total paths, how large a policy the
// analysis layers will compile into a Store before falling back to
// the interpreted form. ~9.4M paths is ~65 MiB of arena — it covers
// every simulated topology of the paper (dfly(4,8,4,9) full VLB is
// ~4.1M paths, dfly(4,8,4,17) ~8.4M; restricted T-VLB sets are far
// smaller) while refusing the modeled-only dfly(4,8,4,33) (~17M)
// and the giant dfly(13,26,13,27), whose full set is tens of
// billions of paths.
const DefaultCompileBudget int64 = 9 << 20

// pathIDSpace is the largest path count a Store can index: PathID and
// pairStart are int32.
const pathIDSpace = math.MaxInt32

// Store is the compiled, immutable form of a Policy on one topology:
// a flat arena of per-hop out-ports (stride MaxVLBHops, no per-path
// slices) plus a per-ordered-pair index of contiguous PathID ranges.
// Switch sequences are not stored — they are re-derived from the
// source switch and the port sequence when a path is materialized,
// which keeps the arena at MaxVLBHops+1 bytes per path.
//
// A Store is strictly read-only after Compile returns. That is the
// sharing contract with internal/exec: one Store is built per
// scheme and handed to every cloned routing function on the worker
// pool with no synchronization, and routing.CloneRouting copies only
// the pointer.
type Store struct {
	T *topo.Compiled
	// Label overrides the derived name in experiment output.
	Label string

	name      string // the compiled policy's Name()
	full      bool   // compiled from the conventional all-VLB policy
	n         int    // switches; the pair index is s*n+d
	pairStart []int32
	hops      []uint8
	ports     []int8 // flat arena, MaxVLBHops entries per path
	buildTime time.Duration

	mask *topo.FailureMask // compiled under (nil: pristine)
	idx  *edgeIndex        // BuildEdgeIndex's reverse index, nil until built
}

// portsOf returns a path's slot in the port arena (stride MaxVLBHops).
func (st *Store) portsOf(id PathID) []int8 {
	return st.ports[int(id)*MaxVLBHops : (int(id)+1)*MaxVLBHops]
}

// Mask returns the failure mask the store was compiled under (nil for
// pristine stores).
func (st *Store) Mask() *topo.FailureMask { return st.mask }

// compileStore compiles pol under mask (nil: the pristine topology)
// as count -> prefix-sum -> fill over source-switch rows. The count
// pass walks every pair with a policyWalk (bounded by the policy's hop
// cap) and leaves its number of admitted paths in pairStart; the prefix
// sum turns those into PathID ranges and sizes hops/ports exactly; the
// fill pass repeats the walk, writing each admitted path into its
// final slot. Rows own disjoint arena ranges, so both passes run over
// row chunks on the default pool and the arenas are byte-identical at
// any worker count. Per-pair order is the policy's Enumerate order
// filtered by aliveness — the sequence filtering an already compiled
// store by the same mask leaves (degradedStore), which is what makes
// the two byte-identical.
//
// The second result is the counted total. When it exceeds limit (the
// PathID space, for every caller but the overflow test) the store is
// nil and no arena has been allocated.
func compileStore(t *topo.Compiled, pol Policy, mask *topo.FailureMask, limit int64) (*Store, int64) {
	start := time.Now()
	n := t.NumSwitches()
	_, isFull := pol.(Full)
	st := &Store{T: t, name: pol.Name(), full: isFull, n: n, mask: mask}
	st.pairStart = make([]int32, n*n+1)
	pool := exec.Default()
	pool.RunRows("paths/count", n, func(s int) {
		w := newPolicyWalk(t, pol, mask, s)
		for d := 0; d < n; d++ {
			cnt := int32(0)
			w.visit(d, func(Path) { cnt++ })
			st.pairStart[s*n+d+1] = cnt
		}
	})
	total := int64(0)
	for pi := 1; pi <= n*n; pi++ {
		total += int64(st.pairStart[pi])
		st.pairStart[pi] = int32(total)
	}
	if total > limit {
		return nil, total
	}
	st.hops = make([]uint8, total)
	st.ports = make([]int8, total*MaxVLBHops)
	pool.RunRows("paths/fill", n, func(s int) {
		w := newPolicyWalk(t, pol, mask, s)
		id := int(st.pairStart[s*n])
		for d := 0; d < n; d++ {
			w.visit(d, func(p Path) {
				st.hops[id] = uint8(len(p.Ports))
				copy(st.ports[id*MaxVLBHops:], p.Ports)
				id++
			})
		}
		if id != int(st.pairStart[(s+1)*n]) {
			panic(fmt.Sprintf("paths: %s admitted different path sets for switch %d on the count and fill passes", pol.Name(), s))
		}
	})
	st.buildTime = time.Since(start)
	return st, total
}

// hopCap returns an upper bound on the hop count of any path the
// policy admits, used to prune compilation-time enumeration.
func hopCap(pol Policy) int {
	switch p := pol.(type) {
	case LengthCapped:
		c := p.MaxHops
		if p.Frac > 0 {
			c++
		}
		if c > MaxVLBHops {
			c = MaxVLBHops
		}
		return c
	case Strategic:
		return 5
	case *Explicit:
		return hopCap(p.Base)
	}
	return MaxVLBHops
}

// EstimatePaths predicts the total path count of a compiled store
// without compiling it, by exact intra-group arithmetic plus a few
// sampled inter-group pair enumerations scaled to the pair count.
// The estimate is a mild overestimate (it scales by the largest
// sampled pair), which is the safe direction for a budget check.
func EstimatePaths(t *topo.Compiled, pol Policy) int64 {
	if st, ok := pol.(*Store); ok {
		return int64(st.NumPaths())
	}
	n := int64(t.NumSwitches())
	a, g := int64(t.A), int64(t.G)
	intraPerPair := a - 2
	if intraPerPair < 0 {
		intraPerPair = 0
	}
	total := g * a * (a - 1) * intraPerPair
	interPairs := n*(n-1) - g*a*(a-1)
	if interPairs <= 0 {
		return total
	}
	perPair := int64(0)
	s := t.SwitchID(0, 0)
	w := newPolicyWalk(t, pol, nil, s)
	for _, gi := range []int{1, t.G / 2, t.G - 1} {
		if gi <= 0 {
			continue
		}
		cnt := int64(0)
		w.visit(t.SwitchID(gi, t.A/2), func(Path) { cnt++ })
		if cnt > perPair {
			perPair = cnt
		}
	}
	return total + interPairs*perPair
}

// TryCompile compiles pol into a Store when its estimated size fits
// the budget (<=0 means unlimited) and its counted size fits the
// PathID space; ok=false leaves the interpreted policy in charge. A
// policy that already is a Store passes through.
func TryCompile(t *topo.Compiled, pol Policy, budget int64) (*Store, bool) {
	return TryCompileDegraded(t, pol, budget, nil)
}

// Name implements Policy.
func (st *Store) Name() string {
	if st.Label != "" {
		return st.Label
	}
	return st.name
}

// NumPaths returns the number of compiled paths, the size of the
// PathID space.
func (st *Store) NumPaths() int { return len(st.hops) }

// PairRange returns the pair's first PathID and path count.
func (st *Store) PairRange(s, d int) (PathID, int) {
	first := st.pairStart[s*st.n+d]
	return PathID(first), int(st.pairStart[s*st.n+d+1] - first)
}

// Hops returns a compiled path's hop count.
func (st *Store) Hops(id PathID) int { return int(st.hops[id]) }

// SampleID draws a uniform PathID from the pair's range: the O(1),
// allocation-free replacement for rejection sampling. ok=false when
// the pair has no candidate (then UGAL degenerates to MIN).
func (st *Store) SampleID(r *rng.Source, s, d int) (PathID, bool) {
	first, count := st.PairRange(s, d)
	if count == 0 {
		return 0, false
	}
	return first + PathID(r.Intn(count)), true
}

// MaterializeInto reconstructs a compiled path into dst's backing
// storage by walking the port sequence from the source switch.
// src must be the path's source (PathIDs do not store it).
func (st *Store) MaterializeInto(src int, id PathID, dst *Path) {
	dst.Sw = append(dst.Sw[:0], int32(src))
	dst.Ports = dst.Ports[:0]
	h := st.Hops(id)
	ports := st.portsOf(id)
	cur := src
	for i := 0; i < h; i++ {
		pt := ports[i]
		next, ok := st.T.PeerOfPortOK(cur, int(pt))
		if !ok {
			break // corrupt arena entry; stored ports are always wired
		}
		cur = next
		dst.Sw = append(dst.Sw, int32(cur))
		dst.Ports = append(dst.Ports, pt)
	}
}

// KeyOf returns the stored path's identity hash — the value
// Materialize(src, id).Key() would compute — by walking the port
// sequence without building the path.
func (st *Store) KeyOf(src int, id PathID) uint64 {
	h := rng.Mix(rng.HashSeed, uint64(int32(src)))
	n := st.Hops(id)
	ports := st.portsOf(id)
	cur := src
	for i := 0; i < n; i++ {
		pt := ports[i]
		h = rng.Mix(h, uint64(uint8(pt)))
		next, ok := st.T.PeerOfPortOK(cur, int(pt))
		if !ok {
			break
		}
		cur = next
		h = rng.Mix(h, uint64(int32(cur)))
	}
	return h
}

// SampleVLBInto implements Policy: one RNG draw, then materialize.
func (st *Store) SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool {
	id, ok := st.SampleID(r, s, d)
	if !ok {
		return false
	}
	st.MaterializeInto(s, id, dst)
	return true
}

// Enumerate implements Policy, materializing the pair's range in
// compiled (= the source policy's Enumerate) order.
func (st *Store) Enumerate(s, d int) []Path {
	first, count := st.PairRange(s, d)
	if count == 0 {
		return nil
	}
	out := make([]Path, count)
	for i := range out {
		st.MaterializeInto(s, first+PathID(i), &out[i])
	}
	return out
}

// Contains implements Policy by scanning the pair's range; the port
// sequence (with the shared source switch) identifies a path fully.
func (st *Store) Contains(s, d int, p Path) bool {
	first, count := st.PairRange(s, d)
	h := p.Hops()
outer:
	for i := 0; i < count; i++ {
		id := first + PathID(i)
		if st.Hops(id) != h {
			continue
		}
		ports := st.portsOf(id)
		for j := 0; j < h; j++ {
			if ports[j] != p.Ports[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// EqualIDs reports whether two compiled paths of the same source
// switch have identical port sequences. The full VLB enumeration can
// emit the same concrete path under two intermediate switches (both
// split points of its middle local hop), so one concrete path may
// hold several PathIDs; removal semantics treat those as one path.
func (st *Store) EqualIDs(a, b PathID) bool {
	h := st.Hops(a)
	if h != st.Hops(b) {
		return false
	}
	pa, pb := st.portsOf(a), st.portsOf(b)
	for i := 0; i < h; i++ {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// Ports returns a compiled path's out-ports, one per hop: a read-only
// view of the arena. With the source switch they identify the path.
func (st *Store) Ports(id PathID) []int8 { return st.portsOf(id)[:st.Hops(id)] }

// DropMask marks, by PathID, the paths of st that pol does not
// admit. Every policy's per-pair order is the full VLB order filtered,
// so on a store of the full set st.Without(st.DropMask(pol)) is
// byte-for-byte pol compiled under st's mask — by a walk over stored
// paths, with no enumeration: through pol's StoredFilter hook when it
// has one, else by materializing into one scratch Path per row. Rows
// own disjoint PathID ranges and run over row chunks on the default
// pool.
func (st *Store) DropMask(pol Policy) []bool {
	drop := make([]bool, st.NumPaths())
	sf, _ := pol.(StoredFilter)
	exec.Default().RunRows("paths/drop-mask", st.n, func(s int) {
		var p Path
		for d := 0; d < st.n; d++ {
			first, count := st.PairRange(s, d)
			for id := first; id < first+PathID(count); id++ {
				if sf != nil {
					drop[id] = !sf.AllowsStored(st, s, d, id)
					continue
				}
				st.MaterializeInto(s, id, &p)
				drop[id] = !pol.Contains(s, d, p)
			}
		}
	})
	return drop
}

// Without returns a compacted copy excluding the paths whose PathID
// is marked in removed (indexed by PathID, len NumPaths), as count ->
// prefix -> exact-size fill. Pair order is preserved. This is how the
// Step-2 balance adjustment expresses its removal set on a compiled
// store, and the only copy a candidate derived from Step 1's store
// ever gets.
func (st *Store) Without(removed []bool) *Store {
	start := time.Now()
	nn := st.n * st.n
	out := &Store{T: st.T, n: st.n, mask: st.mask, pairStart: make([]int32, nn+1)}
	live := 0
	for pi := 0; pi < nn; pi++ {
		for id := st.pairStart[pi]; id < st.pairStart[pi+1]; id++ {
			if !removed[id] {
				live++
			}
		}
		out.pairStart[pi+1] = int32(live)
	}
	out.name = fmt.Sprintf("%s-minus-%d", st.name, len(st.hops)-live)
	out.hops = make([]uint8, live)
	out.ports = make([]int8, live*MaxVLBHops)
	k := 0
	for id, h := range st.hops {
		if !removed[id] {
			out.hops[k] = h
			copy(out.ports[k*MaxVLBHops:], st.portsOf(PathID(id)))
			k++
		}
	}
	out.buildTime = time.Since(start)
	return out
}

// Bytes reports the resident size of the compiled arenas and the
// per-pair index.
func (st *Store) Bytes() int64 {
	return int64(len(st.ports)) + int64(len(st.hops)) + 4*int64(len(st.pairStart))
}

// BuildTime reports how long compilation took.
func (st *Store) BuildTime() time.Duration { return st.buildTime }

// StoreStats summarizes a compiled store for reporting.
type StoreStats struct {
	Pairs     int // ordered pairs with at least one candidate path
	Paths     int
	HopHist   [MaxVLBHops + 1]int
	Bytes     int64
	BuildTime time.Duration
}

// Stats computes the store's summary statistics.
func (st *Store) Stats() StoreStats {
	s := StoreStats{Paths: len(st.hops), Bytes: st.Bytes(), BuildTime: st.buildTime}
	for pi := 0; pi < st.n*st.n; pi++ {
		if st.pairStart[pi+1] > st.pairStart[pi] {
			s.Pairs++
		}
	}
	for _, h := range st.hops {
		s.HopHist[h]++
	}
	return s
}

// IsConventional reports whether pol is the unrestricted
// conventional-UGAL candidate set — paths.Full or a Store compiled
// from it. Routing uses this to decide the "T-" name prefix, so a
// compiled conventional policy is still reported as plain UGAL.
func IsConventional(pol Policy) bool {
	switch p := pol.(type) {
	case Full:
		return true
	case *Store:
		return p.full
	}
	return false
}

// SetLabel overrides the reported name on policies that carry labels
// (Explicit and Store) and returns pol for chaining; other policies
// pass through unchanged.
func SetLabel(pol Policy, label string) Policy {
	switch p := pol.(type) {
	case *Explicit:
		p.Label = label
	case *Store:
		p.Label = label
	}
	return pol
}
