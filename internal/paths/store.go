package paths

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
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
// the interpreted form. The pristine full set keeps no bits; every other
// set keeps one per path of the full set, whatever it keeps, and they
// may take 4 bytes a budgeted path, 36 MiB (fits). The budget covers
// every simulated topology of the paper (dfly(4,8,4,9) full VLB is ~4.1M
// paths, 0.49 MiB of bits; dfly(4,8,4,17) ~8.4M; restricted T-VLB sets
// are far smaller) while refusing the modeled-only dfly(4,8,4,33) (~17M)
// and the giant dfly(13,26,13,27), tens of billions of paths.
const DefaultCompileBudget int64 = 9 << 20

// pathIDSpace is the largest path count a Store can index: PathID and
// pairStart are int32, and a set's bits are placed in its full set.
const pathIDSpace = math.MaxInt32

// Store is the compiled, immutable form of a Policy on one topology: a
// per-ordered-pair index of contiguous PathID ranges over the pairs'
// paths. Every path is one of its pair's full VLB set, which is
// arithmetic over the topology's MIN legs (fullSet), so a Store keeps
// no ports: a PathID is an offset in its pair's full range. The
// pristine full set keeps every path and so nothing; every other set — a
// policy's compile, a masked one, a cut by Without — keeps one bit per
// path of the full set, a pair's from its place there, and a
// PathID is its pair's k-th set bit. A point read selects a bit; a
// reader of a whole pair joins its legs where the bits are set. Switch
// sequences are re-derived when a path is materialized.
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
	keep      IDSet // the kept paths of the full set; nil: every one
	set       *fullSet
	buildTime time.Duration

	mask *topo.FailureMask // compiled under (nil: pristine)
}

// IDSet is a set of a Store's PathIDs, one bit each: a drop mask
// (DropMask, Without); or of its full set's places, nil holding all.
type IDSet []uint64

// NewIDSet returns an empty set over n PathIDs.
func NewIDSet(n int) IDSet { return make(IDSet, (n+63)/64) }

// Has reports whether id is in the set.
func (b IDSet) Has(id PathID) bool { return b[id>>6]&(1<<(id&63)) != 0 }

// Add puts id in the set.
func (b IDSet) Add(id PathID) { b[id>>6] |= 1 << (id & 63) }

// holds reports whether place i is in the set.
func (b IDSet) holds(i int) bool { return b == nil || b[i>>6]&(1<<(i&63)) != 0 }

// ones counts the places in [lo, hi) in the set: a rank.
func (b IDSet) ones(lo, hi int) int {
	if b == nil {
		return hi - lo
	}
	c := 0
	for w := lo >> 6; w < hi>>6; w++ {
		c += bits.OnesCount64(b[w])
	}
	if lo&63 != 0 {
		c -= bits.OnesCount64(b[lo>>6] & (1<<(lo&63) - 1))
	}
	if hi&63 != 0 {
		c += bits.OnesCount64(b[hi>>6] & (1<<(hi&63) - 1))
	}
	return c
}

// nth returns the k-th place (from 0) at or after lo in the set, not
// nil, which holds more than k there: a select.
func (b IDSet) nth(lo, k int) int {
	w := lo >> 6
	x := b[w] & (^uint64(0) << (lo & 63))
	for c := bits.OnesCount64(x); k >= c; c = bits.OnesCount64(x) {
		k -= c
		w++
		x = b[w]
	}
	for ; k > 0; k-- {
		x &= x - 1
	}
	return w<<6 + bits.TrailingZeros64(x)
}

// rowBits adds one row task's ascending PathIDs to a shared IDSet a word
// at a time, each word ORed in atomically: the rows before and after it
// may share its first and last words.
type rowBits struct {
	set  IDSet
	word int
	acc  uint64
}

func (r *rowBits) add(id PathID) {
	if w := int(id >> 6); w != r.word {
		r.flush()
		r.word = w
	}
	r.acc |= 1 << (id & 63)
}

// flush ORs in the word being built; a row task ends with it.
func (r *rowBits) flush() {
	for r.acc != 0 {
		w := &r.set[r.word]
		if old := atomic.LoadUint64(w); atomic.CompareAndSwapUint64(w, old, old|r.acc) {
			r.acc = 0
		}
	}
}

// compile is compileStore with the PathID space as its limit, save that
// an Explicit over a Store is walked under the store's mask, the mask
// its bits are joins under, and then filtered by mask (degradedStore).
// pol is not a Store. A full set past the PathID space has no store: its
// count is the second result.
func compile(t *topo.Compiled, pol Policy, mask *topo.FailureMask) (*Store, int64) {
	if total := fullPaths(t); total > pathIDSpace {
		return nil, total
	}
	if base := storeOf(pol); base != nil {
		st, total := compileStore(t, pol, base.mask, pathIDSpace)
		return degradedStore(st, mask), total
	}
	return compileStore(t, pol, mask, pathIDSpace)
}

// index builds the pair index from the bits: each pair's count of them,
// prefix-summed.
func (st *Store) index() {
	nn := st.n * st.n
	st.pairStart = make([]int32, nn+1)
	for pi, lo := 0, 0; pi < nn; pi++ {
		hi := lo + st.set.count(pi/st.n, pi%st.n) // the pairs' windows tile the full set
		st.pairStart[pi+1] = st.pairStart[pi] + int32(st.keep.ones(lo, hi))
		lo = hi
	}
}

// offset returns PathID id's offset in its pair (s, d).
func (st *Store) offset(s, d int, id PathID) int {
	k := int(id - PathID(st.pairStart[s*st.n+d]))
	if st.keep == nil {
		return k
	}
	at := st.set.start(s, d)
	return st.keep.nth(at, k) - at
}

// Ports returns the out-ports of path id of pair (s, d), one byte a
// hop, hop 0 lowest and zero past its hops (PackedHops counts them),
// decoded from the ID's offset in the pair. With the source switch they
// identify the path.
func (st *Store) Ports(s, d int, id PathID) uint64 {
	return st.set.path(s, d, st.offset(s, d, id))
}

// PairPorts calls fn with each stored path of pair (s, d) in PathID
// order and its Ports: per intermediate its stored paths pass, it builds
// the MIN legs, K into it and K out of it, and joins them where its
// bits are set.
func (st *Store) PairPorts(s, d int, fn func(id PathID, ports uint64)) {
	id, _ := st.PairRange(s, d)
	st.set.each(s, d, id, st.keep, st.set.start(s, d), fn)
}

// FirstPorts calls fn, in order of first appearance, with each port the
// stored paths of pair (s, d) leave their source by and how many of them
// do. Over the pristine full set a path's first port is its first leg's,
// which does not depend on the intermediate's place in its group, so
// each of the K legs toward a group counts once, for its A·K paths.
func (st *Store) FirstPorts(s, d int, fn func(port int8, paths int)) {
	var count [128]int // by port; a port is below the radix
	var order [128]int8
	k := 0
	add := func(p int8, n int) {
		if count[p] == 0 {
			order[k] = p
			k++
		}
		count[p] += n
	}
	if st.keep == nil {
		st.set.firstPorts(s, d, add)
	} else {
		st.PairPorts(s, d, func(_ PathID, ports uint64) { add(int8(ports), 1) })
	}
	for _, p := range order[:k] {
		fn(p, count[p])
	}
}

// Mask returns the failure mask the store was compiled under (nil for
// pristine stores).
func (st *Store) Mask() *topo.FailureMask { return st.mask }

// compileStore compiles pol under mask (nil: the pristine topology).
// Full on the pristine topology is the full set itself and walks no
// path. Any other set is one walk over source-switch rows on the default
// pool, its legs from one table (newLegTable) with their liveness under
// mask: each admitted join sets its bit, at the pair's place plus the
// join's among all the pair's joins, dead ones counted (rows may share a
// word: rowBits), and the pair index is the bits' popcounts prefix-summed
// (index). Per-pair order is the full VLB order filtered by pol and
// aliveness — the sequence filtering an already compiled store by the
// same mask leaves (degradedStore), which is what makes the two
// identical.
//
// The second result is the counted total. When it exceeds limit (the
// PathID space, for every caller but the overflow test) the store is
// nil. The full set must fit the PathID space (compile).
func compileStore(t *topo.Compiled, pol Policy, mask *topo.FailureMask, limit int64) (*Store, int64) {
	start := time.Now()
	n := t.NumSwitches()
	_, isFull := pol.(Full)
	st := &Store{T: t, name: pol.Name(), full: isFull, n: n, mask: mask, set: newFullSet(t)}
	if !isFull || mask != nil {
		st.keep = NewIDSet(int(fullPaths(t)))
		legs := newLegTable(t, mask)
		exec.Default().RunRows("paths/compile", n, func(s int) {
			w := newPolicyWalk(t, pol, mask, s, legs)
			marks := rowBits{set: st.keep, word: -1}
			for d := 0; d < n; d++ {
				o := PathID(st.set.start(s, d))
				w.pair(d, func(_, _ []Leg, in []bool, _ []uint64) {
					for _, x := range in {
						if x {
							marks.add(o)
						}
						o++
					}
				})
			}
			marks.flush()
		})
	}
	st.index()
	st.buildTime = time.Since(start)
	if total := int64(st.NumPaths()); total > limit {
		return nil, total
	}
	return st, int64(st.NumPaths())
}

// EstimatePaths predicts the total path count of a compiled store
// without compiling it, by exact intra-group arithmetic plus a few
// sampled inter-group pair enumerations scaled to the pair count.
// The estimate is a mild overestimate (it scales by the largest
// sampled pair), which is the safe direction for a budget check. A
// Store, or an Explicit over one, is its stored count.
func EstimatePaths(t *topo.Compiled, pol Policy) int64 {
	if st := storeOf(pol); st != nil {
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
	w := newPolicyWalk(t, pol, nil, s, nil)
	for _, gi := range []int{1, t.G / 2, t.G - 1} {
		if gi <= 0 {
			continue
		}
		cnt := int64(0)
		w.visit(t.SwitchID(gi, t.A/2), func(*Leg, *Leg) { cnt++ })
		if cnt > perPair {
			perPair = cnt
		}
	}
	return total + interPairs*perPair
}

// TryCompile compiles pol into a Store when it fits the budget (<=0
// means unlimited) and its counted size fits the PathID space; ok=false
// leaves the interpreted policy in charge. A policy that already is a
// Store passes through.
func TryCompile(t *topo.Compiled, pol Policy, budget int64) (*Store, bool) {
	if st, ok := pol.(*Store); ok {
		return st, true
	}
	if !fits(t, pol, nil, budget) {
		return nil, false
	}
	st, _ := compile(t, pol, nil)
	return st, st != nil
}

// fits reports whether pol on t under mask fits budget (<=0: no limit):
// its estimated paths do and, but for the pristine full set, which keeps
// nothing, so do its bits, one a full-set path, at 4 B a budgeted path.
func fits(t *topo.Compiled, pol Policy, mask *topo.FailureMask, budget int64) bool {
	_, full := pol.(Full)
	return budget <= 0 || EstimatePaths(t, pol) <= budget && (full && mask == nil || fullPaths(t)/8 <= 4*budget)
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
func (st *Store) NumPaths() int { return int(st.pairStart[st.n*st.n]) }

// PairRange returns the pair's first PathID and path count.
func (st *Store) PairRange(s, d int) (PathID, int) {
	first := st.pairStart[s*st.n+d]
	return PathID(first), int(st.pairStart[s*st.n+d+1] - first)
}

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

// materialize builds the path out of src over packed ports into dst.
func (st *Store) materialize(src int, ports uint64, dst *Path) {
	dst.Sw = append(dst.Sw[:0], int32(src))
	dst.Ports = dst.Ports[:0]
	cur := src
	for ; ports != 0; ports >>= 8 {
		pt := int8(ports)
		next, ok := st.T.PeerOfPortOK(cur, int(pt))
		if !ok {
			break // corrupt ports; stored ports are always wired
		}
		cur = next
		dst.Sw = append(dst.Sw, int32(cur))
		dst.Ports = append(dst.Ports, pt)
	}
}

// SampleVLBInto implements Policy: one RNG draw, then materialize.
func (st *Store) SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool {
	id, ok := st.SampleID(r, s, d)
	if !ok {
		return false
	}
	st.materialize(s, st.Ports(s, d, id), dst)
	return true
}

// Enumerate implements Policy, materializing the pair's range in
// compiled (= the source policy's Enumerate) order.
func (st *Store) Enumerate(s, d int) []Path {
	var out []Path
	st.PairPorts(s, d, func(_ PathID, ports uint64) {
		var p Path
		st.materialize(s, ports, &p)
		out = append(out, p)
	})
	return out
}

// Contains implements Policy by scanning the pair's range; the port
// sequence (with the shared source switch) identifies a path fully.
func (st *Store) Contains(s, d int, p Path) bool {
	want, in := Packed(p.Ports), false
	st.PairPorts(s, d, func(_ PathID, ports uint64) { in = in || ports == want })
	return in
}

// DropMask marks, by PathID, the paths of st, a store of the full set,
// that pol, a word policy or an Explicit over one, does not admit. Every
// policy's per-pair order is the full VLB order filtered, so
// st.Without(st.DropMask(pol)) is pol compiled under st's mask. The
// store is read as the compile's walk reads it: pol's walk under st's
// mask with its legs from one table, whose live joins are st's paths in
// order (a full store holds exactly its live joins). No path is built.
// Rows run over row chunks on the default pool.
func (st *Store) DropMask(pol Policy) IDSet {
	if !st.full {
		panic(fmt.Sprintf("paths: DropMask: %s is not the full VLB set", st.Name()))
	}
	drop := NewIDSet(st.NumPaths())
	legs := newLegTable(st.T, st.mask)
	exec.Default().RunRows("paths/drop-mask", st.n, func(s int) {
		w := newPolicyWalk(st.T, pol, st.mask, s, legs)
		marks := rowBits{set: drop, word: -1}
		for d := 0; d < st.n; d++ {
			id, count := st.PairRange(s, d)
			end := id + PathID(count)
			w.pair(d, func(first, second []Leg, in []bool, _ []uint64) {
				next := id
				for i := range first {
					if !first[i].alive {
						continue
					}
					for j, x := range in[i*len(second) : (i+1)*len(second)] {
						if second[j].alive {
							if !x {
								marks.add(next)
							}
							next++
						}
					}
				}
				id = next
			})
			if id != end {
				panic(fmt.Sprintf("paths: pair (%d, %d) holds %d paths, the walk under its mask took %d", s, d, count, count-int(end-id)))
			}
		}
		marks.flush()
	})
	return drop
}

// Without returns the store less the paths whose PathID is in removed
// (a set over NumPaths), reading no topology: keep &^ removed on the
// pristine full set, whose PathIDs are its places, and otherwise one
// pass mapping st's PathIDs through its bits. It is how the Step-2
// balance adjustment removes paths from a compiled store, and the only
// copy a candidate cut out of the full store gets: a bit a full-set path.
func (st *Store) Without(removed IDSet) *Store {
	start := time.Now()
	out := &Store{T: st.T, n: st.n, mask: st.mask, set: st.set, keep: NewIDSet(int(fullPaths(st.T)))}
	id := PathID(0) // st's first PathID in word i of its bits
	for i := range out.keep {
		if st.keep == nil {
			out.keep[i] = ^removed[i]
			continue
		}
		for w := st.keep[i]; w != 0; w &= w - 1 {
			if !removed.Has(id) {
				out.keep[i] |= w & -w
			}
			id++
		}
	}
	if r := fullPaths(st.T) & 63; r != 0 {
		out.keep[len(out.keep)-1] &= 1<<r - 1 // past the full set
	}
	out.index()
	out.buildTime = time.Since(start)
	out.name = fmt.Sprintf("%s-minus-%d", st.name, st.NumPaths()-out.NumPaths())
	return out
}

// Bytes reports the resident size of the store: the bits, the pair
// index and the full set's tables.
func (st *Store) Bytes() int64 {
	return 8*int64(len(st.keep)) + 4*int64(len(st.pairStart)) + st.set.bytes()
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

// Stats computes the store's summary statistics, the hop histogram
// from each pair's read (PairPorts).
func (st *Store) Stats() StoreStats {
	s := StoreStats{Paths: st.NumPaths(), Bytes: st.Bytes(), BuildTime: st.buildTime}
	for pi := 0; pi < st.n*st.n; pi++ {
		if st.pairStart[pi+1] > st.pairStart[pi] {
			s.Pairs++
		}
		st.PairPorts(pi/st.n, pi%st.n, func(_ PathID, ports uint64) { s.HopHist[PackedHops(ports)]++ })
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
