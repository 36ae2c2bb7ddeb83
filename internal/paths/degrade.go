package paths

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"tugal/internal/exec"
	"tugal/internal/topo"
)

// edgeIndex is the per-channel reverse index over a store's arena: for
// every directed channel, the deduplicated list of pair indices
// (s*n+d) whose compiled paths cross it. A failure then dirties
// exactly the pairs listed under its dead channels, which is what lets
// route.Tables.ApplyDelta re-emit a handful of rows instead of the
// whole table. CSR layout over the channel index
// topo.Compiled.PeerDense and FailureMask.DeadDense share; pair lists
// are in ascending order.
type edgeIndex struct {
	nonTerm int // non-terminal ports per switch: a-1+h
	start   []int32
	pairs   []int32
}

// BuildEdgeIndex builds the reverse index over the arena if it is not
// already present. Call it once before the store is shared: like
// compilation, it is a single-writer operation, and building it ahead
// of time keeps the first failure's latency down to the dirty-pair
// work alone.
//
// The build is count -> prefix-sum -> fill over chunks of source-switch
// rows on the default pool. A pair belongs to one chunk and chunks are
// laid out in row order under every channel, so the CSR is the same at
// any worker count.
func (st *Store) BuildEdgeIndex() {
	if st.idx != nil {
		return
	}
	h := newHopTable(st.T)
	nch := h.nch
	pool := exec.Default()
	chunks := min(pool.Workers(), st.n)
	// walk reports each (channel, pair) incidence of chunk c's rows
	// once, pairs ascending: a pair's paths mark the channels they cross,
	// and the marks below nch (the rest are switch slots) are visited.
	walk := func(c int, visit func(ch int, pi int32)) {
		mark := make([]uint8, (nch+st.n+7)&^7)
		var hc [4][MaxVLBHops]int32
		lo, hi := c*st.n/chunks, (c+1)*st.n/chunks // the chunk's rows, as RunRows splits them
		for pi := lo * st.n; pi < hi*st.n; pi++ {
			first, end := int(st.pairStart[pi]), int(st.pairStart[pi+1])
			for id := first; id < end; id += 4 {
				h.step(st.ports, pi/st.n, id, end-1, &hc)
				for k := range hc {
					p := &hc[k]
					mark[p[0]], mark[p[1]], mark[p[2]], mark[p[3]], mark[p[4]], mark[p[5]] = 1, 1, 1, 1, 1, 1
				}
			}
			for i := 0; i < len(mark); i += 8 {
				for w := binary.LittleEndian.Uint64(mark[i:]); w != 0; w &= w - 1 {
					if ch := i + bits.TrailingZeros64(w)/8; ch < nch {
						visit(ch, int32(pi))
					}
				}
				binary.LittleEndian.PutUint64(mark[i:], 0)
			}
		}
	}
	// at[c*nch+ch]: chunk c's incidence count under channel ch, turned
	// by the prefix sum into where the chunk writes them.
	at := make([]int32, chunks*nch)
	pool.RunRows("paths/index-count", chunks, func(c int) {
		cnt := at[c*nch : (c+1)*nch]
		walk(c, func(ch int, _ int32) { cnt[ch]++ })
	})
	idx := &edgeIndex{nonTerm: st.T.A - 1 + st.T.H, start: make([]int32, nch+1)}
	total := int32(0)
	for ch := 0; ch < nch; ch++ {
		idx.start[ch] = total
		for c := 0; c < chunks; c++ {
			at[c*nch+ch], total = total, total+at[c*nch+ch]
		}
	}
	idx.start[nch] = total
	idx.pairs = make([]int32, total)
	pool.RunRows("paths/index-fill", chunks, func(c int) {
		cur := at[c*nch : (c+1)*nch]
		walk(c, func(ch int, pi int32) {
			idx.pairs[cur[ch]] = pi
			cur[ch]++
		})
	})
	st.idx = idx
}

// DirtyPairs returns the (src, dst) pairs with a stored path across
// any of the given channels, deduplicated, in channel order and
// ascending pair order under each channel. It is the one definition of
// which pairs a failure delta dirties: route.Tables.ApplyDelta
// refilters these rows. The edge index is built on first use
// (single-writer, like BuildEdgeIndex).
func (st *Store) DirtyPairs(chs []topo.Channel) [][2]int32 {
	st.BuildEdgeIndex()
	var out [][2]int32
	seen := make([]bool, st.n*st.n)
	for _, ch := range chs {
		sw, port := int(ch.Sw), int(ch.Port)-st.T.P
		if sw < 0 || sw >= st.n || port < 0 || port >= st.idx.nonTerm {
			continue // no such switch, or a terminal channel: no stored path uses it
		}
		chID := sw*st.idx.nonTerm + port
		for _, pi := range st.idx.pairs[st.idx.start[chID]:st.idx.start[chID+1]] {
			if !seen[pi] {
				seen[pi] = true
				out = append(out, [2]int32{pi / int32(st.n), pi % int32(st.n)})
			}
		}
	}
	return out
}

// sameDead reports whether two masks describe one degraded topology:
// the same mask, or equal failure counts over the same dead channels.
func sameDead(a, b *topo.FailureMask) bool {
	if a == b || a == nil || b == nil {
		return a == b
	}
	ag, al, as := a.Counts()
	bg, bl, bs := b.Counts()
	return ag == bg && al == bl && as == bs && slices.Equal(a.DeadDense(), b.DeadDense())
}

// degradedStore is the *Store case of the two functions below: a store
// already compiled under mask passes through; any other is filtered —
// a row-parallel MaskWalk mark of the stored paths that cross a dead
// channel of mask, then the compaction Without does — into a new store
// that keeps st's name, conventional flag and label. mask must include
// every failure st was compiled under.
func degradedStore(st *Store, mask *topo.FailureMask) *Store {
	if mask == nil || sameDead(st.mask, mask) {
		return st
	}
	start := time.Now()
	w := NewMaskWalk(st.T, mask)
	drop := make([]bool, st.NumPaths())
	exec.Default().RunRows("paths/degrade", st.n, func(s int) {
		lo, hi := st.pairStart[s*st.n], st.pairStart[(s+1)*st.n]
		w.MarkDead(st, s, PathID(lo), int(hi-lo), drop[lo:hi])
	})
	out := st.Without(drop)
	out.Label, out.name, out.full, out.mask = st.Label, st.name, st.full, mask
	out.buildTime = time.Since(start)
	return out
}

// Compile materializes pol into an immutable Store: the same path set
// per pair (in Enumerate order), with O(1) allocation-free sampling.
// Compilation enumerates every pair — go through Compiled on topologies
// whose path count may exceed memory.
func Compile(t *topo.Compiled, pol Policy) *Store { return CompileDegraded(t, pol, nil) }

// CompileDegraded compiles pol on t with every path crossing a dead
// channel of mask excluded. A pol that already is a Store is filtered,
// not enumerated again, and passes through when it was compiled under
// the same dead set.
func CompileDegraded(t *topo.Compiled, pol Policy, mask *topo.FailureMask) *Store {
	if st, ok := pol.(*Store); ok {
		return degradedStore(st, mask)
	}
	st, total := compileStore(t, pol, mask, pathIDSpace)
	if st == nil {
		panic(fmt.Sprintf("paths: %s on %s has %d paths, more than the int32 PathID space holds",
			pol.Name(), t.Label(), total))
	}
	return st
}

// TryCompileDegraded is TryCompile under a failure mask (nil: none):
// ok=false when the estimated pristine size exceeds the budget (the
// degraded set is never larger) or the counted size overflows the
// PathID space.
func TryCompileDegraded(t *topo.Compiled, pol Policy, budget int64, mask *topo.FailureMask) (*Store, bool) {
	if st, ok := pol.(*Store); ok {
		return degradedStore(st, mask), true
	}
	if budget > 0 && EstimatePaths(t, pol) > budget {
		return nil, false
	}
	st, _ := compileStore(t, pol, mask, pathIDSpace)
	return st, st != nil
}

// Compiled is the one place the interpreted/compiled choice is made:
// pol as a Store under mask (nil: none) when it fits
// DefaultCompileBudget, the build reported to pool's observer as
// compile/<name>; ok=false when it does not, and the caller keeps the
// interpreted policy — the Figure 13/14 topology stays interpreted by
// design. A Store already under mask passes through unreported.
func Compiled(pool *exec.Pool, t *topo.Compiled, pol Policy, mask *topo.FailureMask) (*Store, bool) {
	st, ok := TryCompileDegraded(t, pol, DefaultCompileBudget, mask)
	if ok && Policy(st) != pol {
		pool.Report(exec.Stat{Label: "compile/" + st.Name(), Wall: st.BuildTime(), Bytes: st.Bytes()})
	}
	return st, ok
}
