package paths

import (
	"slices"
	"time"

	"tugal/internal/exec"
	"tugal/internal/topo"
)

// edgeIndex is the per-channel reverse index over a base store's
// arena: for every directed channel, the deduplicated list of pair
// indices (s*n+d) whose compiled paths cross it. A failure then
// dirties exactly the pairs listed under its dead channels, which is
// what lets ApplyFailures recompile a handful of pair ranges instead
// of the whole store. CSR layout over the channel index
// topo.Compiled.PeerDense and FailureMask.DeadDense share; pair lists
// are in ascending order.
type edgeIndex struct {
	nonTerm int // non-terminal ports per switch: a-1+h
	start   []int32
	pairs   []int32
}

// BuildEdgeIndex builds the reverse index over the base arena if it
// is not already present. Call it once before the store is shared:
// like compilation, it is a single-writer operation, and building it
// ahead of time keeps the first failure's latency down to the
// dirty-pair work alone. Overlay stores inherit the base index.
//
// The build is count -> prefix-sum -> fill over chunks of source-switch
// rows on the default pool. A pair belongs to one chunk and chunks are
// laid out in row order under every channel, so the CSR is the same at
// any worker count.
func (st *Store) BuildEdgeIndex() {
	if st.idx != nil {
		return
	}
	t := st.T
	nonTerm := t.A - 1 + t.H
	nch := st.n * nonTerm
	peer := t.PeerDense()
	pool := exec.Default()
	chunks := min(pool.Workers(), st.n)
	// walk reports each (channel, pair) incidence of chunk c's rows
	// once, pairs ascending. It mirrors MaterializeInto: the switch
	// sequence is re-derived from the source switch and the port arena.
	walk := func(c int, visit func(ch int, pi int32)) {
		last := make([]int32, nch)
		for i := range last {
			last[i] = -1
		}
		lo, hi := c*st.n/chunks, (c+1)*st.n/chunks // the chunk's rows, as RunRows splits them
		for pi := lo * st.n; pi < hi*st.n; pi++ {
			s := pi / st.n
			for id := st.pairStart[pi]; id < st.pairStart[pi+1]; id++ {
				cur := s
				base := int(id) * MaxVLBHops
				for h := int(st.hops[id]); h > 0; h-- {
					ch := cur*nonTerm + int(st.ports[base]) - t.P
					if last[ch] != int32(pi) {
						last[ch] = int32(pi)
						visit(ch, int32(pi))
					}
					cur = int(peer[ch])
					base++
				}
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
	idx := &edgeIndex{nonTerm: nonTerm, start: make([]int32, nch+1)}
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

// DirtyPairs returns the (src, dst) pairs with a base-arena path across
// any of the given channels, deduplicated, in channel order and
// ascending pair order under each channel. It is the one definition of
// which pairs a failure delta dirties: ApplyFailures refilters these
// ranges and route.Tables.ApplyDelta these rows. The edge index is
// built on first use (single-writer, like BuildEdgeIndex).
func (st *Store) DirtyPairs(chs []topo.Channel) [][2]int32 {
	st.BuildEdgeIndex()
	var out [][2]int32
	seen := make([]bool, st.n*st.n)
	for _, ch := range chs {
		chID := int(ch.Sw)*st.idx.nonTerm + int(ch.Port) - st.T.P
		if chID < 0 || chID >= len(st.idx.start)-1 {
			continue // terminal channel of a dead switch: no stored path uses it
		}
		for _, pi := range st.idx.pairs[st.idx.start[chID]:st.idx.start[chID+1]] {
			if !seen[pi] {
				seen[pi] = true
				out = append(out, [2]int32{pi / int32(st.n), pi % int32(st.n)})
			}
		}
	}
	return out
}

// baseAlive reports whether base-arena path id of source switch src
// avoids every dead channel of mask.
func (st *Store) baseAlive(mask *topo.FailureMask, src int, id int32) bool {
	cur := src
	base := int(id) * MaxVLBHops
	for h := 0; h < int(st.hops[id]); h++ {
		pt := int(st.ports[base+h])
		if mask.ChannelDead(cur, pt) {
			return false
		}
		next, ok := st.T.PeerOfPortOK(cur, pt)
		if !ok {
			return false
		}
		cur = next
	}
	return true
}

// RecompileStats reports what one ApplyFailures epoch touched.
type RecompileStats struct {
	// DirtyPairs is how many pairs the reverse index flagged (their
	// base paths cross a newly dead channel).
	DirtyPairs int
	// ChangedPairs is how many of those actually lost paths relative
	// to the previous epoch and had their range rewritten.
	ChangedPairs int
	// PathsRemoved is the total paths dropped relative to the
	// previous epoch.
	PathsRemoved int
	// Pairs lists the dirty (src, dst) pairs — the rows a derived
	// LoadMatrix must re-derive.
	Pairs     [][2]int32
	BuildTime time.Duration
}

// ApplyFailures derives the store for a grown failure mask without
// recompiling unaffected pairs: the reverse index maps the newly dead
// channels to the pairs whose paths cross them, and only those pair
// ranges are refiltered (from the base arena, under the cumulative
// mask — idempotent, so repeated failures compose). The receiver is
// never mutated beyond lazily building its edge index; the returned
// store is a new epoch that shares the base arenas, so concurrent
// readers of earlier epochs stay consistent (single-writer,
// multi-reader — the same contract as compilation).
//
// mask must be cumulative: it includes every failure the receiver was
// already recompiled under plus the newlyDead channels (the deltas
// returned by the FailureMask Fail* calls).
//
// Per-pair surviving order equals CompileDegraded's enumerate-filter
// order, so matrices derived from either store are bit-identical.
func (st *Store) ApplyFailures(mask *topo.FailureMask, newlyDead []topo.Channel) (*Store, RecompileStats) {
	start := time.Now()
	st.BuildEdgeIndex()
	out := &Store{
		T: st.T, Label: st.Label,
		name: st.name, full: st.full, n: st.n,
		pairStart: st.pairStart, hops: st.hops, ports: st.ports,
		mask: mask, epoch: st.epoch + 1, idx: st.idx,
	}
	if st.pairFirst != nil {
		out.pairFirst = append([]int32(nil), st.pairFirst...)
		out.pairCount = append([]int32(nil), st.pairCount...)
	} else {
		out.pairFirst = make([]int32, st.n*st.n)
		out.pairCount = make([]int32, st.n*st.n)
		for pi := range out.pairFirst {
			out.pairFirst[pi] = st.pairStart[pi]
			out.pairCount[pi] = st.pairStart[pi+1] - st.pairStart[pi]
		}
	}
	// Full-capacity slices of the previous patch arenas: the first
	// append reallocates, leaving earlier epochs' readers untouched.
	out.pHops = st.pHops[:len(st.pHops):len(st.pHops)]
	out.pPorts = st.pPorts[:len(st.pPorts):len(st.pPorts)]

	stats := RecompileStats{Pairs: st.DirtyPairs(newlyDead)}
	stats.DirtyPairs = len(stats.Pairs)
	baseLen := len(st.hops)
	dead := mask.DeadDense()
	peer := st.T.PeerDense()
	nonTerm, p := st.idx.nonTerm, st.T.P
	for _, pr := range stats.Pairs {
		s := int(pr[0])
		pi := s*st.n + int(pr[1])
		// Single pass: refilter the pair's base range into the patch
		// arena under the cumulative mask, rolling the appends back
		// if nothing died this epoch.
		lo, hi := st.pairStart[pi], st.pairStart[pi+1]
		markH, markP := len(out.pHops), len(out.pPorts)
		alive := 0
		for id := lo; id < hi; id++ {
			cur := s
			base := int(id) * MaxVLBHops
			ok := true
			for h := int(st.hops[id]); h > 0; h-- {
				chi := cur*nonTerm + int(st.ports[base]) - p
				if dead[chi] {
					ok = false
					break
				}
				cur = int(peer[chi])
				base++
			}
			if !ok {
				continue
			}
			alive++
			out.pHops = append(out.pHops, st.hops[id])
			out.pPorts = append(out.pPorts, st.ports[int(id)*MaxVLBHops:int(id+1)*MaxVLBHops]...)
		}
		prev := int(out.pairCount[pi])
		if alive == prev {
			// The surviving set did not shrink this epoch: keep the
			// previous range and discard the rebuilt copy.
			out.pHops = out.pHops[:markH]
			out.pPorts = out.pPorts[:markP]
			continue
		}
		stats.ChangedPairs++
		stats.PathsRemoved += prev - alive
		out.pairFirst[pi] = int32(baseLen + markH)
		out.pairCount[pi] = int32(alive)
	}
	out.buildTime = time.Since(start)
	stats.BuildTime = out.buildTime
	return out, stats
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
// already compiled under mask passes through — no new epoch, no edge
// index, no patch arena — and any other is recompiled via
// ApplyFailures over the full dead-channel list.
func degradedStore(st *Store, mask *topo.FailureMask) *Store {
	if mask == nil || sameDead(st.mask, mask) {
		return st
	}
	out, _ := st.ApplyFailures(mask, mask.DeadChannels())
	return out
}

// CompileDegraded compiles pol on t with every path crossing a dead
// channel of mask excluded — the from-scratch reference that
// ApplyFailures reproduces incrementally.
func CompileDegraded(t *topo.Compiled, pol Policy, mask *topo.FailureMask) *Store {
	if st, ok := pol.(*Store); ok {
		return degradedStore(st, mask)
	}
	if mask == nil {
		return pol.Compile(t)
	}
	return mustCompileStore(t, pol, mask)
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
