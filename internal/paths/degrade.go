package paths

import (
	"time"

	"tugal/internal/topo"
)

// edgeIndex is the per-channel reverse index over a base store's
// arena: for every directed channel, the deduplicated list of pair
// indices (s*n+d) whose compiled paths cross it. A failure then
// dirties exactly the pairs listed under its dead channels, which is
// what lets ApplyFailures recompile a handful of pair ranges instead
// of the whole store. CSR layout; pair lists are in ascending order.
type edgeIndex struct {
	nonTerm int // non-terminal ports per switch: a-1+h
	start   []int32
	pairs   []int32
	// peer[ch] is PeerOfPort flattened over the same channel index,
	// so the refilter's path walk is two array loads per hop.
	peer []int32
}

// BuildEdgeIndex builds the reverse index over the base arena if it
// is not already present. Call it once before the store is shared:
// like compilation, it is a single-writer operation, and building it
// ahead of time keeps ApplyFailures' latency down to the dirty-pair
// refilter alone. Overlay stores inherit the base index.
func (st *Store) BuildEdgeIndex() {
	if st.idx != nil {
		return
	}
	t := st.T
	nonTerm := t.A - 1 + t.H
	nch := t.NumSwitches() * nonTerm
	peer := make([]int32, nch)
	for sw := 0; sw < t.NumSwitches(); sw++ {
		for pt := t.P; pt < t.Radix(); pt++ {
			if v, ok := t.PeerOfPortOK(sw, pt); ok {
				peer[sw*nonTerm+pt-t.P] = int32(v)
			} else {
				// Unwired slot (no stored path crosses it): keep a
				// sentinel so a bad walk fails loudly downstream.
				peer[sw*nonTerm+pt-t.P] = -1
			}
		}
	}
	start := make([]int32, nch+1)
	last := make([]int32, nch)
	for i := range last {
		last[i] = -1
	}
	// Pass 1: count deduplicated (channel, pair) incidences. The walk
	// mirrors MaterializeInto: the switch sequence is re-derived from
	// the source switch and the port arena.
	p := t.P
	for pi := 0; pi < st.n*st.n; pi++ {
		s := pi / st.n
		for id := st.pairStart[pi]; id < st.pairStart[pi+1]; id++ {
			cur := s
			base := int(id) * MaxVLBHops
			for h := int(st.hops[id]); h > 0; h-- {
				ch := cur*nonTerm + int(st.ports[base]) - p
				if last[ch] != int32(pi) {
					last[ch] = int32(pi)
					start[ch+1]++
				}
				cur = int(peer[ch])
				base++
			}
		}
	}
	for i := 0; i < nch; i++ {
		start[i+1] += start[i]
	}
	idx := &edgeIndex{nonTerm: nonTerm, start: start, peer: peer}
	idx.pairs = make([]int32, start[nch])
	fill := make([]int32, nch)
	copy(fill, start[:nch])
	for i := range last {
		last[i] = -1
	}
	for pi := 0; pi < st.n*st.n; pi++ {
		s := pi / st.n
		for id := st.pairStart[pi]; id < st.pairStart[pi+1]; id++ {
			cur := s
			base := int(id) * MaxVLBHops
			for h := int(st.hops[id]); h > 0; h-- {
				ch := cur*nonTerm + int(st.ports[base]) - p
				if last[ch] != int32(pi) {
					last[ch] = int32(pi)
					idx.pairs[fill[ch]] = int32(pi)
					fill[ch]++
				}
				cur = int(peer[ch])
				base++
			}
		}
	}
	st.idx = idx
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

	var stats RecompileStats
	seen := make([]bool, st.n*st.n)
	baseLen := len(st.hops)
	dead := mask.DeadDense()
	peer := st.idx.peer
	nonTerm, p := st.idx.nonTerm, st.T.P
	for _, ch := range newlyDead {
		chID := int(ch.Sw)*nonTerm + int(ch.Port) - p
		if chID < 0 || chID >= len(st.idx.start)-1 {
			continue // terminal channel of a dead switch: no stored path uses it
		}
		for _, pi32 := range st.idx.pairs[st.idx.start[chID]:st.idx.start[chID+1]] {
			pi := int(pi32)
			if seen[pi] {
				continue
			}
			seen[pi] = true
			stats.DirtyPairs++
			s := pi / st.n
			stats.Pairs = append(stats.Pairs, [2]int32{int32(s), int32(pi % st.n)})
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
	}
	out.buildTime = time.Since(start)
	stats.BuildTime = out.buildTime
	return out, stats
}

// CompileDegraded compiles pol on t with every path crossing a dead
// channel of mask excluded — the from-scratch reference that
// ApplyFailures reproduces incrementally. A policy that already is a
// Store is recompiled via ApplyFailures over the full dead-channel
// list.
func CompileDegraded(t *topo.Compiled, pol Policy, mask *topo.FailureMask) *Store {
	if mask == nil {
		return pol.Compile(t)
	}
	if st, ok := pol.(*Store); ok {
		out, _ := st.ApplyFailures(mask, mask.DeadChannels())
		return out
	}
	return mustCompileStore(t, pol, mask)
}

// TryCompileDegraded is TryCompile under a failure mask (nil: none):
// ok=false when the estimated pristine size exceeds the budget (the
// degraded set is never larger) or the counted size overflows the
// PathID space.
func TryCompileDegraded(t *topo.Compiled, pol Policy, budget int64, mask *topo.FailureMask) (*Store, bool) {
	if st, ok := pol.(*Store); ok {
		if mask != nil {
			st, _ = st.ApplyFailures(mask, mask.DeadChannels())
		}
		return st, true
	}
	if budget > 0 && EstimatePaths(t, pol) > budget {
		return nil, false
	}
	st, _ := compileStore(t, pol, mask, pathIDSpace)
	return st, st != nil
}
