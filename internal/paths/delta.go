package paths

import (
	"fmt"
	"math"
	"slices"

	"tugal/internal/topo"
)

// Delta is the one rule for what a failure kills. The failure grows
// mask before (nil: pristine) into after, and its newly dead channels
// are chs. A route dies exactly when one of its hops crosses one of
// them, or, zero-hop, when its switch is newly dead: it dies with its
// switch even when the switch's channels died earlier. A MIN leg is
// local, global, local, so a global channel ga->gb kills the legs over
// its link from every switch of ga to every switch of gb, and a local
// channel u->v the legs out of u over a link of v and the legs into v
// over a link landing at u; an in-group hop u->v is the channel itself.
// An inter-group pair's stored path is two MIN legs joined at an
// intermediate switch, so it dies exactly when one of its legs does:
// Delta indexes the killed legs by start and end switch, and what a
// pair loses costs the legs killed at its two ends, not its stored
// paths. It answers three questions: which rows a failure can touch
// (Touches), whether a packed route dies (Kills) and which stored paths
// of a pair die (AppendIDs). Read-only once built.
type Delta struct {
	t       *topo.Compiled
	peer    []int32 // t.PeerDense
	nonTerm int     // non-terminal ports per switch
	// ch marks the channels, dense as FailureMask.DeadDense numbers
	// them; terminal-port channels and switches out of range are
	// skipped, as no stored path crosses them.
	ch []bool
	// from[x] and to[x] mark switch x as the start and the end of a
	// killed leg or in-group hop; a newly dead switch (died) marks
	// itself in both, for its zero-hop route.
	from, to, died []bool
	// out[outAt[x]:outAt[x+1]] are the killed legs out of switch x, by
	// the switch they end at and their link, ascending;
	// in[inAt[y]:inAt[y+1]] are those into y, by the switch they start
	// at. A leg is keyed by its far end: a pair's intermediate.
	outAt, inAt []int32
	out, in     []killed
}

// killed is one killed MIN leg seen from one end: the switch at its
// other end and the place of its link among the links between the two
// groups.
type killed struct{ far, link int32 }

// NewDelta indexes what the failure from before (nil: pristine) to
// after, with newly dead channels chs, kills, on after's topology.
func NewDelta(before, after *topo.FailureMask, chs []topo.Channel) *Delta {
	t := after.Topo()
	n, a, k, nonTerm := t.NumSwitches(), t.A, t.K, t.A-1+t.H
	dl := &Delta{
		t: t, peer: t.PeerDense(), nonTerm: nonTerm, ch: make([]bool, n*nonTerm),
		from: make([]bool, n), to: make([]bool, n), died: make([]bool, n),
		outAt: make([]int32, n+1), inAt: make([]int32, n+1),
	}
	for sw := range n {
		if after.SwitchDead(sw) && (before == nil || !before.SwitchDead(sw)) {
			dl.died[sw], dl.from[sw], dl.to[sw] = true, true, true
		}
	}
	var legs []int64 // (x*n+y)*K+link of each killed leg x -> y
	kill := func(x0, x1, y0, y1, link int) {
		for x := x0; x < x1; x++ {
			for y := y0; y < y1; y++ {
				legs = append(legs, (int64(x)*int64(n)+int64(y))*int64(k)+int64(link))
			}
		}
	}
	for _, c := range chs {
		sw, pt := int(c.Sw), int(c.Port)
		peer, ok := t.PeerOfPortOK(sw, pt)
		if !ok {
			continue
		}
		dl.ch[sw*nonTerm+pt-t.P] = true
		if t.KindOfPort(pt) == topo.Global {
			ga, gb := t.SwitchID(t.GroupOf(sw), 0), t.SwitchID(t.GroupOf(peer), 0)
			kill(ga, ga+a, gb, gb+a, linkOf(t, sw, pt-t.GlobalPort(0), peer))
			continue
		}
		dl.from[sw], dl.to[peer] = true, true
		for gp := 0; gp < t.H; gp++ {
			if far, _, ok := t.GlobalPeerOK(peer, gp); ok {
				gy := t.SwitchID(t.GroupOf(far), 0)
				kill(sw, sw+1, gy, gy+a, linkOf(t, peer, gp, far))
			}
			if far, fgp, ok := t.GlobalPeerOK(sw, gp); ok {
				gx := t.SwitchID(t.GroupOf(far), 0)
				kill(gx, gx+a, peer, peer+1, linkOf(t, far, fgp, sw))
			}
		}
	}
	slices.Sort(legs)
	legs = slices.Compact(legs)
	for _, l := range legs {
		dl.outAt[l/int64(n*k)+1]++
		dl.inAt[l/int64(k)%int64(n)+1]++
	}
	for x := range n {
		dl.outAt[x+1] += dl.outAt[x]
		dl.inAt[x+1] += dl.inAt[x]
	}
	dl.out, dl.in = make([]killed, len(legs)), make([]killed, len(legs))
	outNext, inNext := slices.Clone(dl.outAt[:n]), slices.Clone(dl.inAt[:n])
	for _, l := range legs {
		link := int32(l % int64(k))
		x, y := int32(l/int64(n*k)), int32(l/int64(k)%int64(n))
		dl.out[outNext[x]], dl.in[inNext[y]] = killed{y, link}, killed{x, link}
		dl.from[x], dl.to[y] = true, true
		outNext[x]++
		inNext[y]++
	}
	return dl
}

// Touches reports whether the failure can touch pair (s, d)'s row — a
// killed leg or in-group hop starts at s or ends at d — and whether it
// can kill one of the row's MIN candidates. A stored path is two legs,
// so a row it does not touch loses nothing; a MIN candidate is one leg
// or a zero-hop route, so it can die only when both ends are marked.
func (dl *Delta) Touches(s, d int) (row, min bool) {
	return dl.from[s] || dl.to[d], dl.from[s] && dl.to[d]
}

// Kills reports whether the route out of src over packed ports (at most
// MaxVLBHops, zero past the last hop, see Store.Ports) dies: one of its
// hops crosses a channel, or it has no hop and src is newly dead.
func (dl *Delta) Kills(src int, ports uint64) bool {
	if ports == 0 {
		return dl.died[src]
	}
	for cur := src; ports != 0; ports >>= 8 {
		c := cur*dl.nonTerm + int(uint8(ports)) - dl.t.P
		if dl.ch[c] {
			return true
		}
		cur = int(dl.peer[c])
	}
	return false
}

// linkOf is the place of switch sw's global port gp, which reaches peer,
// among the links between their groups: the MIN legs over it are the
// groups' k-th.
func linkOf(t *topo.Compiled, sw, gp, peer int) int {
	for k, l := range t.LinksBetweenGroups(t.GroupOf(sw), t.GroupOf(peer)) {
		if int(l.From) == sw && int(l.FromPort) == gp {
			return k
		}
	}
	panic(fmt.Sprintf("paths: global port %d of switch %d is not a link toward switch %d", gp, sw, peer))
}

// AppendIDs appends to dst, ascending and once each, the PathIDs of
// pair (s, d) of st that cross the channels. On an inter-group pair
// they are the paths whose first leg is a killed leg out of s or whose
// second leg is a killed leg into d: per intermediate such a leg ends
// or starts at, outside the groups of s and d, its K² joins are one
// block of the pair's offsets, ((q·A+si)·K+k1)·K+k2 for the
// intermediate's group rank q and place si, and the killed ones are the
// rows k1 of the killed first legs and the columns k2 of the killed
// second legs. On the pristine full set a killed join's PathID is its
// offset's; on any other store the block's stored offsets, found by a
// search of the pair's sorted offsets, are merged with the killed ones.
// An in-group pair's stored detours are each tested on their two hops.
func (dl *Delta) AppendIDs(st *Store, s, d int, dst []PathID) []PathID {
	t := dl.t
	first, _ := st.PairRange(s, d)
	offs := st.pairOffsets(s*st.n + d)
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	if gs == gd {
		si, di := t.SwitchIndexInGroup(s), t.SwitchIndexInGroup(d)
		for i, o := range offs {
			m := t.SwitchID(gs, skip(int(o), si, di))
			if dl.ch[s*dl.nonTerm+t.LocalPort(s, m)-t.P] || dl.ch[m*dl.nonTerm+t.LocalPort(m, d)-t.P] {
				dst = append(dst, first+PathID(i))
			}
		}
		return dst
	}
	k := int32(t.K)
	out, in := dl.out[dl.outAt[s]:dl.outAt[s+1]], dl.in[dl.inAt[d]:dl.inAt[d+1]]
	at := 0 // offs[at:] are past the blocks done
	for len(out) > 0 || len(in) > 0 {
		// The next intermediate either list names, and the links of its
		// killed legs in from s (rows) and on to d (cols).
		x := int32(math.MaxInt32)
		if len(out) > 0 {
			x = out[0].far
		}
		if len(in) > 0 {
			x = min(x, in[0].far)
		}
		i, j := 0, 0
		for i < len(out) && out[i].far == x {
			i++
		}
		for j < len(in) && in[j].far == x {
			j++
		}
		rows, cols := out[:i], in[:j]
		out, in = out[i:], in[j:]
		gx := t.GroupOf(int(x))
		if gx == gs || gx == gd {
			continue // not an intermediate of this pair
		}
		q := gx
		if gx > gs {
			q--
		}
		if gx > gd {
			q--
		}
		base := int32(q*t.A+t.SwitchIndexInGroup(int(x))) * k * k
		if st.offs != nil {
			i, _ := slices.BinarySearch(offs[at:], uint32(base))
			at += i
		}
		for k1 := range k {
			whole := len(rows) > 0 && rows[0].link == k1
			if whole {
				rows = rows[1:]
			}
			for c, k2 := 0, int32(0); k2 < k; k2++ {
				if !whole {
					if c == len(cols) {
						break
					}
					k2 = cols[c].link
					c++
				}
				o := uint32(base + k1*k + k2)
				if st.offs == nil {
					dst = append(dst, first+PathID(o))
					continue
				}
				for at < len(offs) && offs[at] < o {
					at++
				}
				if at < len(offs) && offs[at] == o {
					dst = append(dst, first+PathID(at))
				}
			}
		}
	}
	return dst
}
