package paths

import (
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// Alive reports whether p avoids every dead channel of m. A nil mask
// means everything is alive. Because FailureMask kills both channel
// directions of a failed link (and every channel of a failed switch),
// testing the out-channel of each hop covers dead intermediate and
// destination switches too; only the degenerate zero-hop path needs
// the explicit switch check.
func Alive(m *topo.FailureMask, p Path) bool {
	if m == nil {
		return true
	}
	if len(p.Ports) == 0 {
		return !m.SwitchDead(p.Src())
	}
	for i, pt := range p.Ports {
		if m.ChannelDead(int(p.Sw[i]), int(pt)) {
			return false
		}
	}
	return true
}

// EnumerateMinAlive is EnumerateMin restricted to paths surviving the
// mask: the order is a stable subsequence of EnumerateMin's, so
// degraded analyses accumulate in a reproducible order.
func EnumerateMinAlive(t *topo.Compiled, m *topo.FailureMask, s, d int) []Path {
	if m == nil {
		return EnumerateMin(t, s, d)
	}
	if m.SwitchDead(s) || m.SwitchDead(d) {
		return nil
	}
	if s == d {
		return []Path{{Sw: []int32{int32(s)}}}
	}
	if t.SameGroup(s, d) {
		if m.ChannelDead(s, t.LocalPort(s, d)) {
			return nil
		}
		return []Path{{
			Sw:    []int32{int32(s), int32(d)},
			Ports: []int8{int8(t.LocalPort(s, d))},
		}}
	}
	links := m.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d))
	out := make([]Path, 0, len(links))
	for _, l := range links {
		if !minLinkAlive(t, m, s, d, l) {
			continue
		}
		out = append(out, minViaLink(t, s, d, l))
	}
	return out
}

// CountMinAlive is len(EnumerateMinAlive(t, m, s, d)) without building
// the paths: what sizing a forwarding-table row needs.
func CountMinAlive(t *topo.Compiled, m *topo.FailureMask, s, d int) int {
	switch {
	case m != nil && (m.SwitchDead(s) || m.SwitchDead(d)):
		return 0
	case s == d:
		return 1
	case t.SameGroup(s, d):
		if m != nil && m.ChannelDead(s, t.LocalPort(s, d)) {
			return 0
		}
		return 1
	case m == nil:
		return len(t.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d)))
	}
	count := 0
	for _, l := range m.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d)) {
		if minLinkAlive(t, m, s, d, l) {
			count++
		}
	}
	return count
}

// minLinkAlive reports whether the MIN path s -> l.From -> l.To -> d
// survives the mask. The global channel itself is alive by
// construction (l came from the mask's filtered link list); the local
// legs still need checking.
func minLinkAlive(t *topo.Compiled, m *topo.FailureMask, s, d int, l topo.GlobalLink) bool {
	u, v := int(l.From), int(l.To)
	if u != s && m.ChannelDead(s, t.LocalPort(s, u)) {
		return false
	}
	if v != d && m.ChannelDead(v, t.LocalPort(v, d)) {
		return false
	}
	return true
}

// SampleMinAliveInto draws a uniformly random surviving MIN path for
// the pair into dst's backing storage, allocation-free. ok=false when
// the mask leaves the pair without a MIN path (then the router must
// fall back to a surviving VLB candidate or refuse the packet). A nil
// mask is exactly SampleMinInto.
func SampleMinAliveInto(t *topo.Compiled, m *topo.FailureMask, r *rng.Source, s, d int, dst *Path) bool {
	if m == nil {
		SampleMinInto(t, r, s, d, dst)
		return true
	}
	if m.SwitchDead(s) || m.SwitchDead(d) {
		return false
	}
	dst.Sw = append(dst.Sw[:0], int32(s))
	dst.Ports = dst.Ports[:0]
	if s == d {
		return true
	}
	if t.SameGroup(s, d) {
		if m.ChannelDead(s, t.LocalPort(s, d)) {
			return false
		}
		dst.Sw = append(dst.Sw, int32(d))
		dst.Ports = append(dst.Ports, int8(t.LocalPort(s, d)))
		return true
	}
	links := m.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d))
	count := 0
	for _, l := range links {
		if minLinkAlive(t, m, s, d, l) {
			count++
		}
	}
	if count == 0 {
		return false
	}
	k := r.Intn(count)
	for _, l := range links {
		if !minLinkAlive(t, m, s, d, l) {
			continue
		}
		if k > 0 {
			k--
			continue
		}
		u, v := int(l.From), int(l.To)
		if u != s {
			dst.Ports = append(dst.Ports, int8(t.LocalPort(s, u)))
			dst.Sw = append(dst.Sw, int32(u))
		}
		dst.Ports = append(dst.Ports, int8(t.GlobalPort(int(l.FromPort))))
		dst.Sw = append(dst.Sw, int32(v))
		if v != d {
			dst.Ports = append(dst.Ports, int8(t.LocalPort(v, d)))
			dst.Sw = append(dst.Sw, int32(d))
		}
		return true
	}
	return false
}

// MinDirtyPairs over-approximates the (src,dst) pairs whose MIN path
// set may change when the given channels die: for a dead global
// channel every pair between its two groups, for a dead local channel
// u->v every pair out of u and every pair into v. The result is
// deduplicated but unsorted.
func MinDirtyPairs(t *topo.Compiled, chs []topo.Channel) [][2]int32 {
	n := t.NumSwitches()
	seen := make([]bool, n*n)
	var out [][2]int32
	add := func(s, d int) {
		if s == d || seen[s*n+d] {
			return
		}
		seen[s*n+d] = true
		out = append(out, [2]int32{int32(s), int32(d)})
	}
	for _, ch := range chs {
		sw, pt := int(ch.Sw), int(ch.Port)
		switch t.KindOfPort(pt) {
		case topo.Global:
			peer, ok := t.PeerOfPortOK(sw, pt)
			if !ok {
				continue
			}
			ga, gb := t.GroupOf(sw), t.GroupOf(peer)
			for si := 0; si < t.A; si++ {
				for di := 0; di < t.A; di++ {
					add(t.SwitchID(ga, si), t.SwitchID(gb, di))
				}
			}
		case topo.Local:
			v, ok := t.PeerOfPortOK(sw, pt)
			if !ok {
				continue
			}
			for d := 0; d < n; d++ {
				add(sw, d)
			}
			for s := 0; s < n; s++ {
				add(s, v)
			}
		default:
			// Terminal channels (dead switches) are covered by the
			// switch's local/global channels, which die with it.
		}
	}
	return out
}

// LegEnds returns, indexed by switch, where a MIN leg across one of the
// given channels can start (srcs) and end (dsts). A MIN leg is local,
// global, local, so a global channel ga->gb is crossed only by legs out
// of ga into gb, and a local channel u->v only as a leg's first hop
// (out of u, on to a group v's global ports reach) or its last (into v,
// from a group whose global links land at u); an in-group detour hop
// u->v starts at u and ends at v. Every stored path is two MIN legs, so
// a path of pair (s, d) crosses one of chs only if srcs[s] or dsts[d].
// Terminal-port channels and switches out of range add nothing.
func LegEnds(t *topo.Compiled, chs []topo.Channel) (srcs, dsts []bool) {
	n := t.NumSwitches()
	srcs, dsts = make([]bool, n), make([]bool, n)
	group := func(set []bool, g int) {
		for i := 0; i < t.A; i++ {
			set[t.SwitchID(g, i)] = true
		}
	}
	for _, ch := range chs {
		sw, pt := int(ch.Sw), int(ch.Port)
		peer, ok := t.PeerOfPortOK(sw, pt)
		if !ok {
			continue
		}
		if t.KindOfPort(pt) == topo.Global {
			group(srcs, t.GroupOf(sw))
			group(dsts, t.GroupOf(peer))
			continue
		}
		srcs[sw], dsts[peer] = true, true
		for gp := 0; gp < t.H; gp++ {
			if far, _, ok := t.GlobalPeerOK(sw, gp); ok {
				group(srcs, t.GroupOf(far))
			}
			if far, _, ok := t.GlobalPeerOK(peer, gp); ok {
				group(dsts, t.GroupOf(far))
			}
		}
	}
	return srcs, dsts
}
