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
// mask, in a stable subsequence of EnumerateMin's order. No command
// calls it: it is the oracle the MIN legs (MinLegs) are tested against,
// and through them the route tables and flow's degraded loads.
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
// the pair into dst's backing storage, allocation-free — UGAL's single
// random MIN candidate, on the simulator's per-packet hot path.
// ok=false when the mask leaves the pair without a MIN path (then the
// router must fall back to a surviving VLB candidate or refuse the
// packet). A nil mask is the pristine topology: one draw over the
// group pair's links.
func SampleMinAliveInto(t *topo.Compiled, m *topo.FailureMask, r *rng.Source, s, d int, dst *Path) bool {
	if m != nil && (m.SwitchDead(s) || m.SwitchDead(d)) {
		return false
	}
	dst.Sw = append(dst.Sw[:0], int32(s))
	dst.Ports = dst.Ports[:0]
	if s == d {
		return true
	}
	if t.SameGroup(s, d) {
		if m != nil && m.ChannelDead(s, t.LocalPort(s, d)) {
			return false
		}
		dst.Sw = append(dst.Sw, int32(d))
		dst.Ports = append(dst.Ports, int8(t.LocalPort(s, d)))
		return true
	}
	if m == nil {
		links := t.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d))
		appendLeg(t, dst, s, d, links[r.Intn(len(links))])
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
		appendLeg(t, dst, s, d, l)
		return true
	}
	return false
}
