package paths

import (
	"math/bits"
	"unsafe"

	"tugal/internal/topo"
)

// fullSet is the pristine full VLB set of one topology as arithmetic
// over its MIN legs: the space every Store's paths are offsets in, and
// its bits places in. Every inter-group pair holds (G-2)·A·K² paths and
// every in-group pair A-2, the pairs come in s*n+d order, and the path
// at an offset in its pair is arithmetic.
//
// An inter-group pair's paths come in the walk's order: intermediate
// group (the source and destination groups skipped), switch in it,
// first link, second link. split maps an offset to those four. A leg is
// its head from heads, the MIN leg from its switch over one global link
// up to the switch the link lands on, plus one local hop, by LocalPort's
// rule, when that is not the leg's target. An in-group pair's paths are
// its two-hop detours through the group's other switches, in switch
// order.
type fullSet struct {
	t       *topo.Compiled
	a, g, k int // the topology's A, G and K
	perPair int // paths of an inter-group pair
	split   []split
	heads   []legHead // [(x*G+gy)*K+i]: out of switch x over link i of x's group to group gy
}

// split is one offset of an inter-group pair: the intermediate's group
// rank and switch, and the first and second legs' links. The radix is
// at most topo.MaxRadix, so G, A and K are all below 2^14.
type split struct{ gq, si, k1, k2 uint16 }

// legHead is a MIN leg up to its global hop: its ports packed (the
// local hop to the link's switch, when that is not the leg's own, then
// the global hop), their count and the place in its group of the switch
// the global hop lands on.
type legHead struct {
	ports uint16
	n     uint8
	land  uint8
}

// fullPaths is the path count of t's pristine full set.
func fullPaths(t *topo.Compiled) int64 {
	inter := int64(max(t.G-2, 0)) * int64(t.A) * int64(t.K) * int64(t.K)
	row := int64(t.NumSwitches()-t.A)*inter + int64(t.A-1)*int64(max(t.A-2, 0))
	return int64(t.NumSwitches()) * row
}

// newFullSet builds the two tables. They are pair-local, so they do not
// depend on the set fitting the PathID space.
func newFullSet(t *topo.Compiled) *fullSet {
	n, a, g, k := t.NumSwitches(), t.A, t.G, t.K
	f := &fullSet{t: t, a: a, g: g, k: k, perPair: max(g-2, 0) * a * k * k}
	f.split = make([]split, f.perPair)
	for o := range f.split {
		f.split[o] = split{gq: uint16(o / (a * k * k)), si: uint16(o / (k * k) % a), k1: uint16(o / k % k), k2: uint16(o % k)}
	}
	f.heads = make([]legHead, n*g*k)
	for x := 0; x < n; x++ {
		gx := t.GroupOf(x)
		for gy := 0; gy < g; gy++ {
			if gy == gx {
				continue
			}
			for i, l := range t.LinksBetweenGroups(gx, gy) {
				h := legHead{ports: uint16(t.GlobalPort(int(l.FromPort))), n: 1, land: uint8(t.SwitchIndexInGroup(int(l.To)))}
				if int(l.From) != x {
					h.ports = h.ports<<8 | uint16(t.LocalPort(x, int(l.From)))
					h.n = 2
				}
				f.heads[(x*g+gy)*k+i] = h
			}
		}
	}
	return f
}

// bytes is the size of the two tables.
func (f *fullSet) bytes() int64 {
	return int64(len(f.split))*int64(unsafe.Sizeof(split{})) + int64(len(f.heads))*int64(unsafe.Sizeof(legHead{}))
}

// count is the path count of pair (s, d).
func (f *fullSet) count(s, d int) int {
	switch t := f.t; {
	case s == d:
		return 0
	case t.SameGroup(s, d):
		return f.a - 2
	}
	return f.perPair
}

// start is the place of pair (s, d)'s first path in the full set: the
// rows before s, then the pairs (s, d' < d), A-2 or perPair paths each.
func (f *fullSet) start(s, d int) int {
	in, g0 := max(f.a-2, 0), f.t.GroupOf(s)*f.a
	same := min(max(d-g0, 0), f.a) // s's group below d, s too when s < d
	at := s*((f.t.NumSwitches()-f.a)*f.perPair+(f.a-1)*in) + (d-same)*f.perPair + same*in
	if s < d {
		at -= in
	}
	return at
}

// skip returns the q-th of 0, 1, ... with a and b left out (a != b).
func skip(q, a, b int) int {
	lo, hi := min(a, b), max(a, b)
	if q >= lo {
		q++
	}
	if q >= hi {
		q++
	}
	return q
}

// leg returns the packed ports of MIN leg h, ending at the switch with
// place y in the group it lands in.
func (f *fullSet) leg(h legHead, y int) uint64 {
	ports := uint64(h.ports)
	if land := int(h.land); land != y {
		ports |= uint64(f.t.LocalPortAt(land, y)) << (8 * h.n)
	}
	return ports
}

// headsTo returns the K leg heads from switch x toward group gy.
func (f *fullSet) headsTo(x, gy int) []legHead {
	i := (x*f.g + gy) * f.k
	return f.heads[i : i+f.k]
}

// detour returns the packed ports of the in-group pair (s, d)'s o-th
// detour.
func (f *fullSet) detour(s, d, o int) uint64 {
	t := f.t
	si, di := t.SwitchIndexInGroup(s), t.SwitchIndexInGroup(d)
	m := skip(o, si, di)
	return uint64(t.LocalPortAt(si, m)) | uint64(t.LocalPortAt(m, di))<<8
}

// path returns the packed ports of pair (s, d)'s o-th path.
func (f *fullSet) path(s, d, o int) uint64 {
	t := f.t
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	if gs == gd {
		return f.detour(s, d, o)
	}
	sp := f.split[o]
	gi := skip(int(sp.gq), gs, gd)
	inter := t.SwitchID(gi, int(sp.si))
	a := f.leg(f.headsTo(s, gi)[sp.k1], int(sp.si))
	return a | f.leg(f.headsTo(inter, gd)[sp.k2], t.SwitchIndexInGroup(d))<<(8*PackedHops(a))
}

// each calls fn with the packed ports of pair (s, d)'s paths whose
// places, the pair's from at, keep holds (nil: every one), in order,
// numbered from id. Per intermediate that keeps a join, it joins the
// legs into it with the legs out of it, built once, and passes the
// joins keep holds: a read costs a popcount per intermediate and the
// joins of those it passes, not the pair's full set.
func (f *fullSet) each(s, d int, id PathID, keep IDSet, at int, fn func(id PathID, ports uint64)) {
	t := f.t
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	if gs == gd {
		for o := range f.count(s, d) {
			if keep.holds(at + o) {
				fn(id, f.detour(s, d, o))
				id++
			}
		}
		return
	}
	var buf [16]uint64
	di, kk, o := t.SwitchIndexInGroup(d), f.k*f.k, at
	for q := 0; q < f.g-2; q++ {
		gi := skip(q, gs, gd)
		into := f.headsTo(s, gi)
		for si := 0; si < f.a; si++ {
			if keep.ones(o, o+kk) == 0 {
				o += kk
				continue
			}
			second := buf[:0]
			for _, h := range f.headsTo(t.SwitchID(gi, si), gd) {
				second = append(second, f.leg(h, di))
			}
			for _, h := range into {
				a := f.leg(h, si)
				shift := 8 * PackedHops(a)
				for _, b := range second {
					if keep.holds(o) {
						fn(id, a|b<<shift)
						id++
					}
					o++
				}
			}
		}
	}
}

// firstPorts calls fn with the first port of the paths of pair (s, d)
// and how many paths it starts, in path order save that the A·K paths a
// leg toward an intermediate group starts come at once.
func (f *fullSet) firstPorts(s, d int, fn func(port int8, n int)) {
	t := f.t
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	if gs == gd {
		for o := range f.count(s, d) {
			fn(int8(f.detour(s, d, o)), 1)
		}
		return
	}
	for q := 0; q < f.g-2; q++ {
		for _, h := range f.headsTo(s, skip(q, gs, gd)) {
			fn(int8(h.ports), f.a*f.k)
		}
	}
}

// PackedHops is the hop count of packed ports (one byte a hop, hop 0
// lowest, zero past the last): every hop leaves by a non-terminal port,
// which is never port 0.
func PackedHops(ports uint64) int { return (bits.Len64(ports) + 7) / 8 }

// Packed packs a port sequence of at most MaxVLBHops hops, hop 0 lowest.
func Packed(ports []int8) uint64 {
	x := uint64(0)
	for i, p := range ports {
		x |= uint64(uint8(p)) << (8 * i)
	}
	return x
}
