package paths

import "tugal/internal/topo"

// hopTable is the one walk over stored paths' channels. Entry
// cur*radix+port is the hop out of switch cur at port: the row of the
// switch it leads to (that switch times radix) and the dense channel it
// crosses, as FailureMask.DeadDense numbers them. A terminal port leads
// back to its own switch over slot nch+cur, the switch itself. Port 0
// is terminal (P >= 1) and unused port slots are zero, so every stored
// path walks as MaxVLBHops hops with no branch.
type hopTable struct {
	radix int
	nch   int // dense channels; slot nch+sw is switch sw's own
	hops  []hop
}

type hop struct{ at, ch int32 }

func newHopTable(t *topo.Compiled) *hopTable {
	n, nonTerm, peer := t.NumSwitches(), t.A-1+t.H, t.PeerDense()
	h := &hopTable{radix: t.Radix(), nch: n * nonTerm, hops: make([]hop, n*t.Radix())}
	for sw := 0; sw < n; sw++ {
		for pt := 0; pt < h.radix; pt++ {
			e := hop{at: int32(sw * h.radix), ch: int32(h.nch + sw)}
			if pt >= t.P {
				ch := sw*nonTerm + pt - t.P
				e = hop{at: peer[ch] * int32(h.radix), ch: int32(ch)}
			}
			h.hops[sw*h.radix+pt] = e
		}
	}
	return h
}

// step walks the paths id..id+3 of a port arena (MaxVLBHops slots a
// path) from switch src in lockstep, so that their dependent peer loads
// overlap, and writes path id+k's channels to c[k]. An ID past last
// walks last again: no step reads past the range it was given.
func (h *hopTable) step(ports []int8, src, id, last int, c *[4][MaxVLBHops]int32) {
	a := (*[MaxVLBHops]int8)(ports[id*MaxVLBHops:])
	b := (*[MaxVLBHops]int8)(ports[min(id+1, last)*MaxVLBHops:])
	d := (*[MaxVLBHops]int8)(ports[min(id+2, last)*MaxVLBHops:])
	e := (*[MaxVLBHops]int8)(ports[min(id+3, last)*MaxVLBHops:])
	hops := h.hops
	ra, rb, rd, re := src*h.radix, src*h.radix, src*h.radix, src*h.radix
	for j := 0; j < MaxVLBHops; j++ {
		ha, hb, hd, he := hops[ra+int(a[j])], hops[rb+int(b[j])], hops[rd+int(d[j])], hops[re+int(e[j])]
		c[0][j], c[1][j], c[2][j], c[3][j] = ha.ch, hb.ch, hd.ch, he.ch
		ra, rb, rd, re = int(ha.at), int(hb.at), int(hd.at), int(he.at)
	}
}

// MaskWalk tests stored paths and port sequences against one failure
// mask through the hop table: the store filter and the route table's
// row filter are both this walk. An arena's paths are walked hop by
// hop; the pristine full set's by their MIN legs, a path being dead
// exactly when one of its two legs is. Read-only once built.
type MaskWalk struct {
	h *hopTable
	t *topo.Compiled
	// dead holds, for each slot, channel or switch, bit 0 when the mask
	// kills it and bit 1 when it is a channel of the walk's delta.
	dead []uint8
	// legs holds the dead bits of every inter-group MIN leg (legAt).
	legs []uint8
}

// NewMaskWalk prepares the walk of t's paths against mask.
func NewMaskWalk(t *topo.Compiled, mask *topo.FailureMask) *MaskWalk {
	return NewDeltaWalk(t, mask, nil)
}

// NewDeltaWalk is NewMaskWalk that also flags delta, the channels of
// the last failure, for MarkDelta. Terminal-port channels and switches
// out of range are skipped: no stored path crosses them. It folds each
// inter-group MIN leg's channels (newLegTable's legs) into one byte,
// which is how the pristine full set is marked.
func NewDeltaWalk(t *topo.Compiled, mask *topo.FailureMask, delta []topo.Channel) *MaskWalk {
	w := &MaskWalk{h: newHopTable(t), t: t}
	w.dead = make([]uint8, w.h.nch+t.NumSwitches())
	for i := range w.dead {
		if i < w.h.nch && mask.DeadDense()[i] || i >= w.h.nch && mask.SwitchDead(i-w.h.nch) {
			w.dead[i] = 1
		}
	}
	nonTerm := t.A - 1 + t.H
	for _, ch := range delta {
		if sw, pt := int(ch.Sw), int(ch.Port)-t.P; sw >= 0 && sw < t.NumSwitches() && pt >= 0 && pt < nonTerm {
			w.dead[sw*nonTerm+pt] |= 2
		}
	}
	legs := newLegTable(t, nil)
	w.legs = make([]uint8, len(legs))
	for i := range legs {
		for j := range legs[i].Hops() {
			sw, pt := legs[i].Hop(j)
			w.legs[i] |= w.dead[sw*nonTerm+pt-t.P]
		}
	}
	return w
}

// flags ORs the dead bits of one walked path's slots.
func (w *MaskWalk) flags(c *[MaxVLBHops]int32) uint8 {
	d := w.dead
	return d[c[0]] | d[c[1]] | d[c[2]] | d[c[3]] | d[c[4]] | d[c[5]]
}

// MarkDead sets dead[k], k below the pair's path count, to whether path
// k of pair (s, d) of st crosses a channel the mask kills, and returns
// how many do.
func (w *MaskWalk) MarkDead(st *Store, s, d int, dead []bool) int {
	n, _ := w.MarkDelta(st, s, d, dead)
	return n
}

// MarkDelta is MarkDead that also reports, from the same walk, whether
// any of the pair's paths crosses a channel of the walk's delta.
func (w *MaskWalk) MarkDelta(st *Store, s, d int, dead []bool) (n int, crossed bool) {
	if st.legs != nil {
		return w.markLegs(s, d, dead)
	}
	first, count := st.PairRange(s, d)
	return w.markRange(st.ports, s, int(first), count, dead)
}

// markRange marks paths first..first+count-1 of a port arena out of
// src, four at a time in lockstep.
func (w *MaskWalk) markRange(ports []int8, src, first, count int, dead []bool) (n int, crossed bool) {
	var c [4][MaxVLBHops]int32
	var hit uint8
	last := first + count - 1
	for i := 0; i < count; i += 4 {
		w.h.step(ports, src, first+i, last, &c)
		for k := range min(4, count-i) {
			f := w.flags(&c[k])
			hit |= f
			if dead[i+k] = f&1 != 0; dead[i+k] {
				n++
			}
		}
	}
	return n, hit&2 != 0
}

// markLegs is MarkDelta over the pristine full set: a join's bits are
// its two legs', from the walk's leg table, and the pair crosses the
// delta exactly when one of its legs does, each leg being in some join.
func (w *MaskWalk) markLegs(s, d int, dead []bool) (n int, crossed bool) {
	t := w.t
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	var hit uint8
	mark := func(i int, x uint8) {
		hit |= x
		if dead[i] = x&1 != 0; dead[i] {
			n++
		}
	}
	if gs == gd {
		nonTerm := t.A - 1 + t.H
		for o := range dead {
			m := t.SwitchID(gs, skip(o, t.SwitchIndexInGroup(s), t.SwitchIndexInGroup(d)))
			mark(o, w.dead[s*nonTerm+t.LocalPort(s, m)-t.P]|w.dead[m*nonTerm+t.LocalPort(m, d)-t.P])
		}
		return n, hit&2 != 0
	}
	i := 0
	for q := 0; q < t.G-2; q++ {
		gi := skip(q, gs, gd)
		for ip := 0; ip < t.A; ip++ {
			inter := t.SwitchID(gi, ip)
			second := w.legsTo(inter, d)
			for _, a := range w.legsTo(s, inter) {
				for _, b := range second {
					mark(i, a|b)
					i++
				}
			}
		}
	}
	return n, hit&2 != 0
}

// legsTo returns the dead bits of the K MIN legs from x to y in another
// group.
func (w *MaskWalk) legsTo(x, y int) []uint8 {
	t := w.t
	i := legAt(t, x, t.GroupOf(x), y, t.GroupOf(y))
	return w.legs[i : i+t.K]
}

// Alive reports whether the route out of src over packed ports (at most
// MaxVLBHops, see Store.Ports) survives the mask; a zero-hop one lives
// with its switch.
func (w *MaskWalk) Alive(src int, ports uint64) bool {
	var slots [MaxVLBHops]int8
	for i := range slots {
		slots[i] = int8(ports >> (8 * i))
	}
	var c [4][MaxVLBHops]int32
	w.h.step(slots[:], src, 0, 0, &c)
	return w.flags(&c[0])&1 == 0
}
