package paths

import "tugal/internal/topo"

// hopTable is the channel walk of a route given as packed ports
// (MaskWalk.Alive). Entry
// cur*radix+port is the hop out of switch cur at port: the row of the
// switch it leads to (that switch times radix) and the dense channel it
// crosses, as FailureMask.DeadDense numbers them. A terminal port leads
// back to its own switch over slot nch+cur, the switch itself. Port 0
// is terminal (P >= 1) and packed ports are zero past the last hop, so
// every route walks as MaxVLBHops hops with no branch.
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

// MaskWalk tests stored paths and port sequences against one failure
// mask: the store filter and the route table's row filter are both this
// walk. A stored path is walked by its two MIN legs, dead exactly when
// one of them is; a port sequence hop by hop through the hop table.
// Read-only once built.
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
// which is how stored paths are marked.
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

// MarkDead sets dead[k], k below the pair's path count, to whether path
// k of pair (s, d) of st crosses a channel the mask kills, and returns
// how many do.
func (w *MaskWalk) MarkDead(st *Store, s, d int, dead []bool) int {
	n, _ := w.MarkDelta(st, s, d, dead)
	return n
}

// MarkDelta is MarkDead that also reports, from the same walk, whether
// any of the pair's paths crosses a channel of the walk's delta. A
// stored path's bits are its two legs', from the walk's leg table. A
// pair that holds every join walks them in order; any other finds each
// stored path's legs by its offset, so the walk costs the stored paths,
// not the pair's full set.
func (w *MaskWalk) MarkDelta(st *Store, s, d int, dead []bool) (n int, crossed bool) {
	t, split := w.t, st.set.split
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	offs := st.pairOffsets(s*st.n + d)
	var hit uint8
	mark := func(k int, x uint8) {
		hit |= x
		dead[k] = x&1 != 0
		n += int(x & 1)
	}
	if gs == gd {
		nonTerm := t.A - 1 + t.H
		for k, o := range offs {
			mid := t.SwitchID(gs, skip(int(o), t.SwitchIndexInGroup(s), t.SwitchIndexInGroup(d)))
			mark(k, w.dead[s*nonTerm+t.LocalPort(s, mid)-t.P]|w.dead[mid*nonTerm+t.LocalPort(mid, d)-t.P])
		}
		return n, hit&2 != 0
	}
	if len(offs) == st.set.perPair {
		k := 0
		for q := 0; q < t.G-2; q++ {
			gi := skip(q, gs, gd)
			for ip := 0; ip < t.A; ip++ {
				inter := t.SwitchID(gi, ip)
				second := w.legsTo(inter, d)
				for _, a := range w.legsTo(s, inter) {
					for _, b := range second {
						mark(k, a|b)
						k++
					}
				}
			}
		}
		return n, hit&2 != 0
	}
	var first, second []uint8
	at := -1 // the intermediate first and second lead into and out of
	for k, o := range offs {
		sp := split[o]
		if x := int(sp.gq)*t.A + int(sp.si); x != at {
			at = x
			inter := t.SwitchID(skip(int(sp.gq), gs, gd), int(sp.si))
			first, second = w.legsTo(s, inter), w.legsTo(inter, d)
		}
		mark(k, first[sp.k1]|second[sp.k2])
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
	var f uint8
	at := src * w.h.radix
	for j := 0; j < MaxVLBHops; j, ports = j+1, ports>>8 {
		h := w.h.hops[at+int(uint8(ports))]
		f |= w.dead[h.ch]
		at = int(h.at)
	}
	return f&1 == 0
}
