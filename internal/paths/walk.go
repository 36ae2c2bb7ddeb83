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
// row filter are both this walk. Read-only once built.
type MaskWalk struct {
	h    *hopTable
	dead []uint8 // 1 for each slot, channel or switch, the mask kills
}

// NewMaskWalk prepares the walk of t's paths against mask.
func NewMaskWalk(t *topo.Compiled, mask *topo.FailureMask) *MaskWalk {
	w := &MaskWalk{h: newHopTable(t)}
	w.dead = make([]uint8, w.h.nch+t.NumSwitches())
	for i := range w.dead {
		if i < w.h.nch && mask.DeadDense()[i] || i >= w.h.nch && mask.SwitchDead(i-w.h.nch) {
			w.dead[i] = 1
		}
	}
	return w
}

func (w *MaskWalk) crosses(c *[MaxVLBHops]int32) bool {
	d := w.dead
	return d[c[0]]|d[c[1]]|d[c[2]]|d[c[3]]|d[c[4]]|d[c[5]] != 0
}

// MarkDead sets dead[k], k < count, to whether path first+k of st, out
// of src, crosses a channel the mask kills, and returns how many do.
func (w *MaskWalk) MarkDead(st *Store, src int, first PathID, count int, dead []bool) int {
	var c [4][MaxVLBHops]int32
	n, last := 0, int(first)+count-1
	for i := 0; i < count; i += 4 {
		w.h.step(st.ports, src, int(first)+i, last, &c)
		for k := range min(4, count-i) {
			if dead[i+k] = w.crosses(&c[k]); dead[i+k] {
				n++
			}
		}
	}
	return n
}

// Alive reports whether the route out of src over ports (at most
// MaxVLBHops) survives the mask; a zero-hop one lives with its switch.
func (w *MaskWalk) Alive(src int, ports []int8) bool {
	var slots [MaxVLBHops]int8
	copy(slots[:], ports)
	var c [4][MaxVLBHops]int32
	w.h.step(slots[:], src, 0, 0, &c)
	return !w.crosses(&c[0])
}
