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

// MaskWalk tests port sequences against one failure mask hop by hop
// through the hop table: the route table's MIN words are this walk.
// Read-only once built.
type MaskWalk struct {
	h *hopTable
	// dead holds, for each slot, channel or switch, 1 when the mask
	// kills it.
	dead []uint8
}

// NewMaskWalk prepares the walk of t's port sequences against mask.
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
	return f == 0
}
