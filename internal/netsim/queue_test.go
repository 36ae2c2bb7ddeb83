package netsim

import (
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// Property test for the queues threaded through the flit arena: input
// buffers (head in qMeta/qRW, the rest chained through flitArena.link
// with their own hop and route word, qTail past depth one) and source
// queues (srcQ chains). Random operation sequences — input buffers
// filled to BufSize and drained, pushes behind a head carrying the
// headEmpty sentinel so promotion must decode them, source-queue
// packets pushed whole, popped, and refused with their bodies — are
// checked step by step against slice models, with audit walking every
// chain after each step.

// bufEntry is the model of one input-buffer entry: the slot and the
// hop and route word the head cache must show when it is promoted.
type bufEntry struct {
	slot int32
	hop  uint16
	rw   uint64
}

// srcEntry is the model of one source-queue entry; pkt numbers the
// packet it belongs to, independently of the arena's headOf links.
type srcEntry struct {
	slot int32
	pkt  int
}

// peek returns a source queue's head slot, or -1 when it is empty.
func (q *srcQ) peek() int32 {
	if q.n == 0 {
		return -1
	}
	return q.head
}

func checkQueuesAgainstModel(t *testing.T, n *Network, r *rng.Source, steps int) {
	t.Helper()
	fa := &n.fa
	tp := n.T
	type bufQ struct {
		sw           int32
		port, vc, pi int
		g            int
		m            []bufEntry
	}
	// Six input buffers on switches of both shards, two of them on one
	// port, so their chains interleave in the arena.
	var bufs []*bufQ
	for _, at := range [][3]int{{0, 0, 0}, {0, 0, 1}, {1, 3, 2}, {7, 2, 0}, {tp.NumSwitches() - 1, 4, 3}, {12, 6, 1}} {
		pi := at[0]*n.ports + at[1]
		bufs = append(bufs, &bufQ{sw: int32(at[0]), port: at[1], vc: at[2], pi: pi, g: pi*n.numVCs + at[2]})
	}
	srcs := make([][]srcEntry, 4)
	pkt := 0

	newSlot := func(headOf int32) int32 {
		s := fa.alloc()
		fa.rec[s].headOf = headOf
		fa.rec[s].hopIdx = 0
		fa.rec[s].flags = 0
		route := append(fa.routeBlock(s), RouteHop{Port: int8(r.Intn(n.ports)), VC: int8(r.Intn(n.numVCs))})
		fa.setRoute(s, route)
		return s
	}
	push := func(b *bufQ) {
		f := newSlot(-1)
		e := bufEntry{slot: f, hop: uint16(r.Intn(headEmpty)), rw: r.Uint64()}
		hop := e.hop
		if r.Intn(4) == 0 {
			// The lazy sentinel: decoded from the route when it
			// becomes the head, at push or at promotion.
			hop = headEmpty
			h := fa.rec[f].route[0]
			e.hop = uint16(uint8(h.Port))<<8 | uint16(uint8(h.VC))
		}
		n.enqueue(b.sw, b.port, b.vc, b.pi, b.g, f, hop, e.rw)
		n.injected++
		b.m = append(b.m, e)
	}
	pop := func(i int, b *bufQ) {
		f, rw := n.dequeue(b.sw, b.port, b.vc, b.pi, b.g)
		if want := b.m[0]; f != want.slot || rw != want.rw {
			t.Fatalf("step %d: dequeue = (%d, %#x), model (%d, %#x)", i, f, rw, want.slot, want.rw)
		}
		b.m = b.m[1:]
		fa.release(f)
		n.delivered++
	}
	for i := 0; i < steps; i++ {
		b := bufs[r.Intn(len(bufs))]
		k := r.Intn(len(srcs))
		q, sm := &n.nodeQ[k], &srcs[k]
		switch op := r.Intn(12); {
		case op < 4: // push, never past BufSize
			if len(b.m) < n.Cfg.BufSize {
				push(b)
			}
		case op < 5: // fill to BufSize
			for len(b.m) < n.Cfg.BufSize {
				push(b)
			}
		case op < 7:
			if len(b.m) > 0 {
				pop(i, b)
			}
		case op < 8: // drain
			for len(b.m) > 0 {
				pop(i, b)
			}
		case op < 10: // a source packet of 1-4 flits, pushed whole
			pkt++
			head := newSlot(-1)
			for body := r.Intn(4); body >= 0; body-- {
				s := head
				if len(*sm) > 0 && (*sm)[len(*sm)-1].pkt == pkt {
					s = newSlot(head)
				}
				q.push(fa, s)
				*sm = append(*sm, srcEntry{s, pkt})
				n.injected++
			}
		default: // pop, and refuse the packet when the head is a head
			if len(*sm) == 0 {
				if q.n != 0 || q.peek() != -1 {
					t.Fatalf("step %d: empty source queue reports n=%d peek=%d", i, q.n, q.peek())
				}
				continue
			}
			f := q.pop(fa)
			want := (*sm)[0]
			if f != want.slot {
				t.Fatalf("step %d: source pop = %d, model %d", i, f, want.slot)
			}
			*sm = (*sm)[1:]
			if fa.rec[f].headOf < 0 && r.Intn(2) == 0 {
				n.refusePacket(f, q, false)
				for len(*sm) > 0 && (*sm)[0].pkt == want.pkt {
					*sm = (*sm)[1:]
				}
			} else {
				fa.release(f)
				n.delivered++
			}
		}
		for _, b := range bufs {
			if got := n.queueLen(int(b.sw), b.port, b.vc); got != len(b.m) {
				t.Fatalf("step %d: queue %d holds %d, model %d", i, b.g, got, len(b.m))
			}
			if len(b.m) == 0 {
				continue
			}
			m := n.qMeta[b.g]
			if f, hop, want := int32(uint32(m>>32)), uint16(m>>16), b.m[0]; f != want.slot || hop != want.hop || n.qRW[b.g] != want.rw {
				t.Fatalf("step %d: queue %d head (%d, %#x, %#x), model (%d, %#x, %#x)",
					i, b.g, f, hop, n.qRW[b.g], want.slot, want.hop, want.rw)
			}
		}
		for k := range srcs {
			q := &n.nodeQ[k]
			want := int32(-1)
			if len(srcs[k]) > 0 {
				want = srcs[k][0].slot
			}
			if int(q.n) != len(srcs[k]) || q.peek() != want {
				t.Fatalf("step %d: source queue %d: n=%d peek=%d, model %d entries, head %d", i, k, q.n, q.peek(), len(srcs[k]), want)
			}
		}
		if _, err := n.audit(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestQueueChainsProperty(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	for _, buf := range []int{1, 2, 5, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := DefaultConfig()
			cfg.BufSize = buf
			cfg.Shards = 2
			n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0)
			checkQueuesAgainstModel(t, n, rng.New(seed), 3000)
		}
	}
}

// TestRefusePacketDropsWholePacket pins the degraded-refusal drop
// path on the linked source queue: refusing a popped head must also
// pop exactly its own body flits (contiguous behind it), leave the
// next packet queued, and return every dropped slot to the arena free
// list.
func TestRefusePacketDropsWholePacket(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	cfg.PacketSize = 4
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0)
	fa := &n.fa
	freeBefore := len(fa.free)

	mkPacket := func(q *srcQ, size int) int32 {
		head := fa.alloc()
		fa.rec[head].headOf = -1
		fa.rec[head].pending = int32(size)
		q.push(fa, head)
		for k := 1; k < size; k++ {
			b := fa.alloc()
			fa.rec[b].headOf = head
			fa.rec[b].pending = 0
			q.push(fa, b)
		}
		return head
	}

	q := &n.nodeQ[0]
	doomed := mkPacket(q, 4)
	second := mkPacket(q, 4)

	f := q.pop(fa) // the production path refuses an already-popped head
	if f != doomed {
		t.Fatalf("popped %d, want the first head %d", f, doomed)
	}
	n.refusePacket(f, q, true)

	if got := q.n; got != 4 {
		t.Fatalf("queue holds %d flits after refusal, want the 4 of the second packet", got)
	}
	if got := q.peek(); got != second {
		t.Fatalf("queue head after refusal = %d, want second packet's head %d", got, second)
	}
	if got, want := len(fa.free), freeBefore+4; got != want {
		t.Fatalf("free list holds %d slots, want %d (all 4 dropped flits returned)", got, want)
	}
	if n.measRefused != 1 {
		t.Fatalf("measRefused = %d, want 1", n.measRefused)
	}
	if n.refusedInj != 4 {
		t.Fatalf("refusedInj = %d, want 4 (whole packet)", n.refusedInj)
	}
}
