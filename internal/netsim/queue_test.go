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
// headEmpty revision mark so promotion must revise them, source-queue
// packets pushed, popped and refused — are checked step by step
// against slice models, with audit walking every chain after each
// step.

// bufEntry is the model of one input-buffer entry: the slot and the
// hop and route word the head cache must show when it is promoted.
type bufEntry struct {
	slot int32
	hop  uint16
	rw   uint64
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
	srcs := make([][]int32, 4)

	newSlot := func() int32 {
		s := fa.alloc()
		fa.rec[s] = flitRec{dst: int32(r.Intn(tp.NumNodes()))}
		return s
	}
	push := func(b *bufQ) {
		f := newSlot()
		e := bufEntry{slot: f, hop: uint16(r.Intn(headEmpty)), rw: r.Uint64()}
		hop := e.hop
		if r.Intn(4) == 0 {
			// The revision mark: minRouter's Revise keeps the hops, so
			// the head takes the first of its 1..5 switch hops when it
			// becomes the head, at push or at promotion, and the rest
			// and the ejection stay in its word.
			hop = headEmpty
			k := 1 + r.Intn(WordMaxHops-1)
			var hops []RouteHop
			for range k {
				hops = append(hops, RouteHop{Port: int8(r.Intn(n.ports)), VC: int8(r.Intn(n.numVCs))})
			}
			full := append(hops, RouteHop{Port: int8(tp.NodeIndex(int(fa.rec[f].dst)))})
			e.hop = uint16(full[0].Port)<<8 | uint16(full[0].VC)
			e.rw, _ = PackWord(full[1:])
			rw, _ := PackWord(full)
			n.enqueue(b.sw, b.port, b.vc, b.pi, b.g, f, hop, rw)
			n.injected++
			b.m = append(b.m, e)
			return
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
		case op < 10: // one to four source packets
			for range 1 + r.Intn(4) {
				s := newSlot()
				q.push(fa, s)
				*sm = append(*sm, s)
				n.injected++
			}
		default: // pop, and refuse the packet half the time
			if len(*sm) == 0 {
				if q.n != 0 || q.peek() != -1 {
					t.Fatalf("step %d: empty source queue reports n=%d peek=%d", i, q.n, q.peek())
				}
				continue
			}
			f := q.pop(fa)
			if want := (*sm)[0]; f != want {
				t.Fatalf("step %d: source pop = %d, model %d", i, f, want)
			}
			*sm = (*sm)[1:]
			if r.Intn(2) == 0 {
				n.refusePacket(f, false)
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
				want = srcs[k][0]
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
// path on the linked source queue: refusing a popped packet must
// return its slot to the arena free list, leave the next packet
// queued, and count one refusal.
func TestRefusePacketDropsWholePacket(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	n := New(tp, DefaultConfig(), minRouter{tp}, traffic.Uniform{T: tp}, 0)
	fa := &n.fa
	freeBefore := len(fa.free)

	q := &n.nodeQ[0]
	doomed, second := fa.alloc(), fa.alloc()
	q.push(fa, doomed)
	q.push(fa, second)

	f := q.pop(fa) // the production path refuses an already-popped packet
	if f != doomed {
		t.Fatalf("popped %d, want the first packet %d", f, doomed)
	}
	n.refusePacket(f, true)

	if got := q.n; got != 1 {
		t.Fatalf("queue holds %d packets after refusal, want the second", got)
	}
	if got := q.peek(); got != second {
		t.Fatalf("queue head after refusal = %d, want second packet %d", got, second)
	}
	if got, want := len(fa.free), freeBefore+1; got != want || fa.free[len(fa.free)-1] != doomed {
		t.Fatalf("free list holds %d slots ending %d, want %d ending the refused %d",
			got, fa.free[len(fa.free)-1], want, doomed)
	}
	if n.measRefused != 1 || n.refusedInj != 1 {
		t.Fatalf("measRefused = %d, refusedInj = %d, want 1 and 1", n.measRefused, n.refusedInj)
	}
}
