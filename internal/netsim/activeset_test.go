package netsim

import (
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// Property test for the allocator's incremental scan state: after any
// sequence of enqueue/dequeue operations, portMask, vcMask, headCache,
// inOcc, flits and the shard active bitsets must agree with a
// brute-force recomputation from the underlying queues. These
// invariants are what let allocate visit only set bits — a stale mask
// or active bit silently drops or invents work — and what makes the
// rotated vcMask bit scan equivalent to probing every VC's head cache.

// checkScanState recomputes every derived structure of switch sw from
// its input queues and compares. hopOf gives the next hop of a queued
// flit slot whose remaining-route word is rw.
func checkScanState(t *testing.T, n *Network, sw int32, step int, hopOf func(f int32, rw uint64) uint16) {
	t.Helper()
	numVCs := n.numVCs
	ports := n.ports
	sh := &n.shards[sw/n.shardSize]
	var flits int32
	var portMask uint64
	for p := 0; p < ports; p++ {
		pi := int(sw)*ports + p
		var occ int32
		var vm uint16
		for v := 0; v < numVCs; v++ {
			g := pi*numVCs + v
			m := n.qMeta[g]
			qlen := int32(uint8(m>>8) - uint8(m))
			occ += qlen
			wantHead := uint16(headEmpty)
			if qlen > 0 {
				vm |= 1 << v
				wantHead = hopOf(int32(uint32(m>>32)), n.qRW[g])
			}
			if hc := uint16(m >> 16); hc != wantHead {
				t.Fatalf("step %d: router %d headCache[%d,%d] = %#x, recomputed %#x",
					step, sw, p, v, hc, wantHead)
			}
		}
		if n.vcMask[pi] != vm {
			t.Fatalf("step %d: router %d vcMask[%d] = %#x, recomputed %#x",
				step, sw, p, n.vcMask[pi], vm)
		}
		if n.inOcc[pi] != occ {
			t.Fatalf("step %d: router %d inOcc[%d] = %d, recomputed %d",
				step, sw, p, n.inOcc[pi], occ)
		}
		if vm != 0 {
			portMask |= 1 << p
		}
		flits += occ
	}
	if n.portMask[sw] != portMask {
		t.Fatalf("step %d: router %d portMask = %#x, recomputed %#x",
			step, sw, n.portMask[sw], portMask)
	}
	if n.flits[sw] != flits {
		t.Fatalf("step %d: router %d flits = %d, recomputed %d",
			step, sw, n.flits[sw], flits)
	}
	i := uint32(sw - sh.lo)
	active := sh.active[i>>6]&(1<<(i&63)) != 0
	if active != (flits > 0) {
		t.Fatalf("step %d: router %d active bit = %v with %d flits",
			step, sw, active, flits)
	}
}

// TestActiveSetInvariants drives randomized enqueue/dequeue sequences
// directly against the maintenance code (no allocator in the loop) and
// brute-force-verifies the scan state after every operation.
func TestActiveSetInvariants(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	cfg.Shards = 4 // exercise the multi-shard active bitsets too
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0)
	if shards, _ := n.ShardStats(); shards != 4 {
		t.Fatalf("built %d shards, want 4", shards)
	}
	r := rng.New(99)
	numVCs := n.Cfg.NumVCs
	ports := tp.Radix()
	// Fresh arena slots, each enqueued with an arbitrary next hop;
	// only cache agreement matters.
	hops := map[int32]uint16{}
	hopOf := func(f int32, _ uint64) uint16 { return hops[f] }
	mkFlit := func() int32 {
		s := n.fa.alloc()
		n.fa.rec[s] = flitRec{src: 0, dst: 1}
		hops[s] = uint16(r.Intn(ports))<<8 | uint16(r.Intn(numVCs))
		return s
	}
	type slotRef struct {
		sw       int32
		port, vc int
	}
	var occupied []slotRef // one entry per buffered flit, any order
	const steps = 4000
	for i := 0; i < steps; i++ {
		sw := int32(r.Intn(tp.NumSwitches()))
		port, vc := r.Intn(ports), r.Intn(numVCs)
		// Bias toward enqueue so buffers build depth — but never past
		// BufSize, the bound every production enqueue path (credits,
		// terminal backpressure) already enforces on the uint8 queue
		// cursors — and always dequeue when anything is buffered at the
		// sampled point.
		doEnq := len(occupied) == 0 || r.Float64() < 0.6
		if doEnq && n.queueLen(int(sw), port, vc) >= n.Cfg.BufSize {
			doEnq = false
		}
		if doEnq {
			f := mkFlit()
			pi := int(sw)*n.ports + port
			n.enqueue(sw, port, vc, pi, pi*n.numVCs+vc, f, hops[f], 0)
			occupied = append(occupied, slotRef{sw, port, vc})
			checkScanState(t, n, sw, i, hopOf)
		} else if len(occupied) > 0 {
			k := r.Intn(len(occupied))
			ref := occupied[k]
			occupied[k] = occupied[len(occupied)-1]
			occupied = occupied[:len(occupied)-1]
			pi := int(ref.sw)*n.ports + ref.port
			if f, _ := n.dequeue(ref.sw, ref.port, ref.vc, pi, pi*n.numVCs+ref.vc); f < 0 {
				t.Fatalf("step %d: dequeue returned invalid slot %d", i, f)
			}
			checkScanState(t, n, ref.sw, i, hopOf)
		}
	}
	// Drain everything and verify the global quiescent state: no
	// active bits, no masks, all caches empty.
	for _, ref := range occupied {
		pi := int(ref.sw)*n.ports + ref.port
		n.dequeue(ref.sw, ref.port, ref.vc, pi, pi*n.numVCs+ref.vc)
	}
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		checkScanState(t, n, int32(sw), steps, hopOf)
	}
	for s := range n.shards {
		for w, word := range n.shards[s].active {
			if word != 0 {
				t.Fatalf("drained network: shard %d active word %d = %#x", s, w, word)
			}
		}
	}
}

// TestActiveSetUnderTraffic repeats the brute-force check against the
// full simulator (inject + allocate + wheel delivery mutating the
// queues) at several cycles, sequential and sharded.
func TestActiveSetUnderTraffic(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		rf := minRouter{tp}
		n := New(tp, cfg, rf, traffic.Uniform{T: tp}, 0.4)
		// A minRouter flit's next hop is hop k-WordHops(rw) of its
		// k-hop route word, the ejection after the last.
		hopOf := func(f int32, rw uint64) uint16 {
			rec := n.fa.rec[f]
			w := rf.word(rec.src, rec.dst)
			i := WordHops(w) - WordHops(rw)
			if i == WordHops(w) {
				return uint16(tp.NodeIndex(int(rec.dst))) << 8
			}
			p, v := WordHop(w, i)
			return uint16(p)<<8 | uint16(v)
		}
		for c := 0; c < 600; c++ {
			n.step()
			if c%97 == 0 {
				for sw := 0; sw < tp.NumSwitches(); sw++ {
					checkScanState(t, n, int32(sw), c, hopOf)
				}
			}
		}
	}
}
