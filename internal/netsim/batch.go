package netsim

// Region-batched drains and Go-level software prefetch (DESIGN.md
// §4.11). The per-cycle wheel drain and the active-set allocation
// scan both walk dependent loads scattered across the qMeta/qRW/ring
// and credit arrays; at sw702 scale that is ~3k cache lines touched
// in data-dependent order, which the hardware prefetcher cannot run
// ahead of. Two mechanical transforms restore memory-level
// parallelism without changing a single observable result:
//
//   - drainBatched gathers a wheel bucket into reusable per-shard
//     scratch, counting-sorts it by destination router (stable, so
//     per-queue arrival order — the only order enqueue effects do not
//     commute under — is preserved), and executes the enqueues in
//     ascending qMeta-region order.
//
//   - every drain and scan loop early-touches the words a later
//     iteration will need, accumulating the loads into a sink that is
//     stored to the shard (so the compiler cannot delete them). Go
//     has no prefetch intrinsic; an ordinary load issues the same
//     cache fill and the out-of-order core overlaps the misses. The
//     touches are plain reads of memory this goroutine already owns
//     this phase, so results stay bit-identical and race-free.
//
// Batching is only applied when every event carries a pre-decoded
// hop and credit returns bypass the event wheel (n.fastCredits): an
// in-flight reviser (PAR) draws routeRNG and reads credit state at
// enqueue-time head arrival, making the cross-queue interleaving
// semantic. More than one shard implies fastCredits. n.batchDrain
// carries the gate; tests clear it to prove observation equivalence.

const (
	// drainPF/allocPF/creditPF are the lookahead distances (in loop
	// iterations) of the early-touch reads. Values were tuned on the
	// sw702 benchmark: far enough to cover an LLC miss under the
	// per-iteration work, near enough to stay inside the scratch
	// window.
	drainPF  = 12
	allocPF  = 4
	creditPF = 16
	// batchMin is the bucket size below which the counting sort costs
	// more than the locality buys. Both orders are observation
	// equivalent, so the cutover cannot affect results.
	batchMin = 24
)

// drainBatched executes one wheel bucket's flit arrivals in
// region-sorted order: a stable counting sort by destination router
// groups every enqueue touching the same qMeta/ring neighborhood,
// then the sweep runs in ascending router order with an early-touch
// of the queue words drainPF events ahead. Stability keeps each
// individual input queue's arrival order exactly as the unsorted
// drain produced it; enqueues into different queues only touch
// per-queue words and commutative per-switch/per-port counters, so
// the reordering is invisible to every later read.
func (n *Network) drainBatched(sh *simShard, bucket []event) {
	routers := int(sh.hi - sh.lo)
	cnt := sh.drainCnt
	if len(cnt) != routers+1 {
		cnt = make([]int32, routers+1)
		sh.drainCnt = cnt
	}
	if cap(sh.drainEv) < len(bucket) {
		sh.drainEv = make([]event, len(bucket)+len(bucket)/2)
	}
	dst := sh.drainEv[:len(bucket)]
	lo := sh.lo
	for i := range bucket {
		cnt[bucket[i].r-lo+1]++
	}
	for r := 2; r <= routers; r++ {
		cnt[r] += cnt[r-1]
	}
	for i := range bucket {
		d := bucket[i].r - lo
		dst[cnt[d]] = bucket[i]
		cnt[d]++
	}
	ports, numVCs := n.ports, n.numVCs
	var sink uint64
	for i := range dst {
		if i+drainPF < len(dst) {
			e := &dst[i+drainPF]
			pi := int(e.r)*ports + int(e.port)
			g := pi*numVCs + int(e.vc)
			sink += n.qMeta[g] + n.qRW[g] + uint64(uint32(n.inOcc[pi]))
		}
		ev := dst[i]
		pi := int(ev.r)*ports + int(ev.port)
		n.enqueue(sh, ev.r, int(ev.port), int(ev.vc), pi, pi*numVCs+int(ev.vc),
			ev.flit, ev.hop, ev.rw)
	}
	sh.sink += sink
	clear(cnt)
}

// drainCredits applies one credit-wheel bucket. Credit delivery is a
// bare commutative increment; the only cost is the scattered int16
// loads, so the loop rides creditPF misses ahead of itself.
func (n *Network) drainCredits(sh *simShard, cb []int32) {
	var sink uint64
	for i, ci := range cb {
		if i+creditPF < len(cb) {
			sink += uint64(uint16(n.credits[cb[i+creditPF]]))
		}
		n.credits[ci]++
	}
	sh.sink += sink
}
