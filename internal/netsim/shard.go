package netsim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"tugal/internal/exec"
)

// The cycle engine is a conservative parallel discrete-event engine,
// and the only stepper: a network with one shard, stepped by the
// calling goroutine alone, is its sequential case. Channel latencies
// are at least one cycle, so everything a router does in cycle t can
// only be observed elsewhere at t+1 or later — the guaranteed
// lookahead that lets all routers of a cycle be processed
// concurrently. Routers are partitioned into static contiguous shards;
// each cycle runs as barrier-separated phases:
//
//	deliver  (parallel)   each shard merges last cycle's mailboxes
//	                      into its wheel segment and drains this
//	                      cycle's bucket into its own routers
//	inject   (sequential) node-order injection, preserving the
//	                      trafficRNG/routeRNG draw order
//	allocate (parallel)   each shard arbitrates its own routers;
//	                      every event (flit hand-off, credit return)
//	                      goes into the mailbox of the destination
//	                      router's shard; ejections buffer per shard
//	eject    (sequential) per-shard ejection buffers drain in shard
//	                      order, fixing the floating-point
//	                      accumulation order of the statistics
//
// Determinism contract: results are bit-identical for every shard and
// worker count. Allocate scans routers in ascending order, so one
// shard's mailbox holds a cycle's events in ascending source router
// id; merging the per-(source, destination) mailboxes in fixed
// ascending source-shard order each cycle therefore appends every
// wheel bucket in (emission cycle, ascending source router id) order
// whatever the partition — shards are contiguous ascending id ranges —
// so every input buffer receives its flits in the same order, and all
// downstream arbitration decisions coincide.
// A lone shard is the degenerate case — one sender, one receiver, its
// emission order already the merge order — so there emit and
// returnCredit append straight to the shard's own wheel and the merge
// finds its mailboxes empty: a property of the input, not an option.
//
// Everything exchanged between shards is an index: events carry flit
// arena slots and ejection buffers hold slots, so mailbox traffic is
// pointer-free (no write barriers, nothing for the GC to scan, no
// nil-ing on drain). The flit arena itself is only written by the
// shard that owns the flit's current router — a flit is in exactly
// one input buffer — and by the sequential phases.

// simShard is one static partition of the routers. lo/hi bound the
// owned id range [lo, hi). active has bit (id-lo) set iff router id
// buffers any flit; enqueue/dequeue maintain it so allocate scans set
// bits instead of every router. The shard's input queues are chains
// in the flit arena (see Network.qMeta); only this shard writes their
// links. wheel is the shard's private timing-wheel segment, outbox[d]
// the mailbox of events this shard emitted for shard d during the
// current allocate phase, and eject the flit slots this shard ejected
// this cycle, in ascending router order.
type simShard struct {
	lo, hi int32
	active []uint64
	wheel  [][]event
	outbox [][]outEvent
	// cwheel/coutbox are the credit-return counterparts of
	// wheel/outbox (used when Network.fastCredits): cwheel buckets hold
	// bare credit indices, coutbox entries pack (wheel slot << 32 |
	// credit index) into a uint64. Credit delivery is a commutative
	// increment, so merge order needs no determinism guarantees.
	cwheel  [][]int32
	coutbox [][]uint64
	eject   []int32
}

// outEvent is a mailbox entry: the event plus its precomputed wheel
// slot (delivery slots are computed at emission time, when n.now is
// the emission cycle).
type outEvent struct {
	ev   event
	slot int32
}

// buildShards resolves the effective shard count and partitions the
// routers. More than one shard only engages when the routing function
// declares (via InFlightReviser) that it never revises routes in
// flight; anything else — including routing functions that predate the
// interface — is conservatively forced to one shard. The engine that
// steps the shards starts as a crew of one (see startEngine).
func (n *Network) buildShards() {
	sw := n.T.NumSwitches()
	s := n.Cfg.Shards
	if s < 1 {
		s = 1
	}
	if s > sw {
		s = sw
	}
	if s > 1 {
		ir, ok := n.routing.(InFlightReviser)
		if !ok || ir.RevisesInFlight() {
			s = 1
		}
	}
	size := (sw + s - 1) / s
	n.shardSize = int32(size)
	count := (sw + size - 1) / size
	n.shards = make([]simShard, count)
	for i := range n.shards {
		sh := &n.shards[i]
		sh.lo = int32(i * size)
		sh.hi = int32(min((i+1)*size, sw))
		sh.active = make([]uint64, (int(sh.hi-sh.lo)+63)/64)
		sh.wheel = make([][]event, n.wheelLen)
		sh.outbox = make([][]outEvent, count)
		sh.cwheel = make([][]int32, n.wheelLen)
		sh.coutbox = make([][]uint64, count)
		// A lone shard's buckets grow by doubling instead: its
		// worst-case reserve is the whole network's, most of it never
		// touched at the loads a one-shard run is chosen for.
		if count > 1 {
			n.seedShardBuffers(sh, count)
		}
	}
	n.engine = newShardEngine(1)
	n.workers = 1
}

// seedShardBuffers pre-sizes a shard's wheel buckets and mailboxes to
// their worst-case per-cycle occupancy, so the exchange machinery
// never allocates once built. The bounds are exact, not estimates:
//   - A wheel bucket drains every cycle, and a channel's fixed latency
//     maps each emission cycle to a distinct slot, so at drain time a
//     bucket holds at most one flit per channel inbound to the shard.
//   - Credits return on the paired reverse channel and each input port
//     dequeues at most SpeedUp times per cycle, so a credit bucket
//     holds at most SpeedUp entries per channel.
//   - A mailbox collects one allocate phase: at most one flit per
//     outbound channel (respectively SpeedUp credits), all of which
//     may address the same destination shard.
//
// The full reserve across shards is O(switches·radix·(wheelLen +
// shards)) — 10.8MB at two shards and 15.9MB at eight on the largest
// benchmarked case (sw702) — and is skipped
// (growth falls back to amortized doubling, steady allocations stay
// near but not exactly zero) when it would exceed a sanity budget.
func (n *Network) seedShardBuffers(sh *simShard, count int) {
	if n.shardSeedBytes(sh, count) > shardSeedBudget {
		return
	}
	chans := int(sh.hi-sh.lo) * n.nonTerm
	su := n.Cfg.SpeedUp
	for i := range sh.wheel {
		sh.wheel[i] = make([]event, 0, chans)
		sh.cwheel[i] = make([]int32, 0, chans*su)
	}
	for i := 0; i < count; i++ {
		sh.outbox[i] = make([]outEvent, 0, chans)
		sh.coutbox[i] = make([]uint64, 0, chans*su)
	}
}

// shardSeedBytes is the size of the reserve seedShardBuffers makes for
// one shard of a count-shard network.
func (n *Network) shardSeedBytes(sh *simShard, count int) int {
	chans := int(sh.hi-sh.lo) * n.nonTerm
	su := n.Cfg.SpeedUp
	perSlot := int(unsafe.Sizeof(event{})) + su*int(unsafe.Sizeof(int32(0)))
	perBox := int(unsafe.Sizeof(outEvent{})) + su*int(unsafe.Sizeof(uint64(0)))
	return chans * (n.wheelLen*perSlot + count*perBox)
}

// shardSeedBudget caps the per-shard pre-reserve of seedShardBuffers.
const shardSeedBudget = 32 << 20

// markActive sets the router's bit in its shard's active set; called
// when a router's buffered-flit count becomes non-zero.
func (n *Network) markActive(id int32) {
	sh := &n.shards[id/n.shardSize]
	i := uint32(id - sh.lo)
	sh.active[i>>6] |= 1 << (i & 63)
}

// clearActive clears the router's bit; called when the count drops
// back to zero. Both transitions touch only the router's own shard,
// and shards allocate their bitsets separately, so the parallel
// phases never write a shared word.
func (n *Network) clearActive(id int32) {
	sh := &n.shards[id/n.shardSize]
	i := uint32(id - sh.lo)
	sh.active[i>>6] &^= 1 << (i & 63)
}

// drainEject drains the per-shard ejection buffers in shard order =
// ascending router order, whatever the partition: this is the one
// place the Welford/histogram floating-point accumulation order (and
// the arena free-list order) is defined. Nothing reads delivery
// statistics or the free list between allocation and here, so
// deferring the deliver calls past the allocate barrier is not
// observable.
func (n *Network) drainEject() {
	for s := range n.shards {
		sh := &n.shards[s]
		for _, f := range sh.eject {
			n.deliver(f)
		}
		sh.eject = sh.eject[:0]
	}
}

// shardDeliver merges the mailboxes addressed to shard s — in fixed
// ascending source-shard order, the heart of the determinism
// contract — and then drains this cycle's wheel bucket into the
// shard's own routers.
func (n *Network) shardDeliver(s int) {
	sh := &n.shards[s]
	for src := range n.shards {
		box := n.shards[src].outbox[s]
		for i := range box {
			oe := &box[i]
			sh.wheel[oe.slot] = append(sh.wheel[oe.slot], oe.ev)
		}
		cbox := n.shards[src].coutbox[s]
		for _, e := range cbox {
			cs := uint32(e >> 32)
			sh.cwheel[cs] = append(sh.cwheel[cs], int32(uint32(e)))
		}
		// Only slot s of the source's outbox/coutbox arrays is touched
		// here, and only by this shard; the source refills them next
		// allocate phase, on the far side of a barrier.
		n.shards[src].outbox[s] = box[:0]
		n.shards[src].coutbox[s] = cbox[:0]
	}
	slot := int(n.nowSlot)
	cb := sh.cwheel[slot]
	for _, ci := range cb {
		n.credits[ci]++
	}
	sh.cwheel[slot] = cb[:0]
	bucket := sh.wheel[slot]
	for i := range bucket {
		ev := bucket[i]
		if ev.flit >= 0 {
			pi := int(ev.r)*n.ports + int(ev.port)
			n.enqueue(ev.r, int(ev.port), int(ev.vc), pi, pi*n.numVCs+int(ev.vc), ev.flit, ev.hop)
		} else {
			// Interleaved credit of an in-flight reviser (see
			// returnCredit).
			n.credits[(int(ev.r)*n.nonTerm+int(ev.port)-n.T.P)*n.numVCs+int(ev.vc)]++
		}
	}
	sh.wheel[slot] = bucket[:0]
}

// emit routes an event produced by shard sh during allocation into the
// mailbox of the destination router's shard, tagged with its delivery
// slot now+delay (or, on a one-shard network, straight onto the
// shard's own wheel). The wheel is sized maxLat+2 at construction; a
// delay at or beyond its length would wrap and deliver the event too
// early, silently corrupting timing, so any config path that raises a
// latency after New is rejected here.
func (n *Network) emit(sh *simShard, delay int, ev event) {
	if delay < 0 || delay >= n.wheelLen {
		panic(fmt.Sprintf("netsim: emit delay %d outside timing wheel [0,%d); "+
			"channel latencies must not change after New", delay, n.wheelLen))
	}
	slot := n.nowSlot + int32(delay)
	if slot >= int32(n.wheelLen) {
		slot -= int32(n.wheelLen)
	}
	if len(n.shards) == 1 {
		// A lone shard is its own only sender, so its emission order
		// already is the merge order: append to the wheel directly and
		// save the mailbox hop (measured at ≈6% of a sw702 cycle).
		sh.wheel[slot] = append(sh.wheel[slot], ev)
		return
	}
	d := ev.r / n.shardSize
	sh.outbox[d] = append(sh.outbox[d], outEvent{ev: ev, slot: slot})
}

// shardEngine is the persistent worker crew of one Network: the
// calling goroutine plus crew-1 parked workers. A Run steps with
// n.workers of them (at most the crew). With one worker — every
// one-shard network, and any Run the CPU-token budget grants no extra
// worker — nobody is woken and nobody is waited for: runCycle is then
// a plain deliver → inject → allocate loop on the calling goroutine,
// with no goroutine, channel operation or barrier wait in it.
//
// Workers park on the wake channel between cycles and run the whole
// fused deliver→(inject gate)→allocate sequence per wake: one channel
// send releases a worker for the cycle and one buffered completion
// send joins it, so a cycle costs 2·(workers-1) channel operations.
// The mid-cycle barrier pair — "all shards delivered" before the
// sequential inject, "inject done" before any allocate claim — is a
// pair of atomics the parties poll with runtime.Gosched, which on a
// loaded host deschedules as cleanly as a channel park without the
// wake/park round trip.
//
// Lifetime: the engine persists on its Network across Runs (creating
// a crew per Run was the last per-Run allocation source and kept the
// steady-state allocation figure from reading zero when Runs are
// short). Workers deliberately hold only the engine — the Network
// arrives through the wake channel each cycle — and teardown is wired
// to the Network's reclamation with runtime.AddCleanup, which the
// worker's engine-only reference cannot block. stop is idempotent so
// an explicit rebuild (a Run needs a larger crew) and the cleanup can
// race harmlessly.
//
// Memory ordering: all cross-worker handoffs are through channel
// operations or sync/atomic (sequentially consistent), so every write
// a shard makes in deliver is visible to inject, every inject write is
// visible to allocate, and every allocate write is visible to the
// eject drain — the barriers the determinism argument needs.
type shardEngine struct {
	crew int
	// cycle counts runCycle calls; it is written before the wake sends,
	// so a woken worker reads it race-free to gate on injDone.
	cycle int64
	// nextD/nextA are the deliver- and allocate-phase shard claim
	// counters; both are reset before workers wake, so the fused pass
	// needs no per-phase rendezvous to hand them out.
	nextD, nextA atomic.Int32
	// delivered counts workers (including the caller) whose deliver
	// claims ran dry; injDone publishes the cycle whose injection has
	// completed.
	delivered atomic.Int32
	injDone   atomic.Int64
	stopped   atomic.Bool
	wake      chan *Network
	done      chan struct{}
}

func newShardEngine(crew int) *shardEngine {
	e := &shardEngine{
		crew: crew,
		wake: make(chan *Network),
		done: make(chan struct{}, crew-1),
	}
	for i := 1; i < crew; i++ {
		go func() {
			for n := range e.wake {
				cycle := e.cycle
				e.deliverPass(n)
				for e.injDone.Load() < cycle {
					runtime.Gosched()
				}
				e.allocatePass(n)
				e.done <- struct{}{}
			}
		}()
	}
	return e
}

// runCycle executes one fused deliver→inject→allocate cycle across
// n.workers of the crew, the caller participating as worker zero. The
// n.lap calls are the phase probe (no-ops unless Config.PhaseTiming):
// the caller's own deliver and allocate shard work, the sequential
// inject, and — only when there is someone to wait for — the two crew
// waits as BarrierNS.
func (e *shardEngine) runCycle(n *Network) {
	w := n.workers
	e.cycle++
	e.nextD.Store(0)
	e.nextA.Store(0)
	e.delivered.Store(0)
	for i := 1; i < w; i++ {
		e.wake <- n
	}
	e.deliverPass(n)
	n.lap(&n.phase.DeliverNS)
	if w > 1 {
		for e.delivered.Load() < int32(w) {
			runtime.Gosched()
		}
		n.lap(&n.phase.BarrierNS)
	}
	n.inject()
	n.lap(&n.phase.InjectNS)
	e.injDone.Store(e.cycle)
	e.allocatePass(n)
	n.lap(&n.phase.AllocNS)
	if w > 1 {
		for i := 1; i < w; i++ {
			<-e.done
		}
		n.lap(&n.phase.BarrierNS)
	}
}

// deliverPass claims deliver-phase shards until none remain, then
// checks in at the pre-inject barrier.
func (e *shardEngine) deliverPass(n *Network) {
	for {
		s := int(e.nextD.Add(1)) - 1
		if s >= len(n.shards) {
			break
		}
		n.shardDeliver(s)
	}
	e.delivered.Add(1)
}

// allocatePass claims allocate-phase shards until none remain.
func (e *shardEngine) allocatePass(n *Network) {
	for {
		s := int(e.nextA.Add(1)) - 1
		if s >= len(n.shards) {
			return
		}
		n.allocateShard(s)
	}
}

// stop releases the worker goroutines; safe to call more than once
// (explicit rebuild and the GC-driven cleanup may both get here).
func (e *shardEngine) stop() {
	if e.stopped.CompareAndSwap(false, true) {
		close(e.wake)
	}
}

// startEngine sizes the worker crew for one Run, returning the
// teardown. With Config.ShardWorkers unset the crew is sized from the
// shared exec CPU-token budget — the calling goroutine (whose CPU the
// enclosing pool task already accounts for) plus one worker per
// acquired token — so a sharded simulation inside a saturated fan-out
// gets zero extra workers instead of oversubscribing, and the tokens
// return to the budget when the Run finishes. A one-shard network asks
// for nothing. The engine itself outlives the Run: it is rebuilt only
// when a Run needs more workers than it has, and reaped with the
// Network (see shardEngine).
func (n *Network) startEngine() func() {
	workers := n.Cfg.ShardWorkers
	tokens := 0
	if workers <= 0 {
		tokens = exec.AcquireTokens(len(n.shards) - 1)
		workers = 1 + tokens
	} else if workers > len(n.shards) {
		workers = len(n.shards)
	}
	n.workers = workers
	if workers > n.engine.crew {
		n.engine.stop()
		e := newShardEngine(workers)
		n.engine = e
		runtime.AddCleanup(n, func(e *shardEngine) { e.stop() }, e)
	}
	if tokens == 0 {
		// Shared no-op: a closure capturing tokens would be this
		// Run's one heap allocation.
		return releaseNothing
	}
	return func() {
		exec.ReleaseTokens(tokens)
	}
}

// releaseNothing is startEngine's teardown when no CPU tokens were
// acquired.
var releaseNothing = func() {}

// genCalendar holds every node's next packet-generation cycle and
// lists the nodes by it, so inject pops exactly the nodes due at n.now
// instead of scanning all of them. The lists are intrusive: slot[t&mask]
// heads the nodes due at cycle t, chained through next, for the cycles
// of a 512-slot wheel; a node due beyond the wheel waits on the parked
// list, chained through the same next, and moves into the wheel when
// base passes a multiple of the wheel length. A node is on at most one
// list, so the calendar's memory is a few words a node whatever the
// rate, and nothing allocates after init. pop must be called once per
// cycle with t one past the last (inject does): the slot is reclaimed
// on pop, which is what keeps slot collisions impossible.
//
// pop hands the due nodes out in ascending node id order (the
// injection RNG draw order every shard count relies on) by setting one
// bit per due node in a node-indexed scratch bitmap and scanning the
// words it touched: O(span/64 + due) a cycle, ascending by
// construction, whatever order the list holds.
type genCalendar struct {
	at     []int64 // at[v]: node v's next generation cycle, neverGen if none
	next   []int32 // next[v]: the node after v on its list, -1 at the end
	slot   [1 << genWheelBits]int32
	parked int32
	base   int64    // all cycles < base have been popped
	seen   []uint64 // scratch bitmap, one bit per node
	due    []int32  // pop's result, reused every cycle
}

// genWheelBits sizes the wheel. Every node waits on a list whatever
// its gap, so the wheel's length sets only how often the parked list is
// walked: once a wheel turn, each parked node read once.
const genWheelBits = 9

// init sizes the calendar for numNodes nodes, none of them listed.
func (c *genCalendar) init(numNodes int) {
	c.at = make([]int64, numNodes)
	c.next = make([]int32, numNodes)
	c.due = make([]int32, 0, numNodes)
	c.seen = make([]uint64, (numNodes+63)/64)
	for i := range c.slot {
		c.slot[i] = -1
	}
	c.parked = -1
}

// add lists node as due at cycle t (not before base).
func (c *genCalendar) add(t int64, node int32) {
	c.at[node] = t
	if t == neverGen {
		return
	}
	if t-c.base < 1<<genWheelBits {
		i := int(t) & (1<<genWheelBits - 1)
		c.next[node], c.slot[i] = c.slot[i], node
		return
	}
	c.next[node], c.parked = c.parked, node
}

// pop returns the nodes due at cycle t, ascending; the slice is valid
// until the next pop.
func (c *genCalendar) pop(t int64) []int32 {
	i := int(t) & (1<<genWheelBits - 1)
	v := c.slot[i]
	c.slot[i] = -1
	c.base = t + 1
	if c.base&(1<<genWheelBits-1) == 0 {
		// A wheel turn: every parked node now due inside the wheel moves
		// into its slot (none is overdue, as each was parked at least a
		// wheel length ahead of the base it was added at).
		p := c.parked
		c.parked = -1
		for p >= 0 {
			nx := c.next[p]
			c.add(c.at[p], p)
			p = nx
		}
	}
	lo, hi := len(c.seen), -1
	for ; v >= 0; v = c.next[v] {
		w := int(v >> 6)
		c.seen[w] |= 1 << (uint32(v) & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	b := c.due[:0]
	for w := lo; w <= hi; w++ {
		word := c.seen[w]
		c.seen[w] = 0
		for word != 0 {
			b = append(b, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.due = b
	return b
}
