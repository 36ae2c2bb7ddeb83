package netsim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"time"

	"tugal/internal/topo"
)

// RunResult summarizes one simulation at one offered load.
type RunResult struct {
	// OfferedLoad is the realized injection rate (packets/cycle/node)
	// during the measurement window.
	OfferedLoad float64
	// Throughput is the accepted rate: packets delivered per cycle
	// per node during the measurement window.
	Throughput float64
	// AvgLatency is the mean packet latency (generation to ejection,
	// including source queueing) of packets generated during the
	// measurement window — of those delivered by the drain deadline
	// (measEnd + drainCap). When more than 2 % of the measured packets
	// are still undelivered at that deadline the delivered-only mean
	// would underestimate, and AvgLatency is +Inf instead.
	AvgLatency float64
	// P50Latency and P99Latency are latency quantiles of the same
	// packets (bucket-resolution approximations).
	P50Latency float64
	P99Latency float64
	// AvgHops is the mean switch-hop count of measured packets.
	AvgHops float64
	// VLBFraction is the share of measured packets routed on a
	// non-minimal (VLB) path.
	VLBFraction float64
	// Saturated applies the paper's rule, AvgLatency > Config.LatencyCap,
	// to the AvgLatency above: a run is saturated when the mean latency
	// of its delivered measured packets exceeds the cap, or when more
	// than 2 % of them never drained (+Inf exceeds every cap). It is the
	// only field a saturation search reads.
	Saturated bool
	// Measured and Undelivered count measurement-window packets.
	Measured    int64
	Undelivered int64
	// Refused counts measurement-window packets refused under a
	// failure mask (dead endpoint switch or no surviving route); they
	// count toward OfferedLoad but can never be delivered, so drain
	// and the undelivered statistics treat them as resolved.
	Refused int64
	// Cycles is the network's total simulated cycle count at the end
	// of the Run — cumulative since New, not per call. On a warm
	// network (repeated Run calls) each result's Cycles therefore
	// includes all earlier phases.
	Cycles int64
	// Channels holds per-channel utilization when
	// Config.CollectChanStats was set (nil otherwise).
	Channels *ChannelStats
	// DeadlockSuspected is set when the watchdog observed flits in
	// flight but no ejection for watchdogWindow consecutive cycles —
	// a routing/VC configuration bug, never a legitimate state of
	// the provided deadlock-free schemes.
	DeadlockSuspected bool
}

// watchdogWindow is the no-progress horizon for deadlock suspicion:
// longer than any credit round trip plus arbitration transients.
const watchdogWindow = 2000

// Run simulates warmup cycles, a measurement window, and a drain
// phase (capped at drainCap cycles) and returns the results. The
// paper's settings are warmup=30000 (three 10000-cycle windows),
// measure=10000. measure must be positive: OfferedLoad and
// Throughput are rates per measurement cycle, so a zero or negative
// window has no defined result (it would produce NaN/Inf statistics).
func (n *Network) Run(warmup, measure, drainCap int64) RunResult {
	res, _ := n.RunContext(context.TODO(), warmup, measure, drainCap)
	return res
}

// RunContext is Run that gives up when ctx is done. ctx is polled once
// a cycle, before the cycle is stepped, so a cancellation costs at
// most the cycle in flight; one that never comes changes nothing (Run
// is this function under a context that is never done).
//
// An aborted run returns ctx's error and a RunResult in which only
// Cycles is set (the cumulative count actually stepped): the window
// was cut short, so no statistic of it exists and nothing may read
// one. The shard workers' CPU tokens go back to the exec budget as
// after a finished run.
func (n *Network) RunContext(ctx context.Context, warmup, measure, drainCap int64) (RunResult, error) {
	if measure <= 0 {
		panic(fmt.Sprintf("netsim: Run requires measure > 0 (got %d); "+
			"rates are normalized by the measurement window", measure))
	}
	n.resetMeasurement()
	n.measBegin = n.now + warmup
	n.measEnd = n.measBegin + measure
	if n.Cfg.CollectChanStats && n.chanCount == nil {
		n.chanCount = make([]int64, n.T.NumSwitches()*(n.T.Radix()-n.T.P))
	}
	// The shards are stepped by a worker crew sized off the shared
	// CPU-token budget for the duration of this Run (one worker — the
	// calling goroutine — at one shard; see startEngine).
	stop := n.startEngine()
	defer stop()
	// Warmup and measurement run to measEnd; the drain then runs until
	// every measured packet is delivered or refused, or to the deadline.
	deadline := n.measEnd + drainCap
	done := ctx.Done()
	for n.now < n.measEnd ||
		(n.measDeliv+n.measRefused < n.measCount && n.now < deadline) {
		select {
		case <-done:
			return RunResult{Cycles: n.now}, ctx.Err()
		default:
		}
		n.step()
	}
	nodes := float64(n.T.NumNodes())
	res := RunResult{
		OfferedLoad: float64(n.measCount) / (nodes * float64(measure)),
		Throughput:  float64(n.deliveredIn) / (nodes * float64(measure)),
		AvgHops:     n.measHops.Mean(),
		Measured:    n.measCount,
		Undelivered: n.measCount - n.measDeliv - n.measRefused,
		Refused:     n.measRefused,
		Cycles:      n.now,
	}
	if n.measInj > 0 {
		res.VLBFraction = float64(n.measVLB) / float64(n.measInj)
	}
	res.AvgLatency = n.measLatency.Mean()
	res.P50Latency = n.measHist.Quantile(0.5)
	res.P99Latency = n.measHist.Quantile(0.99)
	// If a non-trivial share of measured packets never drained, the
	// delivered-only mean underestimates: report saturation outright.
	if n.measCount > 0 && float64(res.Undelivered) > 0.02*float64(n.measCount) {
		res.AvgLatency = math.Inf(1)
	}
	res.Saturated = res.AvgLatency > n.Cfg.LatencyCap
	if n.chanCount != nil {
		res.Channels = n.channelStats(measure)
	}
	res.DeadlockSuspected = n.deadlockSuspected()
	return res, nil
}

// deadlockSuspected reports whether flits are in flight but nothing
// has been delivered for watchdogWindow cycles.
func (n *Network) deadlockSuspected() bool {
	if n.injected == n.delivered+n.refusedInj {
		return false
	}
	return n.now-n.lastDeliver >= watchdogWindow
}

// channelStats aggregates the per-channel counters.
func (n *Network) channelStats(measure int64) *ChannelStats {
	t := n.T
	nonTerm := t.Radix() - t.P
	cs := &ChannelStats{}
	var lSum, gSum float64
	var lN, gN int
	for sw := 0; sw < t.NumSwitches(); sw++ {
		for o := 0; o < nonTerm; o++ {
			u := float64(n.chanCount[sw*nonTerm+o]) / float64(measure)
			if t.KindOfPort(o+t.P) == topo.Global {
				gSum += u
				gN++
				if u > cs.GlobalMax {
					cs.GlobalMax = u
				}
			} else {
				lSum += u
				lN++
				if u > cs.LocalMax {
					cs.LocalMax = u
				}
			}
		}
	}
	if lN > 0 {
		cs.LocalMean = lSum / float64(lN)
		if cs.LocalMean > 0 {
			cs.LocalMaxOverMean = cs.LocalMax / cs.LocalMean
		}
	}
	if gN > 0 {
		cs.GlobalMean = gSum / float64(gN)
		if cs.GlobalMean > 0 {
			cs.GlobalMaxOverMean = cs.GlobalMax / cs.GlobalMean
		}
	}
	return cs
}

// resetMeasurement clears window statistics, making Run callable
// repeatedly on a warm network.
func (n *Network) resetMeasurement() {
	n.measLatency.Reset()
	n.measHist.Reset()
	n.measHops.Reset()
	n.measVLB, n.measInj, n.measCount, n.measDeliv, n.deliveredIn = 0, 0, 0, 0, 0
	n.measRefused = 0
	if n.chanCount != nil {
		for i := range n.chanCount {
			n.chanCount[i] = 0
		}
	}
}

// step advances the simulation by one cycle: the engine's fused
// deliver → inject → allocate pass over the shards (shard.go), then
// the ejection drain. There is one cycle loop for every shard and
// worker count — a lone shard stepped by the calling goroutine is the
// sequential case of it — and results are bit-identical across all of
// them.
func (n *Network) step() {
	n.nowVC = int32(n.now % int64(n.numVCs))
	n.nowSlot = int32(n.now % int64(n.wheelLen))
	if n.Cfg.PhaseTiming {
		n.phase.Cycles++
		n.lapAt = time.Now()
	}
	n.engine.runCycle(n)
	n.drainEject()
	n.lap(&n.phase.EjectNS)
	n.now++
}

// PhaseTimes is the accumulated wall-clock breakdown of the cycle
// loop's phases across every cycle stepped with Config.PhaseTiming
// set, as seen by the coordinating goroutine: DeliverNS and AllocNS
// are its own share of the shard work, InjectNS and EjectNS the two
// sequential phases, and BarrierNS the time it spent waiting on the
// rest of the crew (two waits a cycle: pre-inject and end-of-cycle;
// zero when the crew is one worker).
type PhaseTimes struct {
	Cycles    int64
	DeliverNS int64
	InjectNS  int64
	AllocNS   int64
	EjectNS   int64
	BarrierNS int64
}

// PhaseTimes returns the breakdown accumulated so far; zero-valued
// unless Config.PhaseTiming was set during the cycles of interest.
func (n *Network) PhaseTimes() PhaseTimes { return n.phase }

// ResetPhaseTimes clears the accumulators (e.g. after warmup, so a
// probe window's breakdown is not diluted by ramp cycles).
func (n *Network) ResetPhaseTimes() { n.phase = PhaseTimes{} }

// lap is the cycle loop's phase probe: it books the wall time since
// the previous lap (step starts the clock) to *acc. With
// Config.PhaseTiming off it does nothing, so the timed and untimed
// cycle are the same calls in the same order and timing cannot change
// results.
func (n *Network) lap(acc *int64) {
	if !n.Cfg.PhaseTiming {
		return
	}
	now := time.Now()
	*acc += now.Sub(n.lapAt).Nanoseconds()
	n.lapAt = now
}

// headEmpty marks an empty input buffer in the hop field of qMeta, and
// a hop still to be decided in an event or queue entry: it is what a
// route word's revision mark decodes to. qmEmpty is that field in word
// position.
const (
	headEmpty        = WordPortMask<<8 | WordVCMask
	qmEmpty   uint64 = headEmpty << 16
)

// sourceQueueCap bounds per-node source queues. A 512-deep queue at
// any sustainable rate implies a queueing delay far above the
// 500-cycle saturation threshold, so the cap cannot mask saturation;
// it only bounds memory on deeply oversubscribed runs.
const sourceQueueCap = 512

// enqueue pushes flit slot f into input buffer (port, vc) of switch
// sw, maintaining occupancy counters, scan masks and the head cache.
// pi and g are the caller's precomputed port index (sw*ports+port)
// and global queue slot (pi*numVCs+vc) — every call site already has
// them in hand for its own indexing, so enqueue takes them instead
// of redoing the multiply chain per flit. hop is the flit's
// pre-decoded next hop at this router (headEmpty for a Revisable flit
// at its gateway); its route word is already in its link. PAR revision
// fires when the flit becomes the buffer head (the point a progressive
// router recomputes the route).
func (n *Network) enqueue(sw int32, port, vc, pi, g int, f int32, hop uint16) {
	m := n.qMeta[g]
	head, tail := uint8(m), uint8(m>>8)
	n.inOcc[pi]++
	n.flits[sw]++
	if n.flits[sw] == 1 {
		n.markActive(sw)
	}
	n.vcMask[pi] |= 1 << vc
	n.portMask[sw] |= 1 << port
	if head == tail {
		// Empty queue: the new head's hop lives in qMeta, and no link
		// is threaded.
		if hop == headEmpty {
			hop = n.revise(sw, f)
		}
		n.qMeta[g] = uint64(head) | uint64(tail+1)<<8 | uint64(hop)<<16 | uint64(uint32(f))<<32
	} else {
		link := n.fa.link
		link[f].hop = hop
		prev := int32(uint32(m >> 32))
		if tail-head > 1 {
			prev = n.qTail[g]
		}
		link[prev].next = f
		n.qTail[g] = f
		n.qMeta[g] = m&^(0xff<<8) | uint64(tail+1)<<8
	}
}

// dequeue pops the head of input buffer (port, vc) of switch sw,
// maintaining counters, masks and the head cache, and returns its slot
// and its hop at the next router, which it takes off the front of the
// flit's route word, advancing the word in place. (An ejecting flit's
// word is empty: its hop and advanced word mean nothing, and injection
// writes a fresh word before the slot is queued again.) pi/g as in
// enqueue.
func (n *Network) dequeue(sw int32, port, vc, pi, g int) (int32, uint16) {
	m := n.qMeta[g]
	head, tail := uint8(m), uint8(m>>8)
	f := int32(uint32(m >> 32))
	link := n.fa.link
	head++
	n.inOcc[pi]--
	n.flits[sw]--
	if n.flits[sw] == 0 {
		n.clearActive(sw)
	}
	if head != tail {
		// Promote the head's successor, with the hop its link holds,
		// into the qMeta head cache.
		next := link[f].next
		hop := link[next].hop
		if hop == headEmpty {
			hop = n.revise(sw, next)
		}
		n.qMeta[g] = uint64(head) | uint64(tail)<<8 | uint64(hop)<<16 | uint64(uint32(next))<<32
	} else {
		n.qMeta[g] = uint64(head) | uint64(tail)<<8 | qmEmpty
		n.vcMask[pi] &^= 1 << vc
		if n.vcMask[pi] == 0 {
			n.portMask[sw] &^= 1 << port
		}
	}
	ln := &link[f]
	rw := ln.rw
	p, v := WordHop(rw, 0)
	ln.rw = rw>>wordFieldBits&^wordCntMask | (rw&wordCntMask - 1)
	return f, uint16(p)<<8 | uint16(v)
}

// revise runs PAR's revision for slot f, which just became the head
// of an input buffer at switch sw with its remaining-route word (its
// switch hops from sw, then the ejection) in its link. It returns the
// flit's next hop and leaves the word after it in the link. Revisable
// flits only exist at one shard (injectNode panics otherwise), so the
// shared scratch view is safe.
func (n *Network) revise(sw, f int32) uint16 {
	rec := &n.fa.rec[f]
	ln := &n.fa.link[f]
	rw := ln.rw
	k := WordHops(rw) - 1
	v := &n.scratch
	v.Src, v.Dst, v.GenTime = rec.src, rec.dst, rec.genTime
	v.Measured = rec.flags&fMeasured != 0
	v.MinRouted = rec.flags&fMinRouted != 0
	v.Revisable = true
	v.Word = rw&^(wordField<<(3+uint(k)*wordFieldBits)|wordCntMask) | uint64(k)
	n.routing.Revise(n, n.routeRNG, v, sw)
	rec.hops += int16(WordHops(v.Word) - k)
	var hop uint16
	hop, ln.rw = n.firstHop(v.Word, rec.dst)
	return hop
}

// firstHop splits a route word of switch hops from the current switch
// into the next hop and the remaining-route word after it, which ends
// with the ejection hop at dst's terminal port (VC 0).
func (n *Network) firstHop(w uint64, dst int32) (uint16, uint64) {
	eject := uint64(n.T.NodeIndex(int(dst)))
	k := WordHops(w)
	if k == 0 {
		return uint16(eject) << 8, 0
	}
	p, vc := WordHop(w, 0)
	rest := w>>wordFieldBits&^wordCntMask | uint64(k-1)
	return uint16(p)<<8 | uint16(vc), rest | WordPort(k-1, eject) + 1
}

// inject generates new packets and moves source-queue heads into the
// terminal input buffers of their switches, computing routes at that
// moment from current queue state (the source-router decision).
//
// Only nodes that can do anything this cycle are visited: the
// generation calendar yields the nodes whose next packet is due now,
// and srcActive lists the nodes with backed-up source queues. The two
// sorted sequences are merged so nodes are still processed in
// ascending id order — the exact trafficRNG/routeRNG draw order of
// the full scan this replaces — making injection O(active) per cycle
// instead of O(nodes). Injection always runs on the calling
// goroutine, sequentially, whatever the shard and worker count.
func (n *Network) inject() {
	due := n.genCal.pop(n.now)
	active := n.srcActive
	next := n.srcNext[:0]
	i, j := 0, 0
	for i < len(due) || j < len(active) {
		var node int32
		isDue := false
		if j >= len(active) || (i < len(due) && due[i] <= active[j]) {
			node = due[i]
			isDue = true
			if j < len(active) && active[j] == node {
				j++
			}
			i++
		} else {
			node = active[j]
			j++
		}
		next = n.injectNode(node, isDue, next)
	}
	n.srcActive = next
	n.srcNext = active[:0]
}

// injectNode runs one node's injection turn: packet generation when
// its calendar entry is due, then one drain attempt from its source
// queue into the terminal port. It appends the node to nextActive iff
// the queue remains non-empty (the srcActive invariant: exactly the
// nodes with queued flits, ascending) and returns the slice.
func (n *Network) injectNode(node int32, due bool, nextActive []int32) []int32 {
	t := n.T
	fa := &n.fa
	if due {
		gen := n.genCal.at[node]
		// Far beyond saturation a source queue only adds latency
		// that is already far past the saturation threshold;
		// capping it bounds memory without changing any
		// pre-saturation statistic. Generation is skipped but the
		// queue keeps draining below.
		var dst int
		var ok bool
		if fd := n.fixedDest; fd != nil {
			dst = int(fd[node])
			ok = dst >= 0
		} else {
			dst, ok = n.pattern.Dest(n.trafficRNG, int(node))
		}
		if ok && dst != int(node) &&
			n.nodeQ[node].n < sourceQueueCap {
			if fail := n.Cfg.Failures; fail != nil &&
				(fail.SwitchDead(t.SwitchOfNode(int(node))) || fail.SwitchDead(t.SwitchOfNode(dst))) {
				// Dead endpoint switch: the packet is refused before it
				// exists. The traffic RNG draw above already happened,
				// so surviving pairs see the exact same sequence.
				if gen >= n.measBegin && gen < n.measEnd {
					n.measCount++
					n.measRefused++
				}
			} else {
				f := fa.alloc()
				flags := uint16(0)
				if gen >= n.measBegin && gen < n.measEnd {
					flags = fMeasured
					n.measCount++
				}
				fa.rec[f] = flitRec{src: node, dst: int32(dst), genTime: gen, flags: flags}
				n.nodeQ[node].push(fa, f)
				n.injected++
			}
		}
		n.genCal.add(n.geomNext(gen), node)
	}
	q := &n.nodeQ[node]
	if q.n == 0 {
		return nextActive
	}
	sw := int32(t.SwitchOfNode(int(node)))
	termPort := t.NodeIndex(int(node))
	// Terminal channel: one flit per cycle into VC 0, bounded by
	// the input buffer depth.
	if n.queueLen(int(sw), termPort, 0) >= n.Cfg.BufSize {
		return append(nextActive, node)
	}
	// Compute the packet's route now, from current source-router state.
	f := q.pop(fa)
	rec := &fa.rec[f]
	v := &n.scratch
	v.Src, v.Dst, v.Word = rec.src, rec.dst, 0
	v.GenTime = rec.genTime
	v.Measured = rec.flags&fMeasured != 0
	v.MinRouted, v.Revisable = false, false
	if !n.routing.SourceRoute(n, n.routeRNG, v) ||
		(n.Cfg.Failures != nil && !n.routeAlive(sw, v.Word)) {
		// The routing function found no surviving candidate, or handed
		// back a route crossing dead gear — refuse the packet here at
		// the injection port rather than blackhole it mid-network.
		n.refusePacket(f, v.Measured)
		if q.n > 0 {
			nextActive = append(nextActive, node)
		}
		return nextActive
	}
	k := WordHops(v.Word)
	if k > WordMaxHops || v.Revisable && k == WordMaxHops {
		panic(fmt.Sprintf("netsim: routing function produced a %d-hop route word "+
			"(revisable %v); a word holds %d hops, a revisable one %d",
			k, v.Revisable, WordMaxHops, WordMaxHops-1))
	}
	rec.hops = int16(k)
	if v.MinRouted {
		rec.flags |= fMinRouted
	}
	if v.Measured {
		n.measInj++
		if !v.MinRouted {
			n.measVLB++
		}
	}
	hop, rw := n.firstHop(v.Word, rec.dst)
	if v.Revisable {
		if len(n.shards) > 1 {
			panic("netsim: routing function declared RevisesInFlight()==false " +
				"but produced a Revisable flit on a multi-shard network")
		}
		// The revision mark goes in front of the hops after the first,
		// so the flit's hop out of the next switch is decided when it
		// reaches the head of a buffer there.
		rw = (rw&^wordCntMask)<<wordFieldBits | wordField<<3 | (rw&wordCntMask + 1)
	}
	fa.link[f].rw = rw
	pi := int(sw)*n.ports + termPort
	n.enqueue(sw, termPort, 0, pi, pi*n.numVCs, f, hop)
	if q.n > 0 {
		nextActive = append(nextActive, node)
	}
	return nextActive
}

// routeAlive walks a route word from its source switch and reports
// whether every channel it would traverse — and the final (ejecting)
// switch — survives the failure mask. It is the simulator's backstop
// against a routing function that is not failure-aware: such routes
// are refused at injection instead of wedging flow control
// mid-network.
func (n *Network) routeAlive(sw int32, w uint64) bool {
	fail := n.Cfg.Failures
	cur := int(sw)
	for i := range WordHops(w) {
		p, _ := WordHop(w, i)
		if fail.ChannelDead(cur, int(p)) {
			return false
		}
		next, ok := n.T.PeerOfPortOK(cur, int(p))
		if !ok {
			return false
		}
		cur = next
	}
	return !fail.SwitchDead(cur)
}

// refusePacket drops popped packet slot f, recording the refusal.
// Runs on the sequential injection path only, so the counters stay
// deterministic under sharding.
func (n *Network) refusePacket(f int32, measured bool) {
	if measured {
		n.measRefused++
	}
	n.refusedInj++
	n.fa.release(f)
}

// allocateShard performs switch allocation for every active router
// of shard s, in ascending router-id order. The active bitset —
// maintained exactly by enqueue/dequeue — replaces the former scan
// over all routers; each word is iterated from a copy, so a router
// clearing its own bit on going idle does not perturb the scan.
func (n *Network) allocateShard(s int) {
	sh := &n.shards[s]
	base := int(sh.lo)
	for w, word := range sh.active {
		for word != 0 {
			b := trailingZeros(word)
			word &= word - 1
			n.allocateRouter(base+w*64+b, sh)
		}
	}
}

// allocateRouter arbitrates one router: up to SpeedUp passes per
// cycle, one grant per input port per pass, one flit per output
// channel per cycle, one ejection per terminal port per cycle,
// credit-gated. It touches only the router's own state; everything
// outbound goes through emit (into the destination shard's mailbox)
// or, for ejections, the shard's ejection buffer — which is what
// makes the phase safe to run concurrently across shards.
//
// The scan walks the occupancy masks: ports in rotated priority
// order off portMask, then that port's non-empty VCs off vcMask,
// rotated to the cycle's starting VC by a double-shift so the visit
// order is exactly the sequential (vcStart + vi) % numVCs probe
// order of the pre-arena implementation — bit-identity depends on it.
func (n *Network) allocateRouter(swi int, sh *simShard) {
	termPorts := n.T.P
	numVCs := n.numVCs
	// Hot arrays come off n once: the arbitration loop stores through
	// several of them, and without the local copies the compiler must
	// reload each slice header after every store (it cannot prove the
	// element stores leave n's fields alone).
	qMeta := n.qMeta
	credits := n.credits
	vcMaskA := n.vcMask
	var outUsed uint64
	// rrPort is stored pre-wrapped so the rotation costs no divide.
	rot := int(n.rrPort[swi]) + 1
	if rot == n.ports {
		rot = 0
	}
	n.rrPort[swi] = int32(rot)
	// 64-bit reduction once per router (int(n.now) overflows 32-bit
	// ints past 2^31, like the wheel-slot arithmetic).
	nowVC := int(n.nowVC)
	pBase := swi * n.ports
	hBase := pBase * numVCs
	cBase := swi * n.nonTerm * numVCs
	oBase := swi * n.nonTerm
	vcFull := uint32(1)<<numVCs - 1
	// A port that granted nothing in one pass cannot grant in a later
	// pass of the same cycle unless interleaved credit events can
	// change mid-phase: its queue heads are untouched, outUsed only
	// accumulates and credits only decrease during allocation. Without
	// them, restricting each later pass to the previous pass's granting
	// ports is exact, not a heuristic — it just skips probes that
	// provably fail.
	subset := ^uint64(0)
	narrow := n.fastCredits
	for pass := 0; pass < n.Cfg.SpeedUp; pass++ {
		moved := false
		var granted uint64
		pm := n.portMask[swi] & subset
		// Scan occupied ports in rotated order: bits >= rot first,
		// then the wrap-around.
		for _, m := range [2]uint64{
			pm &^ (1<<rot - 1),
			pm & (1<<rot - 1),
		} {
			for m != 0 {
				port := trailingZeros(m)
				m &= m - 1
				vcStart := port + nowVC
				if vcStart >= numVCs {
					vcStart %= numVCs
				}
				// Non-empty VCs of this port, rotated so that bit 0 is
				// vcStart: set bits come off in the sequential probe
				// order. The mask is a snapshot, but at most one grant
				// leaves this loop per port per pass, so it never goes
				// stale while scanned.
				vm := uint32(vcMaskA[pBase+port])
				rm := (vm>>vcStart | vm<<(numVCs-vcStart)) & vcFull
				for rm != 0 {
					vb := bits.TrailingZeros32(rm)
					rm &= rm - 1
					vc := vcStart + vb
					if vc >= numVCs {
						vc -= numVCs
					}
					qm := qMeta[hBase+port*numVCs+vc]
					head := uint16(qm >> 16)
					out := int(head >> 8)
					if outUsed&(1<<out) != 0 {
						continue
					}
					if out < termPorts {
						// Ejection.
						outUsed |= 1 << out
						f, _ := n.dequeue(int32(swi), port, vc, pBase+port, hBase+port*numVCs+vc)
						n.returnCredit(sh, pBase+port, vc)
						sh.eject = append(sh.eject, f)
					} else {
						outVC := int(head & 0xff)
						ci := cBase + (out-termPorts)*numVCs + outVC
						if credits[ci] <= 0 {
							continue
						}
						outUsed |= 1 << out
						credits[ci]--
						f, hop := n.dequeue(int32(swi), port, vc, pBase+port, hBase+port*numVCs+vc)
						n.returnCredit(sh, pBase+port, vc)
						peer := n.outPeer[oBase+out-termPorts]
						n.emit(sh, int(n.outLat[oBase+out-termPorts]), event{
							flit: f, r: peer.r, port: peer.port, vc: int8(outVC), hop: hop,
						})
						if n.chanCount != nil && n.now >= n.measBegin && n.now < n.measEnd {
							n.chanCount[oBase+out-termPorts]++
						}
					}
					granted |= 1 << uint(port)
					moved = true
					break
				}
			}
		}
		if !moved {
			break
		}
		if narrow {
			subset = granted
		}
	}
}

// trailingZeros aliases the hardware count-trailing-zeros intrinsic.
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// returnCredit sends a credit for the freed input slot back to the
// upstream router (no-op for terminal inputs), through the emitting
// shard's event sink — the upstream router may live in another shard.
// pi is the caller's precomputed port index (sw*ports+port).
func (n *Network) returnCredit(sh *simShard, pi, vc int) {
	desc := n.credDesc[pi]
	if desc == 0 {
		return
	}
	if !n.fastCredits {
		// An in-flight reviser (PAR) observes credit state from Revise
		// mid-delivery, so its credits must stay interleaved with flit
		// events in emission order on the wheel. Reverse channel has
		// the same latency as the forward one.
		up := n.inChan[pi]
		oi := int(up.r)*n.nonTerm + int(up.port) - n.T.P
		n.emit(sh, int(n.outLat[oi]), event{flit: -1, r: up.r, port: up.port, vc: int8(vc)})
		return
	}
	ci := int32(uint32(desc)) + int32(vc)
	slot := n.nowSlot + int32(desc>>32&0xffff)
	if slot >= int32(n.wheelLen) {
		slot -= int32(n.wheelLen)
	}
	if len(n.shards) == 1 {
		// Lone shard: no mailbox hop (see emit).
		sh.cwheel[slot] = append(sh.cwheel[slot], ci)
		return
	}
	d := int(desc >> 48 & 0x7fff)
	sh.coutbox[d] = append(sh.coutbox[d], uint64(uint32(slot))<<32|uint64(uint32(ci)))
}

// deliver ejects flit slot f at its destination, records statistics
// and recycles the slot.
func (n *Network) deliver(f int32) {
	rec := &n.fa.rec[f]
	n.delivered++
	n.lastDeliver = n.now
	if n.now >= n.measBegin && n.now < n.measEnd {
		n.deliveredIn++
	}
	if rec.flags&fMeasured != 0 {
		n.measDeliv++
		lat := float64(n.now - rec.genTime)
		n.measLatency.Add(lat)
		n.measHist.Add(lat)
		n.measHops.Add(float64(rec.hops))
	}
	n.fa.release(f)
}
