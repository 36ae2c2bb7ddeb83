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
	// network (repeated Run calls, the mechanism behind RunConverged)
	// each result's Cycles therefore includes all earlier phases:
	// after RunConverged returns w windows with no drain overrun,
	// Cycles == warmup + w*window exactly.
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
// repeatedly on a warm network (the mechanism behind RunConverged).
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

// RunConverged is the BookSim-style adaptive methodology: after the
// warmup, it simulates successive measurement windows until the mean
// latency of consecutive windows agrees within relTol (or maxWindows
// is hit), then runs one final drained window and reports it. The
// returned int is the number of windows simulated (including the
// final one), consistent with the result's cumulative cycle count:
// unless the final drain ran past the window, res.Cycles ==
// warmup + windows*window. Use it instead of Run when the fixed
// three-window warmup is not trusted for a workload.
func (n *Network) RunConverged(warmup, window int64, relTol float64,
	maxWindows int, drainCap int64) (RunResult, int) {
	if relTol <= 0 {
		relTol = 0.05
	}
	if maxWindows < 1 {
		maxWindows = 10
	}
	n.Run(warmup, window, 0)
	prev := n.measLatency.Mean()
	for w := 2; w <= maxWindows; w++ {
		n.Run(0, window, 0)
		mean := n.measLatency.Mean()
		if prev > 0 && math.Abs(mean-prev) <= relTol*prev {
			res := n.Run(0, window, drainCap)
			return res, w + 1
		}
		prev = mean
	}
	res := n.Run(0, window, drainCap)
	return res, maxWindows + 1
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

// headEmpty marks an empty input buffer in the hop field of qMeta;
// qmEmpty is that field in word position.
const (
	headEmpty        = 0xffff
	qmEmpty   uint64 = headEmpty << 16
)

// sourceQueueCap bounds per-node source queues. A 512-deep queue at
// any sustainable rate implies a queueing delay far above the
// 500-cycle saturation threshold, so the cap cannot mask saturation;
// it only bounds memory on deeply oversubscribed runs.
const sourceQueueCap = 512

// Source queues are pre-sized at build (see build): a queue's depth is
// capped at sourceQueueCap, so reserving the cap outright makes the
// source queues allocation-free for the network's lifetime — heavy
// patterns (adversarial shifts near saturation) demonstrably push
// queues all the way there, so any smaller reserve keeps producing
// new-maximum growth deep into a run. sourceQueueReserveBudget bounds
// the total spend; past it (≳16k nodes) queues fall back to a small
// reserve that still absorbs the common early doublings.
const (
	sourceQueueReserveBudget = 64 << 20
	sourceQueueReserveMin    = 64
)

// enqueue pushes flit slot f into input buffer (port, vc) of switch
// sw, maintaining occupancy counters, scan masks and the head cache.
// sw must belong to shard sh (whose ring arena backs the queue). pi
// and g are the caller's precomputed port index (sw*ports+port) and
// global queue slot (pi*numVCs+vc) — every call site already has
// them in hand for its own indexing, so enqueue takes them instead
// of redoing the multiply chain per flit. hop is the flit's
// pre-decoded next hop at this router (headEmpty for the lazy
// Revisable path). PAR revision fires when the flit becomes the
// buffer head (the point a progressive router recomputes the route).
func (n *Network) enqueue(sh *simShard, sw int32, port, vc, pi, g int, f int32, hop uint16, rw uint64) {
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
		// Empty queue: the new head lives entirely in qMeta/qRW —
		// the ring arena is untouched below depth 2, which is what
		// keeps low-load traffic out of the (large) ring arrays.
		if hop == headEmpty {
			hop = n.headVal(sw, f)
		}
		n.qMeta[g] = uint64(head) | uint64(tail+1)<<8 | uint64(hop)<<16 | uint64(uint32(f))<<32
		n.qRW[g] = rw
	} else {
		ri := ((g-int(sh.ringBase))<<n.qShift + int(tail)&int(n.rbMask)) * 2
		sh.ring[ri] = uint64(uint32(f)) | uint64(hop)<<32
		sh.ring[ri+1] = rw
		n.qMeta[g] = m&^(0xff<<8) | uint64(tail+1)<<8
	}
}

// dequeue pops the head of input buffer (port, vc) of switch sw,
// maintaining counters, masks and the head cache. pi/g as in enqueue.
func (n *Network) dequeue(sh *simShard, sw int32, port, vc, pi, g int) (int32, uint64) {
	m := n.qMeta[g]
	head, tail := uint8(m), uint8(m>>8)
	f := int32(uint32(m >> 32))
	rw := n.qRW[g]
	head++
	n.inOcc[pi]--
	n.flits[sw]--
	if n.flits[sw] == 0 {
		n.clearActive(sw)
	}
	if head != tail {
		// Promote the next ring entry pair into the qMeta/qRW head
		// cache — the only ring read on the pop path.
		ri := ((g-int(sh.ringBase))<<n.qShift + int(head)&int(n.rbMask)) * 2
		next := sh.ring[ri]
		hop := uint16(next >> 32)
		if hop == headEmpty {
			hop = n.headVal(sw, int32(uint32(next)))
		}
		n.qMeta[g] = uint64(head) | uint64(tail)<<8 | uint64(hop)<<16 | uint64(uint32(next))<<32
		n.qRW[g] = sh.ring[ri+1]
	} else {
		n.qMeta[g] = uint64(head) | uint64(tail)<<8 | qmEmpty
		n.vcMask[pi] &^= 1 << vc
		if n.vcMask[pi] == 0 {
			n.portMask[sw] &^= 1 << port
		}
	}
	return f, rw
}

// headVal runs pending PAR revision for flit slot f, which just
// became the head of an input buffer at switch sw, and returns its
// decoded next hop for the caller to store in the queue's head-cache
// field. Body flits read the route through their head slot — kept
// allocated by the packet's pending count — at their own hop index.
func (n *Network) headVal(sw int32, f int32) uint16 {
	fa := &n.fa
	if fa.rec[f].flags&fRevisable != 0 && fa.rec[f].hopIdx > 0 {
		n.reviseSlot(f, sw)
	}
	rs := f
	if h := fa.rec[f].headOf; h >= 0 {
		rs = h
	}
	hop := fa.rec[rs].route[fa.rec[f].hopIdx]
	return uint16(uint8(hop.Port))<<8 | uint16(uint8(hop.VC))
}

// reviseSlot materializes the routing-boundary view of slot f around
// a Revise call and writes the (possibly rewritten) route back into
// the arena. Revisable flits only exist at one shard (injectNode
// panics otherwise), so the shared scratch view is safe.
func (n *Network) reviseSlot(f int32, sw int32) {
	fa := &n.fa
	v := &n.scratch
	v.Src, v.Dst = fa.rec[f].src, fa.rec[f].dst
	v.HopIdx = int32(fa.rec[f].hopIdx)
	v.GenTime = fa.rec[f].genTime
	v.Measured = fa.rec[f].flags&fMeasured != 0
	v.MinRouted = fa.rec[f].flags&fMinRouted != 0
	v.Revisable = true
	v.Route = fa.routeOf(f)
	n.routing.Revise(n, n.routeRNG, v, sw)
	fa.setRoute(f, v.Route)
	flags := fa.rec[f].flags &^ (fRevisable | fMinRouted)
	if v.MinRouted {
		flags |= fMinRouted
	}
	fa.rec[f].flags = flags
	v.Route = nil
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
	n.genCal.recycle(due)
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
		gen := n.nextGen[node]
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
			n.nodeQ[node].len() < sourceQueueCap {
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
				size := n.Cfg.PacketSize
				head := fa.alloc()
				fa.rec[head].src, fa.rec[head].dst = node, int32(dst)
				fa.rec[head].hopIdx = 0
				fa.rec[head].genTime = gen
				fa.rec[head].headOf = -1
				fa.rec[head].pending = int32(size)
				fa.rec[head].routeLen = 0
				flags := uint16(0)
				if size == 1 {
					flags = fIsTail
				}
				if gen >= n.measBegin && gen < n.measEnd {
					flags |= fMeasured
					n.measCount++
				}
				fa.rec[head].flags = flags
				n.nodeQ[node].push(head)
				n.injected++
				for k := 1; k < size; k++ {
					b := fa.alloc()
					fa.rec[b].src, fa.rec[b].dst = node, int32(dst)
					fa.rec[b].hopIdx = 0
					fa.rec[b].genTime = gen
					fa.rec[b].headOf = head
					fa.rec[b].pending = 0
					fa.rec[b].routeLen = 0
					if k == size-1 {
						fa.rec[b].flags = fIsTail
					} else {
						fa.rec[b].flags = 0
					}
					n.nodeQ[node].push(b)
					n.injected++
				}
			}
		}
		ng := n.geomNext(gen)
		n.nextGen[node] = ng
		n.genCal.add(ng, node)
	}
	q := &n.nodeQ[node]
	if q.len() == 0 {
		return nextActive
	}
	sw := int32(t.SwitchOfNode(int(node)))
	termPort := t.NodeIndex(int(node))
	// Terminal channel: one flit per cycle into VC 0, bounded by
	// the input buffer depth.
	if n.queueLen(int(sw), termPort, 0) >= n.Cfg.BufSize {
		return append(nextActive, node)
	}
	f := q.pop()
	if fa.rec[f].headOf < 0 {
		// Head flit: compute the packet's route now, from current
		// source-router state, directly into the slot's arena block.
		v := &n.scratch
		v.Src, v.Dst = fa.rec[f].src, fa.rec[f].dst
		v.HopIdx = 0
		v.GenTime = fa.rec[f].genTime
		v.Measured = fa.rec[f].flags&fMeasured != 0
		v.MinRouted, v.Revisable = false, false
		v.Route = fa.routeBlock(f)
		n.routing.SourceRoute(n, n.routeRNG, v)
		if n.Cfg.Failures != nil && (len(v.Route) == 0 || !n.routeAlive(sw, v)) {
			// The routing function found no surviving candidate (the
			// empty-route refusal sentinel), or handed back a route
			// crossing dead gear — refuse the whole packet here at the
			// injection port rather than blackhole it mid-network.
			n.refusePacket(f, q, v.Measured)
			v.Route = nil
			if q.len() > 0 {
				nextActive = append(nextActive, node)
			}
			return nextActive
		}
		if v.Revisable && len(n.shards) > 1 {
			panic("netsim: routing function declared RevisesInFlight()==false " +
				"but produced a Revisable flit on a multi-shard network")
		}
		fa.setRoute(f, v.Route)
		flags := fa.rec[f].flags
		if v.MinRouted {
			flags |= fMinRouted
		}
		if v.Revisable {
			flags |= fRevisable
		}
		fa.rec[f].flags = flags
		if v.Measured {
			n.measInj++
			if !v.MinRouted {
				n.measVLB++
			}
		}
		v.Route = nil
	}
	// First-hop decode at injection: a head's own route was just
	// written (line hot), a body reads its head's. Revision never
	// fires at hop index 0, so Revisable heads decode directly too.
	rs := f
	if h := fa.rec[f].headOf; h >= 0 {
		rs = h
	}
	r0 := fa.rec[rs].route[0]
	hop := uint16(uint8(r0.Port))<<8 | uint16(uint8(r0.VC))
	rw := rwSlow
	if n.ovcOwner == nil && fa.rec[f].flags&fRevisable == 0 {
		rw = fa.packRW(f, 1)
	}
	pi := int(sw)*n.ports + termPort
	n.enqueue(n.shardOf(sw), sw, termPort, 0, pi, pi*n.numVCs, f, hop, rw)
	if q.len() > 0 {
		nextActive = append(nextActive, node)
	}
	return nextActive
}

// routeAlive walks a head flit's computed route from its source
// switch and reports whether every channel it would traverse — and
// the final (ejecting) switch — survives the failure mask. It is the
// simulator's backstop against a routing function that is not
// failure-aware: such routes are refused at injection instead of
// wedging flow control mid-network.
func (n *Network) routeAlive(sw int32, f *Flit) bool {
	fail := n.Cfg.Failures
	cur := int(sw)
	for _, hop := range f.Route[:len(f.Route)-1] {
		if fail.ChannelDead(cur, int(hop.Port)) {
			return false
		}
		next, ok := n.T.PeerOfPortOK(cur, int(hop.Port))
		if !ok {
			return false
		}
		cur = next
	}
	return !fail.SwitchDead(cur)
}

// refusePacket drops a popped head flit slot plus its body flits —
// still contiguous behind it, since a packet is pushed whole at
// generation — from a source queue, recording the refusal. Runs on
// the sequential injection path only, so the counters stay
// deterministic under sharding. Body slots are released first, the
// head last, mirroring arrival order in the free list.
func (n *Network) refusePacket(f int32, q *ringQ, measured bool) {
	fa := &n.fa
	dropped := int64(1)
	for q.len() > 0 && fa.rec[q.peek()].headOf == f {
		fa.release(q.pop())
		dropped++
	}
	if measured {
		n.measRefused++
	}
	n.refusedInj += dropped
	fa.release(f)
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
	fa := &n.fa
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
	// pass of the same cycle unless wormhole ownership or interleaved
	// credit events can change mid-phase: its queue heads are
	// untouched, outUsed only accumulates and credits only decrease
	// during allocation. When neither applies, restricting each later
	// pass to the previous pass's granting ports is exact, not a
	// heuristic — it just skips probes that provably fail.
	subset := ^uint64(0)
	narrow := n.fastCredits && n.ovcOwner == nil
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
						f, _ := n.dequeue(sh, int32(swi), port, vc, pBase+port, hBase+port*numVCs+vc)
						n.returnCredit(sh, pBase+port, vc)
						sh.eject = append(sh.eject, f)
					} else {
						outVC := int(head & 0xff)
						ci := cBase + (out-termPorts)*numVCs + outVC
						if credits[ci] <= 0 {
							continue
						}
						if n.ovcOwner != nil {
							// Wormhole: heads acquire a free output VC;
							// body/tail flits may only follow their own
							// packet (owner == their head's slot).
							f := int32(uint32(qm >> 32))
							owner := n.ovcOwner[ci]
							if h := fa.rec[f].headOf; h < 0 {
								if owner != -1 {
									continue
								}
							} else if owner != h {
								continue
							}
						}
						outUsed |= 1 << out
						credits[ci]--
						f, rw := n.dequeue(sh, int32(swi), port, vc, pBase+port, hBase+port*numVCs+vc)
						n.returnCredit(sh, pBase+port, vc)
						var hop uint16
						if rw&rwSlow == 0 {
							// Fast flit: the next hop comes off the packed
							// route word — the arena record is untouched
							// between inject and eject.
							cnt := int(rw>>rwCntShift) & 15
							idx := int(rw>>rwIdxShift) & 31
							if cnt == 0 {
								// >6-hop route: the one mid-flight repack.
								rw = fa.packRW(f, idx)
								cnt = int(rw>>rwCntShift) & 15
							}
							h := uint32(rw) & 1023
							hop = uint16(h&63)<<8 | uint16(h>>6)
							rw = (rw&rwHopMask)>>10 | uint64(cnt-1)<<rwCntShift | uint64(idx+1)<<rwIdxShift
						} else {
							hi := fa.rec[f].hopIdx + 1
							fa.rec[f].hopIdx = hi
							if n.ovcOwner != nil {
								if fa.rec[f].flags&fIsTail != 0 {
									n.ovcOwner[ci] = -1
								} else if fa.rec[f].headOf < 0 {
									n.ovcOwner[ci] = f
								}
							}
							// Decode the flit's next hop now, while its
							// arena lines are hot, and ship it inside the
							// event; flits whose ROUTE slot is still
							// Revisable get the lazy sentinel instead —
							// their route (and routeRNG draw) must resolve
							// at head-arrival time. The check reads the
							// route slot (the head, for body flits), not
							// the flit itself: a wormhole body emitted
							// while its head is still in flight toward its
							// revision point would otherwise freeze the
							// pre-revision hop into the event and chase a
							// channel the (diverted) head never acquired,
							// wedging the queue forever. Once the head's
							// revision clears the flag, bodies decode
							// eagerly from the now-final route.
							hop = headEmpty
							rs := f
							if h := fa.rec[f].headOf; h >= 0 {
								rs = h
							}
							if fa.rec[rs].flags&fRevisable == 0 {
								nh := fa.rec[rs].route[hi]
								hop = uint16(uint8(nh.Port))<<8 | uint16(uint8(nh.VC))
							}
						}
						peer := n.outPeer[oBase+out-termPorts]
						n.emit(sh, int(n.outLat[oBase+out-termPorts]), event{
							flit: f, r: peer.r, port: peer.port, vc: int8(outVC), hop: hop, rw: rw,
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

// deliver ejects flit slot f at its destination and records
// statistics. Packet-level statistics (latency, throughput) are
// recorded at the tail flit; single-flit packets are their own head
// and tail. Slot recycling order: a body/tail slot is released at its
// own ejection, the head slot only when the packet's pending count
// hits zero — i.e. after every flit of the packet (the head included)
// has ejected — so in-flight body flits can always read the route
// through headOf.
func (n *Network) deliver(f int32) {
	fa := &n.fa
	n.delivered++
	n.lastDeliver = n.now
	head := fa.rec[f].headOf
	if head < 0 {
		head = f
	}
	fa.rec[head].pending--
	if fa.rec[f].flags&fIsTail != 0 || n.Cfg.PacketSize == 1 {
		if n.now >= n.measBegin && n.now < n.measEnd {
			n.deliveredIn++
		}
		if fa.rec[head].flags&fMeasured != 0 {
			n.measDeliv++
			lat := float64(n.now - fa.rec[head].genTime)
			n.measLatency.Add(lat)
			n.measHist.Add(lat)
			// A routed slot ejects with hopIdx == routeLen-1 by
			// construction (the fast path no longer maintains hopIdx);
			// wormhole body/tail slots carry no route copy, so their
			// (slow-path-maintained) hopIdx is authoritative.
			if rl := fa.rec[f].routeLen; rl > 0 {
				n.measHops.Add(float64(rl - 1))
			} else {
				n.measHops.Add(float64(fa.rec[f].hopIdx))
			}
		}
	}
	if f != head {
		fa.release(f)
	}
	if fa.rec[head].pending <= 0 {
		fa.release(head)
	}
}
