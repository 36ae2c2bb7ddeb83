// Package netsim is a cycle-level flit simulator for Dragonfly
// networks, standing in for BookSim 2.0 in the paper's methodology
// (§4.1.2). It models input-queued virtual-channel routers with
// credit-based flow control, configurable internal speedup,
// configurable local/global channel latencies, single-flit packets,
// source-routed adaptive routing (the routing function chooses a
// concrete MIN or VLB route per packet, PAR may revise in the source
// group), warmup plus measurement windows, and the paper's
// 500-cycle average-latency saturation rule.
//
// A route has one form: the route word internal/route serves (see
// PackWord), switch hops only; the simulator adds the ejection hop
// from the destination. A flit's word of its remaining hops lives in
// its arena link (flitLink), never in its record.
//
// The hot loop is struct-of-arrays: flits live in an int32-indexed
// arena (see flitArena), every queue — input buffer or source queue —
// is a chain of arena slots through the arena's links, and
// timing-wheel events carry flit indices — the inner loop never
// follows a pointer and never allocates in steady state (DESIGN.md
// §4.9).
package netsim

import (
	"fmt"
	"math"
	"time"

	"tugal/internal/rng"
	"tugal/internal/stats"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// Config mirrors the paper's Table 3 simulator parameters.
type Config struct {
	NumVCs        int     // virtual channels per channel (4 UGAL, 5 PAR)
	BufSize       int     // flit buffer depth per (port, VC)
	LocalLatency  int     // local channel latency, cycles
	GlobalLatency int     // global channel latency, cycles
	SpeedUp       int     // router internal speedup
	LatencyCap    float64 // average latency above which the network is saturated
	Seed          uint64  // master seed (traffic, routing candidates)
	// CollectChanStats enables per-channel flit counting during the
	// measurement window (RunResult.Channels).
	CollectChanStats bool
	// Failures, when non-nil, degrades the network: packets to or from
	// a dead switch are refused at generation time, and a packet the
	// routing function refuses (SourceRoute returns false) or whose
	// route crosses a dead channel is dropped at injection, before it
	// enters the network. Refusals are counted (RunResult.Refused) and
	// happen on the sequential injection path only, so sharded and
	// multi-worker runs stay bit-identical. The routing function
	// should route around this mask (routing.UGAL reads it); the
	// injection-time route walk is a deterministic backstop, not the
	// primary mechanism.
	Failures *topo.FailureMask
	// Shards partitions the routers into static contiguous shards
	// stepped by the cycle engine: each shard owns its routers' state,
	// a timing-wheel segment and an allocation pass, and events flow
	// through per-(source, destination) mailboxes merged in fixed shard
	// order at the cycle barrier, so the results are bit-identical for
	// every shard count. 0 means 1: one shard holding every router,
	// stepped by the same engine. Shards above 1 only takes effect for
	// routing functions that declare (via InFlightReviser) that they
	// never revise a route in flight: PAR's mid-route revision reads
	// remote queue state and draws routeRNG at head-of-buffer time,
	// which has no lookahead, so a reviser is forced to one shard.
	Shards int
	// ShardWorkers forces the number of OS-thread-parallel workers
	// stepping the shards (clamped to Shards). 0 — the default, and
	// what production paths should use — derives the worker count
	// from the shared exec CPU-token budget each Run, so intra-run
	// parallelism composes with the outer fan-out pool without
	// oversubscription. Results are bit-identical for any worker
	// count; the knob exists for benchmarks and race tests that must
	// exercise true multi-worker stepping regardless of budget.
	ShardWorkers int
	// PhaseTiming accumulates a wall-clock breakdown of each cycle's
	// phases (PhaseTimes reads it). A handful of clock reads per cycle
	// — noise against any real topology's cycle cost, but nonzero, so
	// it is opt-in and benchmarks enable it on a separate probe run
	// rather than the timed one. Timing never affects simulation
	// results.
	PhaseTiming bool
}

// DefaultConfig returns Table 3: 4 VCs, 32-flit buffers, 10/15-cycle
// local/global latency, speedup 2, 500-cycle saturation threshold.
func DefaultConfig() Config {
	return Config{
		NumVCs:        4,
		BufSize:       32,
		LocalLatency:  10,
		GlobalLatency: 15,
		SpeedUp:       2,
		LatencyCap:    500,
		Seed:          1,
	}
}

// RouteHop is one decoded hop of a route word: the out-port to take
// at the current switch and the VC to occupy on that channel.
type RouteHop struct {
	Port int8
	VC   int8
}

// Flit is the routing-boundary view of one packet: the struct
// RoutingFunc implementations read and write. Inside the simulator
// flits are not structs — they are int32 slots in a struct-of-arrays
// arena (flitArena) — and one reusable Flit is materialized around
// each SourceRoute/Revise call.
type Flit struct {
	Src, Dst int32 // node ids
	// Word is the route word of the packet's switch hops, without the
	// ejection hop (see PackWord).
	Word    uint64
	GenTime int64 // cycle the packet was generated at the node
	// Measured marks packets generated inside the measurement window.
	Measured bool
	// MinRouted records the UGAL decision (diagnostics + PAR).
	MinRouted bool
	// Revisable marks a MIN-routed PAR packet that may divert at the
	// source-group gateway switch.
	Revisable bool
}

// Flag bits of a flit-arena slot.
const (
	fMeasured uint16 = 1 << iota
	fMinRouted
)

// flitRec is one flit-arena slot: what a flit needs besides its route
// word, which lives in its link instead. Only injection, revision and
// ejection touch it.
type flitRec struct {
	src, dst int32
	genTime  int64
	flags    uint16
	// hops is the packet's switch-hop count, revision included, which
	// deliver records.
	hops int16
}

// flitArena is the flit store: a dense array of flitRec records
// addressed by int32 slot. Slots are recycled through a free list on
// ejection, so steady-state simulation allocates nothing and the GC
// never scans a flit.
//
// link[s] threads slot s through the one queue it sits in: a flit is
// in at most one queue at a time (a source queue, an input buffer, or
// neither while on a wire), so the queues need no storage of their
// own and memory follows live flits. Only the queue's owner writes a
// link — the sequential injection phase for source queues, the shard
// owning the router for input buffers — the rule rec already follows.
type flitArena struct {
	rec  []flitRec
	link []flitLink
	free []int32
}

// flitLink is a slot's successor in its queue and its remaining-route
// word. rw is written at injection and advanced in place by every
// dequeue that forwards the flit (and by revise), so it is the one copy
// of the flit's route from injection to ejection. hop is the slot's
// decoded next hop while it waits behind an input buffer's head (the
// head's is in qMeta); a source queue uses next alone. Kept apart from
// flitRec so a flit never touches its record between inject and eject.
type flitLink struct {
	next int32
	hop  uint16
	rw   uint64
}

// alloc returns a free slot, growing the arena when the free list is
// empty. Callers initialize all fields.
func (a *flitArena) alloc() int32 {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		return s
	}
	a.rec = append(a.rec, flitRec{})
	a.link = append(a.link, flitLink{})
	return int32(len(a.rec) - 1)
}

// release recycles a slot. The caller guarantees no live reference
// remains.
func (a *flitArena) release(s int32) { a.free = append(a.free, s) }

// srcQ is a node's source queue: a FIFO chain of n arena slots from
// head to tail through the arena's links. The zero value is empty.
type srcQ struct{ head, tail, n int32 }

// push appends slot s at the tail.
func (q *srcQ) push(a *flitArena, s int32) {
	if q.n == 0 {
		q.head = s
	} else {
		a.link[q.tail].next = s
	}
	q.tail = s
	q.n++
}

// pop removes and returns the head slot. The queue must be non-empty:
// every caller guards with n (an empty pop would hand out a stale
// slot, so misuse is the caller's bug to keep impossible).
func (q *srcQ) pop(a *flitArena) int32 {
	s := q.head
	q.head = a.link[s].next
	q.n--
	return s
}

// Route words pack up to WordMaxHops route hops into a uint64: bits
// [0,3) hold the hop count and hop i occupies the 10-bit field at bit
// 3+10*i — out-port in the low 7 bits, VC in the high 3. 3 + 6*10 = 63
// bits. A RoutingFunc hands the simulator a route in this form, and
// internal/route serves a candidate's switch hops in it.
//
// A flit's remaining-route word ("rw") is the route word of the hops
// after its next one, ejection included. It lives in the flit's link
// (flitLink.rw), so the forward path never touches the flit's arena
// record between inject and eject. A field of all
// ones (port 127, VC 7: no radix Check accepts has that port) is the
// revision mark: its hop decodes to headEmpty, and the flit's next
// hop is decided when it reaches the head of a buffer (see revise).
const (
	WordMaxHops   = 6
	WordPortMask  = 0x7f
	WordVCMask    = 0x7
	wordCntMask   = 0x7
	wordFieldBits = 10
	wordVCBit     = 7
	wordField     = 1<<wordFieldBits - 1
)

// WordHops returns a route word's hop count.
func WordHops(w uint64) int { return int(w & wordCntMask) }

// WordHop returns hop i's out-port and virtual channel.
func WordHop(w uint64, i int) (port, vc int8) {
	f := w >> (3 + uint(i)*wordFieldBits)
	return int8(f & WordPortMask), int8(f >> wordVCBit & WordVCMask)
}

// WordPort returns port p in hop i's port field, to be OR-ed into a
// word whose port field i is clear.
func WordPort(i int, p uint64) uint64 { return p << (3 + uint(i)*wordFieldBits) }

// PackWord packs a VC-assigned hop sequence into a route word. It
// reports false when the hops do not fit: more than WordMaxHops of
// them, or a port or VC past its field.
func PackWord(hops []RouteHop) (uint64, bool) {
	if len(hops) > WordMaxHops {
		return 0, false
	}
	w := uint64(len(hops))
	for i, h := range hops {
		if uint8(h.Port) > WordPortMask || uint8(h.VC) > WordVCMask {
			return 0, false
		}
		w |= (uint64(h.Port) | uint64(h.VC)<<wordVCBit) << (3 + uint(i)*wordFieldBits)
	}
	return w, true
}

// RoutingFunc computes and revises source routes. Implementations
// live in internal/routing (UGAL-L, UGAL-G, PAR and T- variants).
//
// A route is a route word of switch hops (see PackWord) naming VCs
// 0..7 and ports below the radix; the simulator adds the ejection hop
// at the destination's terminal port. The VCs must also be below
// Config.NumVCs.
type RoutingFunc interface {
	Name() string
	// SourceRoute sets f.Word, f.MinRouted and f.Revisable for a
	// packet entering the network, or returns false to refuse it. A
	// Revisable route holds at most WordMaxHops-1 switch hops: its
	// revision mark takes a field of the flit's word.
	SourceRoute(n *Network, r *rng.Source, f *Flit) bool
	// Revise is called once, when a Revisable flit that has taken one
	// hop reaches the head of an input buffer at switch sw, with
	// f.Word the switch hops left from sw. It may replace them, with
	// at most WordMaxHops hops, and f.MinRouted. Implementations that
	// never revise can no-op.
	Revise(n *Network, r *rng.Source, f *Flit, sw int32)
	// CloneRouting returns an independent instance safe to hand to a
	// concurrently running simulation. Implementations with per-packet
	// scratch state must copy it; stateless implementations may return
	// themselves. Every simulation fan-out (seeds, load points,
	// figure curves) clones the routing function per run through this
	// method, so there is no sequential fallback anywhere.
	CloneRouting() RoutingFunc
}

// InFlightReviser is an optional RoutingFunc capability: a routing
// function that can prove it never revises a route after injection
// (never sets Flit.Revisable) returns false from RevisesInFlight,
// which makes it eligible for more than one shard. Revision runs at
// head-of-buffer time inside the allocation phase, reads remote queue
// state and draws routeRNG — none of which has lookahead — so a
// reviser (PAR), or any routing function that does not implement the
// interface, is conservatively forced to one shard regardless of
// Config.Shards.
type InFlightReviser interface {
	RevisesInFlight() bool
}

// chanRef identifies the far end of a channel: a (router, port) pair.
type chanRef struct {
	r    int32
	port int8
}

// event is a timing-wheel entry: a flit delivery (flit >= 0, an arena
// slot) into in[port][vc] of router r, or a credit return (flit < 0)
// for out-port port, VC vc of router r. Pointer-free by design: wheel
// buckets and mailboxes are appended and drained with no GC write
// barriers and never scanned.
//
// hop carries the flit's decoded next hop at the receiving router
// (outPort<<8|outVC), taken off its route word at emission time, so
// head-arrival at the receiver reads no route word. headEmpty means
// "decide at head-arrival": the revision mark of a Revisable flit,
// whose route may be rewritten (and whose routeRNG draw must happen)
// exactly when it reaches the head of a buffer. The route word itself
// stays in the flit's link, which keeps an event at 12 bytes.
type event struct {
	flit int32
	r    int32
	port int8
	vc   int8
	hop  uint16
}

// Network is a runnable simulation instance. Router state is held in
// flat parallel arrays indexed by switch id (struct-of-arrays, like
// the flit arena) rather than per-router structs: the allocator's hot
// scan walks contiguous memory.
type Network struct {
	T   *topo.Compiled
	Cfg Config

	routing RoutingFunc
	pattern traffic.Pattern
	rate    float64
	// logq caches log(1-rate), the denominator of the geometric
	// inter-arrival draw. Only the denominator is hoisted — folding
	// it into a reciprocal multiply would change float rounding and
	// break bit-reproducibility against earlier builds.
	logq float64
	// fixedDest[src] is the precomputed destination for Deterministic
	// patterns (-1 when the source is silent); nil for random
	// patterns. Deterministic Dest implementations never touch the
	// traffic RNG, so the table preserves the draw sequence exactly.
	fixedDest []int32

	now int64

	// phase accumulates the per-phase wall-clock breakdown when
	// Cfg.PhaseTiming is set (see PhaseTimes); lapAt is the clock
	// reading the next lap is measured from.
	phase PhaseTimes
	lapAt time.Time

	// Cached topology dimensions (avoids method calls in the loop).
	ports, numVCs, nonTerm int

	// fa is the flit arena; it grows and recycles slots only on the
	// sequential phases (see flitArena for who writes a slot). scratch
	// is the reusable routing-boundary view materialized around
	// SourceRoute/Revise calls, used by injection and by revision,
	// which only happens at one shard.
	fa      flitArena
	scratch Flit

	// Per-switch allocator scan state. portMask[sw] has bit p set when
	// port p buffers any flit; vcMask[sw*ports+p] has bit v set when
	// input queue (p, v) is non-empty.
	portMask []uint64
	vcMask   []uint16
	// inOcc[sw*ports+p] is the port's total buffered flit count: the
	// quantity UGAL-G reads remotely.
	inOcc []int32
	// credits[(sw*nonTerm+(p-P))*numVCs+v] tracks free downstream
	// slots for each non-terminal out-port.
	credits []int16
	// inChan[sw*ports+p] is the upstream (router, port) feeding this
	// input (r = -1 for terminal ports); used to return credits.
	inChan []chanRef
	// credDesc[sw*ports+p] flattens the credit-return chain of input
	// port p — inChan lookup, out-channel index scaling and latency
	// load — into one word: bit 63 validity, bits 0-31 the upstream
	// out-channel's base credit index (oi*numVCs), bits 32-47 the
	// reverse-channel latency, bits 48-62 the upstream shard. Zero for
	// terminal inputs (no upstream, no credit).
	credDesc []uint64
	// outPeer[sw*nonTerm+(p-P)] is the downstream (router, in-port) of
	// each non-terminal out-port; outLat its channel latency.
	outPeer []chanRef
	outLat  []int16
	// rrPort[sw] rotates input arbitration priority (stored already
	// wrapped to [0, ports)); nowVC caches now % numVCs per cycle.
	rrPort []int32
	nowVC  int32
	// flits[sw] counts all buffered flits (skip idle routers fast).
	flits []int32

	// Input queue g = (sw*ports+p)*numVCs+v is a chain of arena slots
	// (flitArena.link) whose head entry is packed into qMeta[g]:
	// free-running uint8 head and tail cursors (bits 0-7, 8-15;
	// BufSize is capped at 128 so the cursor difference — the depth —
	// is unambiguous), the head flit's decoded next hop (bits 16-31,
	// outPort<<8|outVC, headEmpty when empty) and its arena slot
	// (bits 32-63). qTail[g] is the last slot of a queue two or more
	// deep; a push onto a one-deep queue links from the head slot in
	// qMeta. An allocator probe reads only qMeta[g]; every queued
	// flit's route word, the head's included, is in its own link.
	qMeta []uint64
	qTail []int32

	// wheelLen is the length of every shard's timing-wheel segment;
	// nowSlot caches now % wheelLen per cycle so the per-event slot
	// reduction is an add and a compare instead of a 64-bit divide
	// (wheelLen is not a compile-time constant, so % compiles to
	// hardware DIV — measurable at thousands of emit/credit calls per
	// cycle).
	wheelLen int
	nowSlot  int32
	// fastCredits sends credit returns through the shards' bare
	// credit-index wheels (simShard.cwheel) instead of the event
	// machinery: credit delivery is a commutative increment, so a
	// 4-byte entry and a branch-free drain loop replace a 12-byte
	// event. Only valid when the routing function never revises in
	// flight: a reviser (PAR) observes credit state mid-delivery
	// through Revise, so its credits must stay interleaved with flit
	// events in their original emission order.
	fastCredits bool

	// shards is the static contiguous router partition (always at
	// least one entry). Each shard owns its routers' active bitset,
	// timing-wheel segment, mailboxes and ejection buffer.
	shards    []simShard
	shardSize int32
	// engine steps the shards; workers is the number of its crew the
	// current (or most recent) Run steps them with, 1 before any Run.
	engine  *shardEngine
	workers int

	// Per-node source queues (bounded by sourceQueueCap). genCal holds
	// each node's next generation cycle and lists nodes by it, and
	// srcActive lists nodes with non-empty source queues (sorted
	// ascending), so inject visits O(active) nodes instead of all of
	// them; srcNext is the double buffer srcActive is rebuilt into
	// each cycle.
	nodeQ     []srcQ
	genCal    genCalendar
	srcActive []int32
	srcNext   []int32

	trafficRNG *rng.Source
	routeRNG   *rng.Source

	// Accounting.
	injected    int64 // entered a source queue
	delivered   int64 // ejected at destination
	refusedInj  int64 // flits dropped at injection (dead route)
	lastDeliver int64 // cycle of the most recent ejection
	measBegin   int64
	measEnd     int64
	measLatency stats.Welford
	measHist    *stats.Histogram
	measHops    stats.Welford
	measVLB     int64 // measured packets routed non-minimally
	measInj     int64 // measured packets that entered the network
	measCount   int64 // measured packets generated (refusals included)
	measDeliv   int64 // measured packets delivered
	measRefused int64 // measured packets refused (dead endpoint/route)
	deliveredIn int64 // packets delivered within [measBegin, measEnd)

	// chanCount[sw*(radix-p) + out-p] counts flits sent on each
	// switch-to-switch channel during the measurement window (only
	// when Cfg.CollectChanStats).
	chanCount []int64
}

// ChannelStats summarizes per-channel utilization over the
// measurement window, split by channel class. Utilization is in
// flits/cycle; MaxOverMean quantifies imbalance (1.0 = perfectly
// even) — the quantity Algorithm 1's balance adjustment targets.
type ChannelStats struct {
	LocalMean, LocalMax   float64
	GlobalMean, GlobalMax float64
	LocalMaxOverMean      float64
	GlobalMaxOverMean     float64
}

// MaxLatency bounds a channel latency: a channel keeps its latency in
// an int16, and every shard's timing wheel has a slot per cycle of the
// longest one.
const MaxLatency = math.MaxInt16

// ConfigError is a Config field (or the injection rate, Field "rate")
// that New refuses.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string { return "netsim: " + e.Field + " " + e.Msg }

// Check reports the first reason New would refuse to simulate t under
// cfg at the given injection rate, as a *ConfigError; New panics on
// exactly these. The bounds are the packed structures': uint8 queue
// cursors (BufSize), the port- and vc-mask allocators (radix, NumVCs),
// int16 latencies. A radix of at most 64 also keeps every port inside
// the route word's 7-bit field.
func (cfg Config) Check(t *topo.Compiled, rate float64) error {
	bad := func(field, format string, args ...any) error {
		return &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	switch {
	case !(rate >= 0 && rate <= 1):
		return bad("rate", "%v outside [0,1]", rate)
	case cfg.NumVCs < 1 || cfg.NumVCs > 16:
		return bad("NumVCs", "%d outside 1..16 (the vc-mask allocator's width)", cfg.NumVCs)
	case cfg.BufSize < 1 || cfg.BufSize > 128:
		return bad("BufSize", "%d outside 1..128 (the packed queue metadata's range)", cfg.BufSize)
	case cfg.SpeedUp < 1:
		return bad("SpeedUp", "%d below 1", cfg.SpeedUp)
	case cfg.LocalLatency < 0 || cfg.LocalLatency > MaxLatency:
		return bad("LocalLatency", "%d outside 0..%d", cfg.LocalLatency, MaxLatency)
	case cfg.GlobalLatency < 0 || cfg.GlobalLatency > MaxLatency:
		return bad("GlobalLatency", "%d outside 0..%d", cfg.GlobalLatency, MaxLatency)
	case t.Radix() > 64:
		return bad("topology", "radix %d above 64, the port-mask allocator's width", t.Radix())
	case cfg.Failures != nil && cfg.Failures.Topo() != t:
		return bad("Failures", "was built for a different topology")
	}
	return nil
}

// New builds a simulation of pattern traffic at the given per-node
// injection rate (packets/cycle/node) under a routing function.
func New(t *topo.Compiled, cfg Config, rf RoutingFunc, pat traffic.Pattern, rate float64) *Network {
	if err := cfg.Check(t, rate); err != nil {
		panic(err)
	}
	n := &Network{
		T:          t,
		Cfg:        cfg,
		routing:    rf,
		pattern:    pat,
		rate:       rate,
		trafficRNG: rng.New(rng.Hash64(cfg.Seed, 0x7af1c)),
		routeRNG:   rng.New(rng.Hash64(cfg.Seed, 0x40e5)),
		measBegin:  math.MaxInt64,
		measEnd:    math.MaxInt64,
		measHist:   stats.NewHistogram(5, 400), // 5-cycle buckets to 2000
	}
	if ir, ok := rf.(InFlightReviser); ok && !ir.RevisesInFlight() {
		n.fastCredits = true
	}
	if rate > 0 && rate < 1 {
		n.logq = math.Log(1 - rate)
	}
	if det, ok := pat.(traffic.Deterministic); ok {
		n.fixedDest = make([]int32, t.NumNodes())
		for src := range n.fixedDest {
			if d := det.DestOf(src); d != src {
				n.fixedDest[src] = int32(d)
			} else {
				n.fixedDest[src] = -1
			}
		}
	}
	n.build()
	return n
}

// build wires routers and channels from the topology.
func (n *Network) build() {
	t := n.T
	sw := t.NumSwitches()
	n.ports = t.Radix()
	n.numVCs = n.Cfg.NumVCs
	n.nonTerm = n.ports - t.P
	maxLat := n.Cfg.GlobalLatency
	if n.Cfg.LocalLatency > maxLat {
		maxLat = n.Cfg.LocalLatency
	}
	n.wheelLen = maxLat + 2

	n.portMask = make([]uint64, sw)
	n.vcMask = make([]uint16, sw*n.ports)
	n.qMeta = make([]uint64, sw*n.ports*n.numVCs)
	for i := range n.qMeta {
		n.qMeta[i] = qmEmpty
	}
	n.qTail = make([]int32, len(n.qMeta))
	n.inOcc = make([]int32, sw*n.ports)
	n.credits = make([]int16, sw*n.nonTerm*n.numVCs)
	for i := range n.credits {
		n.credits[i] = int16(n.Cfg.BufSize)
	}
	n.inChan = make([]chanRef, sw*n.ports)
	for i := range n.inChan {
		n.inChan[i] = chanRef{r: -1}
	}
	n.outPeer = make([]chanRef, sw*n.nonTerm)
	for i := range n.outPeer {
		n.outPeer[i] = chanRef{r: -1} // unwired until the loops below claim it
	}
	n.outLat = make([]int16, sw*n.nonTerm)
	n.rrPort = make([]int32, sw)
	n.flits = make([]int32, sw)

	for u := 0; u < sw; u++ {
		// Local channels.
		for idx := 0; idx < t.A; idx++ {
			v := (u/t.A)*t.A + idx
			if v == u {
				continue
			}
			pt := t.LocalPort(u, v)
			peerPt := t.LocalPort(v, u)
			n.outPeer[u*n.nonTerm+pt-t.P] = chanRef{r: int32(v), port: int8(peerPt)}
			n.outLat[u*n.nonTerm+pt-t.P] = int16(n.Cfg.LocalLatency)
			n.inChan[v*n.ports+peerPt] = chanRef{r: int32(u), port: int8(pt)}
		}
		// Global channels. Some families leave slots unwired (the
		// swapped dragonfly's fixed points): those keep the -1 peer
		// and no route ever selects them.
		for gp := 0; gp < t.H; gp++ {
			v, pgp, ok := t.GlobalPeerOK(u, gp)
			if !ok {
				continue
			}
			pt := t.GlobalPort(gp)
			peerPt := t.GlobalPort(pgp)
			n.outPeer[u*n.nonTerm+pt-t.P] = chanRef{r: int32(v), port: int8(peerPt)}
			n.outLat[u*n.nonTerm+pt-t.P] = int16(n.Cfg.GlobalLatency)
			n.inChan[v*n.ports+peerPt] = chanRef{r: int32(u), port: int8(pt)}
		}
	}
	n.buildShards()
	n.credDesc = make([]uint64, sw*n.ports)
	for pi, up := range n.inChan {
		if up.r < 0 {
			continue
		}
		oi := int(up.r)*n.nonTerm + int(up.port) - t.P
		n.credDesc[pi] = 1<<63 | uint64(uint32(oi*n.numVCs)) |
			uint64(uint16(n.outLat[oi]))<<32 |
			uint64(uint32(up.r/n.shardSize))<<48
	}
	nodes := t.NumNodes()
	n.nodeQ = make([]srcQ, nodes)
	n.genCal.init(nodes)
	n.srcActive = make([]int32, 0, nodes)
	n.srcNext = make([]int32, 0, nodes)
	for i := range nodes {
		n.genCal.add(n.geomNext(0), int32(i))
	}
}

// neverGen is the next-generation sentinel of a zero-rate source; the
// generation calendar never registers it.
const neverGen = math.MaxInt64

// geomNext draws the next generation time strictly after 'after'
// for the Bernoulli(rate) per-cycle injection process.
func (n *Network) geomNext(after int64) int64 {
	if n.rate <= 0 {
		return neverGen
	}
	if n.rate >= 1 {
		return after + 1
	}
	u := n.trafficRNG.Float64()
	if u <= 0 {
		u = 1e-18
	}
	gap := int64(math.Floor(math.Log(u)/n.logq)) + 1
	if gap < 1 {
		gap = 1
	}
	return after + gap
}

// ShardStats reports the effective shard count — Config.Shards clamped
// to the switch count and downgraded to 1 when the routing function may
// revise routes in flight (see InFlightReviser) — and the number of
// parallel workers the most recent Run stepped them with (1 before any
// Run, and always 1 at one shard).
func (n *Network) ShardStats() (shards, workers int) {
	return len(n.shards), n.workers
}

// CreditOcc estimates the occupancy of the downstream buffer of a
// non-terminal out-port from local credit state: the information a
// real router has, used by UGAL-L and PAR.
func (n *Network) CreditOcc(sw int32, port int) int {
	base := (int(sw)*n.nonTerm + port - n.T.P) * n.numVCs
	free := 0
	for v := 0; v < n.numVCs; v++ {
		free += int(n.credits[base+v])
	}
	return n.numVCs*n.Cfg.BufSize - free
}

// DownstreamOcc returns the true buffered occupancy of the input
// buffer fed by out-port port of switch sw: the oracle information
// UGAL-G assumes.
func (n *Network) DownstreamOcc(sw int32, port int) int {
	peer := n.outPeer[int(sw)*n.nonTerm+port-n.T.P]
	return int(n.inOcc[int(peer.r)*n.ports+int(peer.port)])
}

// queueLen returns the buffered flit count of input queue (port, vc)
// of switch sw (tests and the injection backpressure check).
func (n *Network) queueLen(sw, port, vc int) int {
	m := n.qMeta[(sw*n.ports+port)*n.numVCs+vc]
	return int(uint8(m>>8) - uint8(m))
}
