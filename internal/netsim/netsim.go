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
// The hot loop is struct-of-arrays: flits live in an int32-indexed
// arena of parallel dense arrays (see flitArena), input buffers are
// flat per-shard ring-buffer arenas, and timing-wheel events carry
// flit indices — the inner loop never follows a pointer and never
// allocates in steady state (DESIGN.md §4.9).
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
	// a dead switch are refused at generation time, and a packet whose
	// computed route is empty (the routing layer's refusal sentinel)
	// or crosses a dead channel is dropped at injection, before it
	// enters the network. Refusals are counted (RunResult.Refused) and
	// happen on the sequential injection path only, so sharded and
	// multi-worker runs stay bit-identical. The routing function
	// should be failure-aware under the same mask (routing.UGAL.Fail);
	// the injection-time route walk is a deterministic backstop, not
	// the primary mechanism.
	Failures *topo.FailureMask
	// PacketSize is the number of flits per packet. 1 (the paper's
	// setting, default when 0) uses the fast single-flit path; >1
	// switches to wormhole flow control: the head flit acquires the
	// pre-assigned output VC at each hop and holds it until the tail
	// passes, body flits follow in order, and packet latency is
	// measured head-generation to tail-ejection.
	PacketSize int
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

// RouteHop is one step of a source route: the out-port to take at the
// current switch and the VC to occupy on that channel.
type RouteHop struct {
	Port int8
	VC   int8
}

// Flit is the routing-boundary view of one packet head: the struct
// RoutingFunc implementations read and write. Inside the simulator
// flits are not structs — they are int32 slots in a struct-of-arrays
// arena (flitArena) — and one reusable Flit is materialized from the
// arena around each SourceRoute/Revise call. Its Route slice aliases
// the slot's fixed-stride block of the per-network route arena, so
// appendHops-style construction writes the arena directly with no
// copy; a standalone Flit (as the routing unit tests build) works the
// same way with an ordinary heap slice.
type Flit struct {
	Src, Dst int32 // node ids
	Route    []RouteHop
	HopIdx   int32
	GenTime  int64 // cycle the packet was generated at the node
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
	fRevisable
	fIsTail
)

// maxRoute is the fixed stride of the route arena: the longest route
// (switch hops plus the ejection hop) a slot's block accommodates. A
// dragonfly VLB route is at most 6 hops + eject, and a PAR diversion
// rewrites within the same bound; 16 leaves headroom for custom
// routing functions. setRoute panics loudly on anything longer.
const maxRoute = 16

// flitRec is one flit-arena slot: every per-flit field the hot loop
// touches — identity, wormhole linkage, timing, flags and the whole
// fixed-stride route block — packed into exactly 64 bytes, so the
// arena is an array of cache-line-sized records and forwarding a flit
// fills one line instead of one per parallel array. (The arena began
// as fully parallel per-field arrays; profiling showed the forward
// path paying four random line fills per flit — hopIdx, flags,
// headOf, route — for data that always travels together.)
type flitRec struct {
	src, dst int32
	// headOf is the head flit's slot on body/tail flits, -1 on heads
	// (and on all single-flit packets).
	headOf int32
	// pending (head slots only) counts the packet's not-yet-ejected
	// flits; the head slot is recycled only when it reaches zero.
	pending  int32
	genTime  int64
	hopIdx   int16
	routeLen int16
	flags    uint16
	_        uint16
	// route holds the slot's source route (fixed stride maxRoute).
	route [maxRoute]RouteHop
}

// flitArena is the flit store: a dense array of flitRec records
// addressed by int32 slot. Slots are recycled through a free list on
// ejection, so steady-state simulation allocates nothing and the GC
// never scans a flit. Wormhole packets reference their head flit by
// slot (headOf) and keep the head's slot alive via pending — the
// count of the packet's not-yet-ejected flits — so body flits can
// read the route through the head even after the head itself ejected.
type flitArena struct {
	rec  []flitRec
	free []int32
}

// alloc returns a free slot, growing the arena when the free list is
// empty. Callers initialize all fields.
func (a *flitArena) alloc() int32 {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		return s
	}
	a.rec = append(a.rec, flitRec{headOf: -1})
	return int32(len(a.rec) - 1)
}

// release recycles a slot. The caller guarantees no live reference
// remains — in wormhole mode a head slot is released only when its
// pending count reaches zero (see deliver).
func (a *flitArena) release(s int32) { a.free = append(a.free, s) }

// size returns the number of slots ever allocated (live + free).
func (a *flitArena) size() int { return len(a.rec) }

// live returns the number of currently allocated slots.
func (a *flitArena) live() int { return len(a.rec) - len(a.free) }

// routeBlock returns the slot's empty arena-backed route view: length
// zero, capacity maxRoute, aliasing the slot's block so appends write
// the arena directly.
func (a *flitArena) routeBlock(s int32) []RouteHop {
	return a.rec[s].route[0:0:maxRoute]
}

// routeOf returns the slot's current route, capacity-clamped to its
// block so in-place revision cannot spill into a neighbor slot.
func (a *flitArena) routeOf(s int32) []RouteHop {
	return a.rec[s].route[0:a.rec[s].routeLen:maxRoute]
}

// Packed remaining-route word ("rw"): travels with a flit through
// events and queue-block words so the forward path never touches the
// flit's arena record between inject and eject. Layout:
//
//	bits  0..49  up to five future hops, 10 bits each: port | vc<<6
//	bits 50..53  count of hops held in the word
//	bits 54..58  route index of the word's first hop
//	bit  59      slow marker: consult the arena record instead
//
// Wormhole packets (route read through headOf, hopIdx drives VC
// ownership) and Revisable flits (route rewritten at head-arrival)
// carry the slow marker and use the original record-backed path.
// Fast routes are at most 7 hops (VLB legs + ejection), so a flit
// needs at most one mid-flight repack from its record.
const (
	rwCntShift = 50
	rwIdxShift = 54
	rwSlow     = uint64(1) << 59
	rwHopMask  = uint64(1)<<rwCntShift - 1
)

// packRW packs up to five hops of slot s's route starting at index
// from (cnt 0 with a valid idx when from is already past the end —
// the forward path repacks on demand).
func (a *flitArena) packRW(s int32, from int) uint64 {
	rec := &a.rec[s]
	cnt := int(rec.routeLen) - from
	if cnt > 5 {
		cnt = 5
	}
	if cnt < 0 {
		cnt = 0
	}
	var hops uint64
	for i := cnt - 1; i >= 0; i-- {
		h := rec.route[from+i]
		hops = hops<<10 | uint64(uint8(h.Port)) | uint64(uint8(h.VC))<<6
	}
	return hops | uint64(cnt)<<rwCntShift | uint64(from)<<rwIdxShift
}

// setRoute records the route a SourceRoute/Revise call left in the
// view. The fast path — the routing function appended within the
// block's capacity — is just the length store; a view that escaped
// the block (a reallocating append that later truncated back, or an
// arena growth between view creation and the write-back) is copied
// home, and a route that genuinely exceeds maxRoute is a
// configuration error worth dying loudly for: silently truncating it
// would corrupt routing.
func (a *flitArena) setRoute(s int32, route []RouteHop) {
	if len(route) > maxRoute {
		panic(fmt.Sprintf("netsim: routing function produced a %d-hop route; "+
			"the route arena stride is %d hops", len(route), maxRoute))
	}
	if len(route) > 0 && &route[0] != &a.rec[s].route[0] {
		copy(a.rec[s].route[:], route)
	}
	a.rec[s].routeLen = int16(len(route))
}

// RoutingFunc computes and revises source routes. Implementations
// live in internal/routing (UGAL-L, UGAL-G, PAR and T- variants).
type RoutingFunc interface {
	Name() string
	// SourceRoute fills f.Route (ending with the ejection hop),
	// f.MinRouted and f.Revisable for a packet entering the network.
	// f.Route arrives empty with its backing storage provided by the
	// caller (arena-backed inside the simulator): implementations
	// should append to it rather than replace it, and must not retain
	// it past the call.
	SourceRoute(n *Network, r *rng.Source, f *Flit)
	// Revise is called once when a Revisable flit reaches the head of
	// an input buffer at switch sw; it may rewrite the remaining
	// route (same storage rules as SourceRoute). Implementations that
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
// (outPort<<8|outVC), computed at emission time — when the sender is
// already touching the flit's arena lines — so head-arrival at the
// receiver costs no arena loads at all. headEmpty means "decode at
// head-arrival": the sentinel for Revisable flits, whose route may be
// rewritten (and whose routeRNG draw must happen) exactly when they
// reach the head of a buffer.
type event struct {
	flit int32
	r    int32
	rw   uint64 // packed remaining-route word (see rwCntShift)
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

	// fa is the flit arena; scratch is the reusable routing-boundary
	// view materialized around SourceRoute/Revise calls. Both are
	// touched only on the sequential phase (injection) and by revision,
	// which only happens at one shard, so sharing them across shards is
	// safe.
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
	// ovcOwner[(sw*nonTerm+(p-P))*numVCs+v] is the head-flit slot
	// holding the output VC in wormhole mode (-1 free); nil in
	// single-flit mode. The head slot is a valid unique key for the
	// whole ownership window because pending keeps it allocated until
	// after the tail has passed (and cleared) every owned VC.
	ovcOwner []int32
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

	// Input queues are ring buffers in per-shard arenas (simShard.ring)
	// with one power-of-two capacity rbCap derived from Cfg.BufSize.
	// Queue g = (sw*ports+p)*numVCs+v packs its head entry into
	// qMeta[g]: free-running uint8 head and tail cursors (bits 0-7,
	// 8-15; BufSize is capped at 128 so the cursor difference is
	// unambiguous), the head flit's decoded next hop (bits 16-31,
	// outPort<<8|outVC, headEmpty when empty) and its arena slot
	// (bits 32-63). qRW[g] holds the head flit's packed route word.
	//
	// The two arrays are deliberately parallel rather than
	// interleaved: an allocator probe reads only qMeta[g], so qMeta
	// stays dense enough to live in L2 for the largest topologies,
	// while qRW is touched only by push/pop/forward. Entries behind
	// the head live as word pairs (slot|hop<<32, rw) at
	// ring[2*((g-shard.ringBase)<<qShift ...)] inside the owning
	// shard's arena.
	qMeta  []uint64
	qRW    []uint64
	rbMask uint32
	qShift uint

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
	// 4-byte entry and a branch-free drain loop replace a 24-byte
	// event. Only valid when the routing function never revises in
	// flight: a reviser (PAR) observes credit state mid-delivery
	// through Revise, so its credits must stay interleaved with flit
	// events in their original emission order.
	fastCredits bool

	// shards is the static contiguous router partition (always at
	// least one entry). Each shard owns its routers' active bitset,
	// input-queue arena, timing-wheel segment, mailboxes and ejection
	// buffer.
	shards    []simShard
	shardSize int32
	// engine steps the shards; workers is the number of its crew the
	// current (or most recent) Run steps them with, 1 before any Run.
	engine  *shardEngine
	workers int

	// Per-node unbounded source queues and next generation times.
	// genCal buckets nodes by next generation cycle and srcActive
	// lists nodes with non-empty source queues (sorted ascending), so
	// inject visits O(active) nodes instead of all of them; srcNext
	// is the double buffer srcActive is rebuilt into each cycle.
	nodeQ     []ringQ
	nextGen   []int64
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
// exactly these. The bounds are the packed structures': uint8 ring
// cursors (BufSize), the port- and vc-mask allocators (radix, NumVCs),
// a wormhole packet that must fit one buffer, int16 latencies.
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
	case cfg.PacketSize < 0 || cfg.PacketSize > cfg.BufSize:
		return bad("PacketSize", "%d outside 1..BufSize (%d)", cfg.PacketSize, cfg.BufSize)
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
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 1
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
	// Ring-buffer capacity: BufSize rounded up to a power of two, so
	// queue positions are one shift+mask.
	rbCap := uint32(1)
	n.qShift = 0
	for int(rbCap) < n.Cfg.BufSize {
		rbCap <<= 1
		n.qShift++
	}
	n.rbMask = rbCap - 1

	n.portMask = make([]uint64, sw)
	n.vcMask = make([]uint16, sw*n.ports)
	n.qMeta = make([]uint64, sw*n.ports*n.numVCs)
	for i := range n.qMeta {
		n.qMeta[i] = qmEmpty
	}
	n.qRW = make([]uint64, len(n.qMeta))
	n.inOcc = make([]int32, sw*n.ports)
	n.credits = make([]int16, sw*n.nonTerm*n.numVCs)
	for i := range n.credits {
		n.credits[i] = int16(n.Cfg.BufSize)
	}
	if n.Cfg.PacketSize > 1 {
		n.ovcOwner = make([]int32, sw*n.nonTerm*n.numVCs)
		for i := range n.ovcOwner {
			n.ovcOwner[i] = -1
		}
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
	n.nodeQ = make([]ringQ, nodes)
	// Pre-size every source queue: first-push and doubling allocations
	// otherwise land mid-simulation (they dominated timed allocation
	// counts), and queues keep setting depth maxima far into a run, so
	// only reserving the full cap actually reaches zero steady-state
	// allocations. See sourceQueueReserveBudget.
	if n.rate > 0 {
		reserve := sourceQueueCap
		if nodes*sourceQueueCap*4 > sourceQueueReserveBudget {
			reserve = sourceQueueReserveMin
		}
		for i := range n.nodeQ {
			n.nodeQ[i].reserve(reserve)
		}
	}
	n.nextGen = make([]int64, nodes)
	// Expected calendar bucket high water: the mean due-node count of
	// one cycle plus a five-sigma Poisson margin, so pre-sized buckets
	// essentially never double.
	expectDue := 0
	if n.rate > 0 {
		m := float64(nodes) * math.Min(1, n.rate)
		expectDue = int(m+5*math.Sqrt(m)) + 16
	}
	n.genCal.init(t.NumNodes(), expectDue)
	n.srcActive = make([]int32, 0, nodes)
	n.srcNext = make([]int32, 0, nodes)
	for i := range n.nextGen {
		n.nextGen[i] = n.geomNext(0)
		n.genCal.add(n.nextGen[i], int32(i))
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

// Now returns the current simulation cycle.
func (n *Network) Now() int64 { return n.now }

// Shards returns the effective shard count: Config.Shards clamped to
// the switch count and downgraded to 1 when the routing function may
// revise routes in flight (see InFlightReviser).
func (n *Network) Shards() int { return len(n.shards) }

// ShardStats reports the effective shard count and the number of
// parallel workers the most recent Run stepped them with (1 before
// any Run, and always 1 at one shard).
func (n *Network) ShardStats() (shards, workers int) {
	return len(n.shards), n.workers
}

// Routing returns the routing function under simulation.
func (n *Network) Routing() RoutingFunc { return n.routing }

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

// shardOf returns the shard owning switch sw.
func (n *Network) shardOf(sw int32) *simShard { return &n.shards[sw/n.shardSize] }

// audit verifies flit conservation; used by tests.
func (n *Network) audit() (inFlight int64, err error) {
	var buffered int64
	for _, c := range n.flits {
		buffered += int64(c)
	}
	var queued int64
	for i := range n.nodeQ {
		queued += int64(n.nodeQ[i].len())
	}
	// In-flight flits sit in the shards' wheel segments and, between
	// cycles, in the not-yet-merged mailboxes.
	var wheeled int64
	for s := range n.shards {
		sh := &n.shards[s]
		for _, bucket := range sh.wheel {
			for _, ev := range bucket {
				if ev.flit >= 0 {
					wheeled++
				}
			}
		}
		for _, box := range sh.outbox {
			for _, oe := range box {
				if oe.ev.flit >= 0 {
					wheeled++
				}
			}
		}
	}
	inFlight = buffered + queued + wheeled
	if n.injected != n.delivered+inFlight+n.refusedInj {
		return inFlight, fmt.Errorf("netsim: conservation violated: injected=%d delivered=%d inflight=%d refused=%d",
			n.injected, n.delivered, inFlight, n.refusedInj)
	}
	// Arena cross-check: every in-flight flit holds a live slot. With
	// single-flit packets the two counts are equal; in wormhole mode a
	// head slot legitimately outlives its own ejection while pending
	// body flits remain (the headOf invariant), so live may exceed
	// in-flight there but never trail it.
	live := int64(n.fa.live())
	if live < inFlight || (n.Cfg.PacketSize == 1 && live != inFlight) {
		return inFlight, fmt.Errorf("netsim: arena leak: %d live slots, %d flits in flight", live, inFlight)
	}
	return inFlight, nil
}
