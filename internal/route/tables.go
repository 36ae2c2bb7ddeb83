// Package route compiles a topology's routing decisions — the MIN
// candidate sets and a compiled VLB candidate policy (paths.Store) —
// into per-switch forwarding tables and serves route lookups from them
// at production rates.
//
// The table form is the deliverable a fabric manager pushes to real
// switches: for every (source switch, destination switch) pair a row of
// candidates, each a packed route word carrying the full ≤6-hop port/VC
// sequence. A row is a view of the store it was emitted from: its MIN
// candidates are packed words in a small dense arena, its VLB
// candidates are the store's PathIDs — the pair's range, minus a
// sorted list of dead IDs once a failure trimmed it — and a VLB word is
// VC-stamped and packed only when a lookup returns it. A lookup is one
// row load, at most two bounded RNG draws and the one candidate it
// serves, pinned bit-equivalent to the decisions paths.Store +
// internal/routing produce directly on an idle network (see the
// equivalence and word-oracle tests).
//
// Tables are immutable after Emit and read their store, like it,
// without synchronization. Topology changes go through ApplyDelta,
// which writes the rows a failure delta trimmed — MIN survivors and
// dead VLB IDs — to a patch of their own behind a new epoch. The
// Service layer swaps the epoch in atomically so no in-flight query is
// ever dropped or torn.
package route

import (
	"fmt"
	"math"
	"slices"
	"time"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/routing"
	"tugal/internal/topo"
)

// wordPorts returns a route word's ports, packed one byte a hop as
// paths.Store.Ports packs them.
func wordPorts(w uint64) uint64 {
	x := uint64(0)
	for i := range netsim.WordHops(w) {
		p, _ := netsim.WordHop(w, i)
		x |= uint64(p) << (8 * i)
	}
	return x
}

// AppendRoute decodes a route word into netsim route hops, appending
// to buf, and finishes with the ejection hop at the destination
// switch's terminal port ejectPort — the hops a simulated packet on
// that word takes.
func AppendRoute(buf []netsim.RouteHop, w uint64, ejectPort int8) []netsim.RouteHop {
	for i := range netsim.WordHops(w) {
		p, vc := netsim.WordHop(w, i)
		buf = append(buf, netsim.RouteHop{Port: p, VC: vc})
	}
	return append(buf, netsim.RouteHop{Port: ejectPort, VC: 0})
}

// Config selects the VC assignment stamped into every route word.
// The zero value is replaced by Default.
type Config struct {
	// NumVCs is the virtual-channel budget routes are clamped to
	// (netsim's DefaultConfig uses 4 for the UGAL family).
	NumVCs int
	// Scheme is the VC allocation scheme (routing.PhaseVC by default).
	Scheme routing.VCScheme
}

// Default returns the UGAL-family emit configuration: 4 VCs, phase
// VC allocation.
func Default() Config { return Config{NumVCs: 4, Scheme: routing.PhaseVC} }

func (c Config) withDefaults() Config {
	if c.NumVCs == 0 {
		c.NumVCs = 4
	}
	return c
}

// check refuses a configuration whose words cannot be packed: a VC
// budget past the word's 3-bit VC field or a radix past its 7-bit port
// field. Lookups build VLB words lazily and have no error to report, so
// Emit rules out every packing error up front.
func (c Config) check(t *topo.Compiled) error {
	if c.NumVCs < 1 || c.NumVCs > netsim.WordVCMask+1 {
		return fmt.Errorf("route: Config.NumVCs %d outside 1..%d, the route word's VC field", c.NumVCs, netsim.WordVCMask+1)
	}
	if t.Radix() > netsim.WordPortMask+1 {
		return fmt.Errorf("route: radix %d exceeds the route word's %d-port field", t.Radix(), netsim.WordPortMask+1)
	}
	return nil
}

// Tables is the compiled forwarding-table form of one (topology,
// policy, failure-mask) triple: per ordered switch pair a row of MIN
// candidates followed by VLB candidates, uniform-weight within each
// class, in the exact order the live samplers
// (paths.SampleMinAliveInto, Store.SampleID) index — which is what
// makes table lookups bit-equivalent to direct routing decisions.
//
// Tables are strictly read-only after Emit/ApplyDelta return and are
// shared across any number of concurrent readers with no
// synchronization (the Service swaps whole *Tables pointers).
type Tables struct {
	T *topo.Compiled

	// st is the store epoch 0 was emitted from; every VLB candidate of
	// every later epoch is one of its PathIDs.
	st     *paths.Store
	policy string
	cfg    Config
	epoch  int
	n      int // switches; the row index is src*n+dst
	// mask is the failure mask the rows were emitted or filtered
	// under (nil: pristine). Like the rows it is never written again.
	mask *topo.FailureMask

	// stamps holds each route shape's word minus its ports; every word,
	// MIN or VLB, is built from it by Stamps.Word.
	stamps *routing.Stamps

	rows []row
	// chunks[0] is the base: the MIN arena Emit packs, beside VLB
	// candidates that are the store's pair ranges. Every ApplyDelta
	// epoch appends one patch holding exactly the rows it rewrote; later
	// epochs share earlier chunks by pointer and copy only this slice of
	// headers.
	chunks     []chunk
	patchBytes int64 // bytes in all live patches

	buildTime time.Duration
}

// row locates one ordered pair's candidates in chunks[chunk]: MIN words
// min[minAt:minAt+minN], then vlbN VLB candidates out of the pair's
// Store.PairRange. In the base they are the PathIDs vlbAt..vlbAt+vlbN-1;
// in a patch vlbN counts the range's survivors and dead[vlbAt:] lists
// its other IDs, ascending.
type row struct{ chunk, minAt, minN, vlbAt, vlbN int32 }

const rowBytes = 5 * 4

// chunk holds MIN candidate words and, in a patch, dead PathIDs.
type chunk struct {
	min  []uint64
	dead []paths.PathID
}

// Policy returns the name of the VLB candidate policy the tables were
// emitted from.
func (tb *Tables) Policy() string { return tb.policy }

// Epoch returns the emission epoch: 0 for a fresh Emit, incremented
// by every ApplyDelta derivation.
func (tb *Tables) Epoch() int { return tb.epoch }

// BuildTime reports how long the emit (or delta filter) took.
func (tb *Tables) BuildTime() time.Duration { return tb.buildTime }

// PatchBytes reports the size of the patches the tables keep alive —
// 8 B per MIN word, 4 B per dead VLB PathID — what every ApplyDelta
// epoch so far has added, superseded rows included.
func (tb *Tables) PatchBytes() int64 { return tb.patchBytes }

// Bytes reports the resident size of the tables: rows, MIN arena and
// patches. The store they view is not counted.
func (tb *Tables) Bytes() int64 {
	return rowBytes*int64(len(tb.rows)) + 8*int64(len(tb.chunks[0].min)) + tb.patchBytes
}

// minWords returns a row's MIN words as a read-only view.
func (tb *Tables) minWords(r *row) []uint64 {
	return tb.chunks[r.chunk].min[r.minAt : r.minAt+r.minN : r.minAt+r.minN]
}

// vlbSpan returns the VLB candidates of row r, pair (s, d), as a range
// of PathIDs and the sorted IDs in it that are dead (none in the base).
func (tb *Tables) vlbSpan(r *row, s, d int) (first paths.PathID, n int, dead []paths.PathID) {
	if r.chunk == 0 {
		return paths.PathID(r.vlbAt), int(r.vlbN), nil
	}
	first, n = tb.st.PairRange(s, d)
	return first, n, tb.chunks[r.chunk].dead[r.vlbAt : int(r.vlbAt)+n-int(r.vlbN)]
}

// vlbID returns the k-th VLB candidate of row r, pair (s, d): the
// range's k-th ID, moved past each dead ID at or below it.
func (tb *Tables) vlbID(r *row, s, d int, k int32) paths.PathID {
	first, _, dead := tb.vlbSpan(r, s, d)
	id := first + paths.PathID(k)
	for i := 0; i < len(dead) && dead[i] <= id; i++ {
		id++
	}
	return id
}

// eachVLB calls fn with the ports of each VLB candidate of row r, pair
// (s, d), in order: the pair's stored paths merged with the row's dead
// list, or none when the row is empty.
func (tb *Tables) eachVLB(r *row, s, d int, fn func(ports uint64)) {
	_, n, dead := tb.vlbSpan(r, s, d)
	if n == 0 {
		return // an emptied row keeps no range
	}
	tb.st.PairPorts(s, d, func(id paths.PathID, ports uint64) {
		if len(dead) > 0 && dead[0] == id {
			dead = dead[1:]
			return
		}
		fn(ports)
	})
}

// Emit compiles the store (and the topology's MIN sets, filtered by
// the store's failure mask) into forwarding tables, refusing a Config
// whose words cannot be packed. VLB candidates are not copied: a row's
// are its PairRange. MIN candidates are read as legs (paths.MinLegs)
// into a reused buffer, once to count every row's live ones, so the MIN
// arena is allocated once at its exact size — ≈0.3 MiB for the paper's
// largest compiled store — and once to pack them, every source switch
// into its own rows' range, the switches spread over the default pool.
// The tables are identical at any worker count.
func Emit(st *paths.Store, cfg Config) (*Tables, error) {
	start := time.Now()
	t := st.T
	cfg = cfg.withDefaults()
	if err := cfg.check(t); err != nil {
		return nil, err
	}
	n := t.NumSwitches()
	tb := &Tables{T: t, st: st, policy: st.Name(), cfg: cfg, n: n, mask: st.Mask(), stamps: routing.NewStamps(t, cfg.NumVCs, cfg.Scheme, 1), rows: make([]row, n*n)}
	total := int64(0)
	var legs []paths.Leg
	for pi := range tb.rows {
		first, vlbN := st.PairRange(pi/n, pi%n)
		legs = paths.MinLegs(t, tb.mask, pi/n, pi%n, legs[:0])
		minN := 0
		for i := range legs {
			if legs[i].Alive() {
				minN++
			}
		}
		tb.rows[pi] = row{minAt: int32(total), minN: int32(minN), vlbAt: int32(first), vlbN: int32(vlbN)}
		total += int64(minN)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("route: %d MIN candidates exceed the int32 table index", total)
	}
	min := make([]uint64, total)
	exec.Default().RunRows("route/emit", n, func(s int) {
		var legs []paths.Leg
		for d := 0; d < n; d++ {
			at := tb.rows[s*n+d].minAt
			legs = paths.MinLegs(t, tb.mask, s, d, legs[:0])
			for i := range legs {
				if legs[i].Alive() {
					min[at], at = tb.stamps.Word(t, legs[i].Ports()), at+1
				}
			}
		}
	})
	tb.chunks = []chunk{{min: min}}
	tb.buildTime = time.Since(start)
	return tb, nil
}

// DeltaStats reports what one ApplyDelta epoch did.
type DeltaStats struct {
	// DirtyPairs is how many rows the failure dirtied: the VLB-dirty
	// ones and the ones that lost a MIN candidate.
	DirtyPairs int
	// VLBDirty is how many pairs have a base-store path across a newly
	// dead channel.
	VLBDirty int
	// PatchEntries is what this epoch's patch holds for the rows that
	// lost a candidate: MIN survivors at 8 B, dead VLB PathIDs at 4 B.
	PatchEntries int
	BuildTime    time.Duration
	rowList      time.Duration // the part of BuildTime that built the Delta and listed the rows to walk
}

// ApplyDelta derives the tables for a grown failure mask from the
// receiver's rows alone: mask is the cumulative mask (the receiver's
// plus this delta, never nil) and newlyDead the failure delta. A
// candidate's ports and VCs do not depend on the mask, so a degraded
// row is the base row minus the dead candidates, in order: what Emit
// over a store compiled degraded under mask serves.
//
// One paths.Delta is the rule for what the failure kills. The rows it
// touches are walked, ascending, and only those it says can lose a MIN
// candidate have their MIN words tested. A walked row costs the paths
// the delta kills, not its pair's stored paths: Delta.AppendIDs lists
// the pair's stored paths that cross the delta, dead already or not,
// and a row with any is VLB-dirty. Its dead IDs are that list merged
// into the row's dead list from earlier epochs (an emptied row's is its
// whole range), and a tested MIN word survives unless Delta.Kills says
// the delta kills its route. A row is dirty when it is VLB-dirty or
// lost a MIN word. A row that lost nothing keeps its place, an emptied
// one becomes an empty base row, and the rest get their MIN survivors
// and merged dead IDs, in row order, in one patch of exactly their
// size: one pass over the walked rows on the default pool finds each
// row's counts and merged list, and the patch is laid out and filled
// from them in row order. The receiver is never mutated and shares no
// writable memory with the result, so earlier epochs keep serving their
// own rows and the result is the same at any worker count.
func (tb *Tables) ApplyDelta(mask *topo.FailureMask, newlyDead []topo.Channel) (*Tables, DeltaStats) {
	start := time.Now()
	n := tb.n
	kills := paths.NewDelta(tb.mask, mask, newlyDead)
	var walk []int32
	for pi := range tb.rows {
		if row, _ := kills.Touches(pi/n, pi%n); row {
			walk = append(walk, int32(pi))
		}
	}
	rowList := time.Since(start)

	out := &Tables{
		T: tb.T, st: tb.st, policy: tb.policy, cfg: tb.cfg, stamps: tb.stamps,
		epoch: tb.epoch + 1, n: n, mask: mask,
		rows: slices.Clone(tb.rows),
	}
	// Walked row k is VLB-dirty when vlbDirty[k], and its dead IDs are
	// dead[k] when the delta added to them.
	vlbDirty := make([]bool, len(walk))
	dead := make([][]paths.PathID, len(walk))
	exec.Default().RunRanges("route/delta", len(walk), func(lo, hi int) {
		var ids, buf []paths.PathID
		for k := lo; k < hi; k++ {
			pi := int(walk[k])
			s, d, was, r := pi/n, pi%n, &tb.rows[pi], &out.rows[pi]
			ids = kills.AppendIDs(tb.st, s, d, ids[:0])
			vlbDirty[k] = len(ids) > 0
			if len(ids) > 0 && was.vlbN > 0 {
				_, count, old := tb.vlbSpan(was, s, d)
				need := len(old) + len(ids)
				if cap(buf)-len(buf) < need {
					// The rows before keep the old array: nothing is copied.
					buf = make([]paths.PathID, 0, max(2*cap(buf), need, 1<<10))
				}
				at := len(buf)
				buf = buf[:at+merge(buf[at:at+need], old, ids)]
				dead[k] = buf[at:len(buf):len(buf)]
				r.vlbN = int32(count - len(dead[k]))
			}
			if _, minRow := kills.Touches(s, d); minRow {
				r.minN = 0
				for _, wd := range tb.minWords(was) {
					if !kills.Kills(s, wordPorts(wd)) {
						r.minN++
					}
				}
			}
		}
	})
	patch := int32(len(tb.chunks))
	var minN, deadN int32
	stats := DeltaStats{rowList: rowList}
	for k, pi := range walk {
		r, was := &out.rows[pi], &tb.rows[pi]
		if !vlbDirty[k] && r.minN == was.minN {
			continue
		}
		stats.DirtyPairs++
		if vlbDirty[k] {
			stats.VLBDirty++
		}
		switch {
		case r.minN == was.minN && r.vlbN == was.vlbN:
		case r.minN+r.vlbN == 0:
			*r = row{}
		default:
			_, count := tb.st.PairRange(int(pi)/n, int(pi)%n)
			r.chunk, r.minAt, r.vlbAt = patch, minN, deadN
			minN += r.minN
			deadN += int32(count) - r.vlbN
		}
	}
	ch := chunk{min: make([]uint64, minN), dead: make([]paths.PathID, deadN)}
	for k, pi := range walk {
		s, d, r, was := int(pi)/n, int(pi)%n, &out.rows[pi], &tb.rows[pi]
		if r.chunk != patch {
			continue
		}
		min := ch.min[r.minAt:]
		_, minRow := kills.Touches(s, d)
		for _, wd := range tb.minWords(was) {
			if !minRow || !kills.Kills(s, wordPorts(wd)) {
				min[0], min = wd, min[1:]
			}
		}
		if dead[k] == nil {
			_, _, dead[k] = tb.vlbSpan(was, s, d)
		}
		copy(ch.dead[r.vlbAt:], dead[k])
	}
	out.chunks = append(slices.Clip(tb.chunks), ch)
	out.patchBytes = tb.patchBytes + 8*int64(minN) + 4*int64(deadN)
	out.buildTime = time.Since(start)
	stats.PatchEntries, stats.BuildTime = int(minN+deadN), out.buildTime
	return out, stats
}

// merge writes the union of the ascending ID lists a and b, ascending
// and once each, to dst, which has room for it, and returns its length.
func merge(dst, a, b []paths.PathID) int {
	n := 0
	for len(a) > 0 || len(b) > 0 {
		var x paths.PathID
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			x, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			x, b = b[0], b[1:]
		default:
			x, a, b = a[0], a[1:], b[1:]
		}
		dst[n] = x
		n++
	}
	return n
}

// Mode selects how a lookup combines the row's MIN and VLB candidate
// classes — the serving-time analogue of routing.Mode. The UGAL
// variants that need live queue state (UGAL-G, PAR's in-flight
// revision) have no table form; ModeUGAL is the queue-free decision
// every UGAL variant converges to on an idle network, which is the
// contract the equivalence tests pin.
type Mode int

// Lookup modes.
const (
	// ModeUGAL draws one candidate of each class and applies the
	// UGAL threshold rule with idle (zero) queue estimates.
	ModeUGAL Mode = iota
	// ModeMin always serves a MIN candidate.
	ModeMin
	// ModeVLB serves a VLB candidate whenever the row has one.
	ModeVLB
)

// ParseMode parses a mode spec: "ugal", "min" or "vlb".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ugal", "":
		return ModeUGAL, nil
	case "min":
		return ModeMin, nil
	case "vlb":
		return ModeVLB, nil
	}
	return 0, fmt.Errorf("route: unknown mode %q (want ugal, min or vlb)", s)
}

func (m Mode) String() string {
	switch m {
	case ModeMin:
		return "min"
	case ModeVLB:
		return "vlb"
	}
	return "ugal"
}

// Decision is one resolved lookup: the packed route word plus its
// decoded first hop. For a zero-hop route (source and destination on
// one switch) Port is the ejection port when the service resolved it
// from a node pair, -1 from the switch-level Lookup. A Refused
// decision mirrors the router's refusal sentinel: the pair has no
// surviving candidate in the classes the mode may serve.
type Decision struct {
	Word    uint64
	Port    int8
	VC      int8
	Hops    uint8
	Min     bool
	Refused bool
}

// decide fills a Decision from a chosen candidate word.
func decide(w uint64, min bool) Decision {
	d := Decision{Word: w, Min: min, Hops: uint8(netsim.WordHops(w)), Port: -1}
	if d.Hops > 0 {
		d.Port, d.VC = netsim.WordHop(w, 0)
	}
	return d
}

// Lookup resolves one (source switch, destination switch) query
// against the tables. The RNG draw sequence is exactly the one
// routing.UGAL.SourceRoute consumes — a MIN draw only for inter-group
// pairs with surviving candidates, then a VLB draw only when the mode
// samples VLB and the row has candidates — so a caller feeding the
// same rng.Source stream to direct routing and to Lookup gets
// bit-identical decisions, query after query. Only the candidate the
// decision serves is loaded: a MIN word from the arena, or a VLB
// PathID — in a trimmed row, selected past the row's dead IDs — whose
// word is built from the store's ports.
func (tb *Tables) Lookup(r *rng.Source, mode Mode, threshold int, srcSw, dstSw int) Decision {
	row := &tb.rows[srcSw*tb.n+dstSw]
	minOK := row.minN > 0
	mk := row.minAt
	// Same-switch and same-group pairs have a single MIN path and the
	// live sampler draws nothing for them; inter-group pairs draw
	// uniformly over the surviving link list.
	if minOK && tb.T.GroupOf(srcSw) != tb.T.GroupOf(dstSw) {
		mk += int32(r.Intn(int(row.minN)))
	}
	vlbOK := row.vlbN > 0 && mode != ModeMin && srcSw != dstSw
	var vk int32
	if vlbOK {
		vk = int32(r.Intn(int(row.vlbN)))
	}
	// ModeVLB serves VLB whenever it can. ModeUGAL's idle queue
	// estimates (qMin = qVlb = 0) reduce the threshold rule to its sign.
	switch {
	case vlbOK && (mode == ModeVLB || !minOK || threshold < 0):
		return decide(tb.stamps.Word(tb.T, tb.st.Ports(srcSw, dstSw, tb.vlbID(row, srcSw, dstSw, vk))), false)
	case minOK:
		return decide(tb.chunks[row.chunk].min[mk], true)
	}
	return Decision{Refused: true, Port: -1}
}

// FirstHop is one deduplicated next-hop entry of a forwarding row:
// the (out-port, VC) pair with the number of candidate routes behind
// it — the weighted dst → next-hop form a per-switch hardware table
// would hold. Port is -1 for the zero-hop (ejection) entry.
type FirstHop struct {
	Port   int8
	VC     int8
	Weight int32
	Min    bool
}

// FirstHops appends the pair's weighted next-hop entries to buf:
// MIN-class entries first, then VLB-class, each deduplicated by
// (port, VC) in first-appearance order. No whole word is built: a MIN
// first port is read from its word, a VLB one from the store (a whole
// range by paths.Store.FirstPorts, a trimmed row read as one merge of
// its range with its dead list), and as a first hop's VC depends on its
// port alone, entries are told apart by port and take their VC from the
// word of the one-port prefix.
func (tb *Tables) FirstHops(s, d int, buf []FirstHop) []FirstHop {
	r := &tb.rows[s*tb.n+d]
	var at [netsim.WordPortMask + 2]int32 // port+1 -> this class's entry index+1
	add := func(p int8, n int, min bool) {
		if i := at[int(p)+1]; i > 0 {
			buf[i-1].Weight += int32(n)
		} else {
			buf = tb.newFirstHop(buf, &at, p, n, min)
		}
	}
	for _, w := range tb.minWords(r) {
		p := int8(-1)
		if netsim.WordHops(w) > 0 {
			p, _ = netsim.WordHop(w, 0)
		}
		add(p, 1, true)
	}
	at = [netsim.WordPortMask + 2]int32{}
	vlb := func(p int8, n int) { add(p, n, false) }
	if _, n, dead := tb.vlbSpan(r, s, d); n > 0 && len(dead) == 0 {
		tb.st.FirstPorts(s, d, vlb)
	} else {
		// A VLB path has at least two hops, so its first port is set.
		tb.eachVLB(r, s, d, func(ports uint64) { vlb(int8(ports), 1) })
	}
	return buf
}

// newFirstHop appends the entry of port p, weight n, to buf.
func (tb *Tables) newFirstHop(buf []FirstHop, at *[netsim.WordPortMask + 2]int32, p int8, n int, min bool) []FirstHop {
	at[int(p)+1] = int32(len(buf)) + 1
	fh := FirstHop{Port: p, Weight: int32(n), Min: min}
	if p >= 0 {
		_, fh.VC = netsim.WordHop(tb.stamps.Word(tb.T, uint64(p)), 0)
	}
	return append(buf, fh)
}

// Stats summarizes emitted tables for reporting (cmd/dflyinfo
// -tables, cmd/routed /stats).
type Stats struct {
	Pairs    int   `json:"pairs"`    // ordered switch pairs (rows), n*n
	Rows     int   `json:"rows"`     // rows with at least one candidate
	MinWords int   `json:"minWords"` // MIN candidates across live rows
	VLBWords int   `json:"vlbWords"` // VLB candidates across live rows
	Bytes    int64 `json:"bytes"`    // Tables.Bytes: the store is not counted
	// PatchBytes is the part of Bytes in patches: the trimmed rows'
	// MIN words at 8 B and dead VLB PathIDs at 4 B, what the failure
	// epochs so far have added, superseded rows included.
	PatchBytes int64         `json:"patchBytes"`
	Epoch      int           `json:"epoch"`
	BuildTime  time.Duration `json:"buildTimeNS"`
	// AvgCandidates / MaxCandidates describe candidates per live row.
	AvgCandidates float64 `json:"avgCandidates"`
	MaxCandidates int     `json:"maxCandidates"`
	// AvgFirstHops is the mean deduplicated (port, VC) fanout of live
	// rows — the width of the weighted next-hop table a fabric
	// manager would push.
	AvgFirstHops float64 `json:"avgFirstHops"`
}

// Stats computes the table summary by walking every row's first hops.
func (tb *Tables) Stats() Stats {
	s := Stats{Pairs: len(tb.rows), Bytes: tb.Bytes(), PatchBytes: tb.PatchBytes(), Epoch: tb.epoch, BuildTime: tb.buildTime}
	var hopBuf []FirstHop
	firstHops := 0
	for pi, r := range tb.rows {
		c := int(r.minN + r.vlbN)
		if c == 0 {
			continue
		}
		s.Rows++
		s.MinWords += int(r.minN)
		s.VLBWords += int(r.vlbN)
		s.MaxCandidates = max(s.MaxCandidates, c)
		hopBuf = tb.FirstHops(pi/tb.n, pi%tb.n, hopBuf[:0])
		firstHops += len(hopBuf)
	}
	if s.Rows > 0 {
		s.AvgCandidates = float64(s.MinWords+s.VLBWords) / float64(s.Rows)
		s.AvgFirstHops = float64(firstHops) / float64(s.Rows)
	}
	return s
}
