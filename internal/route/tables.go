// Package route compiles a topology's routing decisions — the MIN
// candidate sets and a compiled VLB candidate policy (paths.Store) —
// into flat per-switch forwarding tables and serves route lookups
// from them at production rates.
//
// The table form is the deliverable a fabric manager pushes to real
// switches: for every (source switch, destination switch) pair an
// int32-indexed row of candidate entries, each a packed route word
// carrying the full ≤6-hop port/VC sequence. Lookups are two array
// loads plus at most two bounded RNG draws, and are pinned
// bit-equivalent to the decisions paths.Store + internal/routing
// produce directly on an idle network (see the equivalence tests).
//
// Tables are immutable after Emit, shared read-only like paths.Store.
// Topology changes go through ApplyDelta, which
// filters the rows a failure delta dirtied out of the previous epoch's
// rows into a patch chunk of their own behind a new epoch — the
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

// Route words pack one candidate's full switch-to-switch route into a
// uint64: bits [0,3) hold the hop count (0..6) and hop i occupies the
// 10-bit field at bit 3+10*i — out-port in the low 7 bits, VC in the
// high 3. 3 + 6*10 = 63 bits; ports are int8 repo-wide (<128) and no
// shipped VC scheme assigns a class above 7.
const (
	wordHopBits  = 10
	wordPortMask = 0x7f
	wordVCShift  = 7
	wordVCMask   = 0x7
)

// WordHops returns a route word's hop count.
func WordHops(w uint64) int { return int(w & 0x7) }

// WordHop returns hop i's out-port and virtual channel.
func WordHop(w uint64, i int) (port, vc int8) {
	f := w >> (3 + uint(i)*wordHopBits)
	return int8(f & wordPortMask), int8((f >> wordVCShift) & wordVCMask)
}

// AppendRoute decodes a route word into netsim route hops, appending
// to buf, and finishes with the ejection hop at the destination
// switch's terminal port ejectPort — exactly the route SourceRoute
// would have built.
func AppendRoute(buf []netsim.RouteHop, w uint64, ejectPort int8) []netsim.RouteHop {
	h := WordHops(w)
	for i := 0; i < h; i++ {
		p, vc := WordHop(w, i)
		buf = append(buf, netsim.RouteHop{Port: p, VC: vc})
	}
	return append(buf, netsim.RouteHop{Port: ejectPort, VC: 0})
}

// packWord packs an already-VC-assigned hop sequence into a route
// word. It fails only on inputs outside the packing contract (more
// than 6 hops, a port ≥ 128 or a VC class ≥ 8), none of which any
// supported topology/scheme combination produces.
func packWord(hops []netsim.RouteHop) (uint64, error) {
	if len(hops) > paths.MaxVLBHops {
		return 0, fmt.Errorf("route: %d hops exceed the %d-hop word capacity", len(hops), paths.MaxVLBHops)
	}
	w := uint64(len(hops))
	for i, h := range hops {
		if h.Port < 0 || int(h.Port) > wordPortMask {
			return 0, fmt.Errorf("route: port %d of hop %d does not fit the word", h.Port, i)
		}
		if h.VC < 0 || int(h.VC) > wordVCMask {
			return 0, fmt.Errorf("route: VC %d of hop %d does not fit the word", h.VC, i)
		}
		w |= (uint64(h.Port) | uint64(h.VC)<<wordVCShift) << (3 + uint(i)*wordHopBits)
	}
	return w, nil
}

// Config selects the VC assignment the emitter bakes into every
// candidate word. The zero value is replaced by Default.
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

// Tables is the compiled forwarding-table form of one (topology,
// policy, failure-mask) triple: per ordered switch pair a row of MIN
// candidate words followed by VLB candidate words, uniform-weight
// within each class, in the exact order the live samplers
// (paths.SampleMinAliveInto, Store.SampleID) index — which is what
// makes table lookups bit-equivalent to direct routing decisions.
//
// Tables are strictly read-only after Emit/ApplyDelta return and are
// shared across any number of concurrent readers with no
// synchronization (the Service swaps whole *Tables pointers).
type Tables struct {
	T *topo.Compiled

	policy string
	cfg    Config
	epoch  int
	n      int // switches; the row index is src*n+dst
	// mask is the failure mask the rows were emitted or filtered
	// under (nil: pristine). Like the rows it is never written again.
	mask *topo.FailureMask

	// idx has stride 3 per ordered pair: word start, MIN candidate
	// count, VLB candidate count. A pair's words are contiguous —
	// MIN candidates first — in the base arena when start <
	// len(words), in a patch chunk (patch address start-len(words))
	// otherwise.
	idx   []int32
	words []uint64
	// pages maps the patch address space, pageWords addresses a page,
	// onto the patch chunks. Every ApplyDelta epoch allocates one chunk
	// of exactly the words it writes and starts it on a fresh page;
	// page p of a chunk is the chunk from word p*pageWords to its end,
	// so pages[a>>pageShift][a&pageMask] resolves any patch address a
	// and a row read from its first word's page is contiguous even
	// across a page boundary. Later epochs share earlier chunks by
	// pointer and copy only this table of slice headers.
	pages      [][]uint64
	patchWords int64 // words in all live chunks

	buildTime time.Duration
}

// Patch pages are 64Ki words (512 KiB): small enough that the page an
// epoch leaves part-used costs the int32 address space little (2^15
// epochs at worst), large enough that a g17 epoch (~1.8M words) adds
// under thirty slice headers to the table every later epoch copies.
const (
	pageShift = 16
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// Policy returns the name of the VLB candidate policy the tables were
// emitted from.
func (tb *Tables) Policy() string { return tb.policy }

// Epoch returns the emission epoch: 0 for a fresh Emit, incremented
// by every ApplyDelta derivation.
func (tb *Tables) Epoch() int { return tb.epoch }

// Mask returns the failure mask the tables serve under (nil:
// pristine). It is shared and must not be modified.
func (tb *Tables) Mask() *topo.FailureMask { return tb.mask }

// BuildTime reports how long the emit (or delta filter) took.
func (tb *Tables) BuildTime() time.Duration { return tb.buildTime }

// PatchBytes reports the size of the patch chunks the tables keep
// alive: what every ApplyDelta epoch so far has added, superseded rows
// included.
func (tb *Tables) PatchBytes() int64 { return 8 * tb.patchWords }

// Bytes reports the resident size of the table arenas.
func (tb *Tables) Bytes() int64 {
	return 8*int64(len(tb.words)) + tb.PatchBytes() + 4*int64(len(tb.idx))
}

// word resolves a candidate index across the base arena and the patch
// pages.
func (tb *Tables) word(i int32) uint64 {
	if int(i) < len(tb.words) {
		return tb.words[i]
	}
	a := int(i) - len(tb.words)
	return tb.pages[a>>pageShift][a&pageMask]
}

// row returns pair pi's candidate words — MIN candidates first — as
// one read-only view, and how many of them are MIN candidates.
func (tb *Tables) row(pi int) (words []uint64, minN int32) {
	start, mc, vc := tb.idx[pi*3], tb.idx[pi*3+1], tb.idx[pi*3+2]
	if mc+vc == 0 {
		return nil, 0 // an empty row's start may address nothing
	}
	arena := tb.words
	if int(start) >= len(tb.words) {
		a := int(start) - len(tb.words)
		arena, start = tb.pages[a>>pageShift], int32(a&pageMask)
	}
	return arena[start : start+mc+vc : start+mc+vc], mc
}

// Row returns the pair's MIN and VLB candidate words as read-only
// views into the arenas.
func (tb *Tables) Row(s, d int) (min, vlb []uint64) {
	words, mc := tb.row(s*tb.n + d)
	return words[:mc:mc], words[mc:]
}

// EqualRows reports whether two tables serve identical candidate
// rows for every pair — the equivalence ApplyDelta promises against
// a from-scratch Emit on the degraded store.
func (tb *Tables) EqualRows(o *Tables) bool {
	if tb.n != o.n {
		return false
	}
	eq := func(a, b []uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for s := 0; s < tb.n; s++ {
		for d := 0; d < tb.n; d++ {
			am, av := tb.Row(s, d)
			bm, bv := o.Row(s, d)
			if !eq(am, bm) || !eq(av, bv) {
				return false
			}
		}
	}
	return true
}

// emitter carries one worker's scratch state of an emit pass.
type emitter struct {
	t      *topo.Compiled
	cfg    Config
	mask   *topo.FailureMask
	path   paths.Path
	hops   []netsim.RouteHop
	failed error
}

// pack VC-assigns p (srcBudget 1: the UGAL family) and packs it.
func (e *emitter) pack(p paths.Path) uint64 {
	e.hops = routing.AppendVCHops(e.hops[:0], e.t, e.cfg.NumVCs, e.cfg.Scheme, 1, p)
	w, err := packWord(e.hops)
	if err != nil && e.failed == nil {
		e.failed = err
	}
	return w
}

// emitPair appends the pair's MIN then VLB candidate words to out,
// returning the extended arena and the two counts. Orders mirror the
// live samplers: MIN candidates follow EnumerateMinAlive (= the
// mask-filtered link-list order SampleMinAliveInto draws over), VLB
// candidates follow the store's compiled pair range (= SampleID's
// index space).
func (e *emitter) emitPair(st *paths.Store, s, d int, out []uint64) (arena []uint64, minN, vlbN int32) {
	for _, p := range paths.EnumerateMinAlive(e.t, e.mask, s, d) {
		out = append(out, e.pack(p))
		minN++
	}
	first, count := st.PairRange(s, d)
	for k := 0; k < count; k++ {
		st.MaterializeInto(s, first+paths.PathID(k), &e.path)
		out = append(out, e.pack(e.path))
		vlbN++
	}
	return out, minN, vlbN
}

// Emit compiles the store (and the topology's MIN sets, filtered by
// the store's failure mask) into forwarding tables. Every row's
// candidate counts are known before anything is packed, so words is
// allocated once at its exact size — one word per candidate, ~67 MiB
// for the paper's largest compiled store (~8.4M paths) — and every
// source switch packs its rows into their own range, the switches
// spread over the default pool. The tables are identical at any worker
// count, and so is a failure: the error names the lowest-index failing
// row.
func Emit(st *paths.Store, cfg Config) (*Tables, error) {
	start := time.Now()
	t := st.T
	n := t.NumSwitches()
	tb := &Tables{
		T:      t,
		policy: st.Name(),
		cfg:    cfg.withDefaults(),
		n:      n,
		mask:   st.Mask(),
		idx:    make([]int32, n*n*3),
	}
	mask := tb.mask
	total := int64(0)
	for pi := 0; pi < n*n; pi++ {
		_, vlbN := st.PairRange(pi/n, pi%n)
		minN := paths.CountMinAlive(t, mask, pi/n, pi%n)
		tb.idx[pi*3], tb.idx[pi*3+1], tb.idx[pi*3+2] = int32(total), int32(minN), int32(vlbN)
		total += int64(minN + vlbN)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("route: %d candidates exceed the int32 table index", total)
	}
	tb.words = make([]uint64, total)
	errs := make([]error, n)
	exec.Default().RunRows("route/emit", n, func(s int) {
		e := &emitter{t: t, cfg: tb.cfg, mask: mask}
		for d := 0; d < n && errs[s] == nil; d++ {
			i := (s*n + d) * 3
			first, end := tb.idx[i], tb.idx[i]+tb.idx[i+1]+tb.idx[i+2]
			e.emitPair(st, s, d, tb.words[first:first:end])
			if e.failed != nil {
				errs[s] = fmt.Errorf("route: row (%d,%d): %w", s, d, e.failed)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	tb.buildTime = time.Since(start)
	return tb, nil
}

// DeltaStats reports what one ApplyDelta epoch did.
type DeltaStats struct {
	// DirtyPairs is how many rows were examined: the union of the
	// store's VLB-dirty pairs, the MIN-dirty pairs implied by the
	// newly dead channels and the newly dead switches' own rows.
	DirtyPairs int
	// WordsEmitted is the total candidate words written to this
	// epoch's patch chunk (the rows that lost a candidate).
	WordsEmitted int
	BuildTime    time.Duration
}

// rowFilter decides which words of a row survive a mask. A word
// carries its own ports and its VCs do not depend on the mask, so a
// degraded row is its previous epoch's row minus the dead words, in
// order — exactly what Emit over a store compiled degraded under the
// same mask packs (the live samplers' orders are stable under
// filtering).
type rowFilter struct {
	mask    *topo.FailureMask
	dead    []bool  // mask.DeadDense
	peer    []int32 // topo.Compiled.PeerDense
	nonTerm int     // channels per switch in both
	p       int     // first non-terminal port
}

// alive walks the word's ports from switch src over the dense channel
// arrays. A zero-hop word (the same-switch ejection) lives exactly as
// long as its switch.
func (f *rowFilter) alive(w uint64, src int) bool {
	h := WordHops(w)
	if h == 0 {
		return !f.mask.SwitchDead(src)
	}
	for w >>= 3; h > 0; h-- {
		ch := src*f.nonTerm + int(w&wordPortMask) - f.p
		if f.dead[ch] {
			return false
		}
		src = int(f.peer[ch])
		w >>= wordHopBits
	}
	return true
}

// count returns how many of the words, all routes out of src, survive.
func (f *rowFilter) count(words []uint64, src int) (n int32) {
	for _, w := range words {
		if f.alive(w, src) {
			n++
		}
	}
	return n
}

// fill writes the surviving words to dst in order.
func (f *rowFilter) fill(dst, words []uint64, src int) {
	at := 0
	for _, w := range words {
		if f.alive(w, src) {
			dst[at] = w
			at++
		}
	}
}

// ApplyDelta derives the tables for a grown failure mask from the
// receiver's rows alone: mask is the cumulative mask (the receiver's
// plus this delta, never nil), newlyDead the failure delta (whose
// MIN-affected pairs are over-approximated via paths.MinDirtyPairs)
// and vlbDirty the store's dirty-pair list for it
// (paths.Store.DirtyPairs). Each dirty row is filtered against mask,
// count -> size -> fill with the rows spread over the default pool: a
// row that lost nothing keeps its range, the others are written, in
// dirty-list order, to one new chunk of exactly their size. The
// receiver is never mutated and shares no writable memory with the
// result, so earlier epochs keep serving their own rows and the result
// is the same at any worker count.
func (tb *Tables) ApplyDelta(mask *topo.FailureMask, newlyDead []topo.Channel, vlbDirty [][2]int32) (*Tables, DeltaStats, error) {
	start := time.Now()
	n := tb.n
	seen := make([]bool, n*n)
	var dirty []int32
	add := func(s, d int32) {
		if pi := s*int32(n) + d; !seen[pi] {
			seen[pi] = true
			dirty = append(dirty, pi)
		}
	}
	for _, p := range vlbDirty {
		add(p[0], p[1])
	}
	for _, p := range paths.MinDirtyPairs(tb.T, newlyDead) {
		add(p[0], p[1])
	}
	// MinDirtyPairs only reports s != d pairs; a switch death also
	// dirties its own (sw, sw) row, whose single zero-hop candidate
	// must drop so same-switch lookups refuse. The masks are compared,
	// not the delta: a switch whose links had all failed already dies
	// without a newly dead channel.
	for sw := 0; sw < n; sw++ {
		if mask.SwitchDead(sw) && (tb.mask == nil || !tb.mask.SwitchDead(sw)) {
			add(int32(sw), int32(sw))
		}
	}

	f := &rowFilter{mask: mask, dead: mask.DeadDense(), peer: tb.T.PeerDense(), nonTerm: tb.T.A - 1 + tb.T.H, p: tb.T.P}
	pool := exec.Default()
	out := &Tables{
		T: tb.T, policy: tb.policy, cfg: tb.cfg,
		epoch: tb.epoch + 1, n: n, mask: mask,
		idx:   slices.Clone(tb.idx),
		words: tb.words,
		pages: slices.Clone(tb.pages),
	}
	pool.RunRows("route/delta-count", len(dirty), func(k int) {
		pi := int(dirty[k])
		words, mc := tb.row(pi)
		out.idx[pi*3+1] = f.count(words[:mc], pi/n)
		out.idx[pi*3+2] = f.count(words[mc:], pi/n)
	})
	// The rows that lost a candidate move, in dirty-list order, to this
	// epoch's chunk, whose first word takes the first address of a
	// fresh page. A row left empty has no words to address and keeps
	// its start.
	base := int64(len(tb.words)) + int64(len(tb.pages))*pageWords
	total := int64(0)
	for _, pi := range dirty {
		i := int(pi) * 3
		lost := out.idx[i+1] != tb.idx[i+1] || out.idx[i+2] != tb.idx[i+2]
		if size := out.idx[i+1] + out.idx[i+2]; lost && size > 0 {
			out.idx[i] = int32(base + total) // wraps past MaxInt32: refused below
			total += int64(size)
		}
	}
	if base+total > math.MaxInt32 {
		return nil, DeltaStats{}, fmt.Errorf("route: epoch %d: patch addresses reach %d, beyond the int32 table index", out.epoch, base+total)
	}
	chunk := make([]uint64, total)
	for at := int64(0); at < total; at += pageWords {
		out.pages = append(out.pages, chunk[at:])
	}
	out.patchWords = tb.patchWords + total
	pool.RunRows("route/delta-fill", len(dirty), func(k int) {
		pi := int(dirty[k])
		if out.idx[pi*3] == tb.idx[pi*3] {
			return
		}
		words, _ := tb.row(pi)
		f.fill(chunk[int64(out.idx[pi*3])-base:], words, pi/n)
	})
	out.buildTime = time.Since(start)
	return out, DeltaStats{DirtyPairs: len(dirty), WordsEmitted: int(total), BuildTime: out.buildTime}, nil
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
	d := Decision{Word: w, Min: min, Hops: uint8(WordHops(w)), Port: -1}
	if d.Hops > 0 {
		d.Port, d.VC = WordHop(w, 0)
	}
	return d
}

// Lookup resolves one (source switch, destination switch) query
// against the tables. The RNG draw sequence is exactly the one
// routing.UGAL.SourceRoute consumes — a MIN draw only for inter-group
// pairs with surviving candidates, then a VLB draw only when the mode
// samples VLB and the row has candidates — so a caller feeding the
// same rng.Source stream to direct routing and to Lookup gets
// bit-identical decisions, query after query.
func (tb *Tables) Lookup(r *rng.Source, mode Mode, threshold int, srcSw, dstSw int) Decision {
	i := (srcSw*tb.n + dstSw) * 3
	start, minCount, vlbCount := tb.idx[i], tb.idx[i+1], tb.idx[i+2]
	if srcSw == dstSw {
		if minCount == 0 {
			return Decision{Refused: true, Port: -1} // dead switch
		}
		return decide(tb.word(start), true)
	}
	minOK := minCount > 0
	var mWord uint64
	if minOK {
		var k int32
		// Same-group pairs have a single MIN path and the live
		// sampler draws nothing for them; inter-group pairs draw
		// uniformly over the surviving link list.
		if tb.T.GroupOf(srcSw) != tb.T.GroupOf(dstSw) {
			k = int32(r.Intn(int(minCount)))
		}
		mWord = tb.word(start + k)
	}
	switch mode {
	case ModeMin:
		if !minOK {
			return Decision{Refused: true, Port: -1}
		}
		return decide(mWord, true)
	case ModeVLB:
		if vlbCount > 0 {
			w := tb.word(start + minCount + int32(r.Intn(int(vlbCount))))
			return decide(w, false)
		}
		if minOK {
			return decide(mWord, true)
		}
		return Decision{Refused: true, Port: -1}
	default: // ModeUGAL
		if vlbCount > 0 {
			w := tb.word(start + minCount + int32(r.Intn(int(vlbCount))))
			if !minOK {
				return decide(w, false)
			}
			// Idle queue estimates: qMin = qVlb = 0, so the
			// threshold rule reduces to its sign.
			if 0 <= threshold {
				return decide(mWord, true)
			}
			return decide(w, false)
		}
		if minOK {
			return decide(mWord, true)
		}
		return Decision{Refused: true, Port: -1}
	}
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
// (port, VC) in first-appearance order.
func (tb *Tables) FirstHops(s, d int, buf []FirstHop) []FirstHop {
	min, vlb := tb.Row(s, d)
	fold := func(words []uint64, isMin bool, buf []FirstHop) []FirstHop {
		base := len(buf)
		for _, w := range words {
			p, vc := int8(-1), int8(0)
			if WordHops(w) > 0 {
				p, vc = WordHop(w, 0)
			}
			found := false
			for j := base; j < len(buf); j++ {
				if buf[j].Port == p && buf[j].VC == vc {
					buf[j].Weight++
					found = true
					break
				}
			}
			if !found {
				buf = append(buf, FirstHop{Port: p, VC: vc, Weight: 1, Min: isMin})
			}
		}
		return buf
	}
	buf = fold(min, true, buf)
	return fold(vlb, false, buf)
}

// Stats summarizes emitted tables for reporting (cmd/dflyinfo
// -tables, cmd/routed /stats).
type Stats struct {
	Pairs    int   `json:"pairs"`    // ordered switch pairs (rows), n*n
	Rows     int   `json:"rows"`     // rows with at least one candidate
	MinWords int   `json:"minWords"` // MIN candidate entries across live rows
	VLBWords int   `json:"vlbWords"` // VLB candidate entries across live rows
	Bytes    int64 `json:"bytes"`    // resident arena size
	// PatchBytes is the part of Bytes in patch chunks: what the
	// failure epochs so far have added, superseded rows included.
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

// Stats computes the table summary by walking every row.
func (tb *Tables) Stats() Stats {
	s := Stats{Pairs: tb.n * tb.n, Bytes: tb.Bytes(), PatchBytes: tb.PatchBytes(), Epoch: tb.epoch, BuildTime: tb.buildTime}
	var hopBuf []FirstHop
	firstHops := 0
	for src := 0; src < tb.n; src++ {
		for dst := 0; dst < tb.n; dst++ {
			min, vlb := tb.Row(src, dst)
			c := len(min) + len(vlb)
			if c == 0 {
				continue
			}
			s.Rows++
			s.MinWords += len(min)
			s.VLBWords += len(vlb)
			if c > s.MaxCandidates {
				s.MaxCandidates = c
			}
			hopBuf = tb.FirstHops(src, dst, hopBuf[:0])
			firstHops += len(hopBuf)
		}
	}
	if s.Rows > 0 {
		s.AvgCandidates = float64(s.MinWords+s.VLBWords) / float64(s.Rows)
		s.AvgFirstHops = float64(firstHops) / float64(s.Rows)
	}
	return s
}
