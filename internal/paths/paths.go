// Package paths enumerates and samples the MIN and VLB paths of a
// Dragonfly topology and defines the candidate-path policies that
// distinguish conventional UGAL (all VLB paths) from T-UGAL (a
// topology-custom subset, T-VLB).
//
// Terminology follows the paper: hop counts are switch-to-switch hops
// (terminal links are not counted), a MIN path uses at most one global
// link (1-3 hops between groups, 1 hop within a group, 0 hops on the
// same switch), and a VLB path is a MIN path to an intermediate switch
// outside the source and destination groups followed by a MIN path to
// the destination (2-6 hops). For source and destination in the same
// group, the non-minimal path detours through another switch of the
// group (2 hops).
//
// A candidate set is one table over port-kind words (Words): every
// policy but Explicit admits a VLB path by the l/g sequence of its
// hops, whole, by a keyed hash draw, or not at all. The compile's walk
// and Store.DropMask read it once per leg pair, Contains per built
// path. Explicit is a base set less a removal set.
//
// A Store is a compiled set: PathID ranges per pair over the full VLB
// set, the base every other set filters. That base is arithmetic: every
// inter-group pair holds (G-2)·A·K² paths and every in-group pair A-2,
// and the path at an offset in its pair is the MIN legs it joins. The
// pristine full set is the base itself; any other store keeps one bit
// per path of it. A point read selects a bit and decodes its offset; a
// reader of a whole pair joins legs and takes the joins whose bits are
// set.
package paths

import (
	"fmt"
	"slices"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// MaxVLBHops is the longest possible VLB path on any Dragonfly.
const MaxVLBHops = 6

// Path is a concrete route: a switch sequence plus the out-port taken
// at each switch. Ports disambiguate parallel global links between the
// same pair of switches, which exist whenever h > g-1.
type Path struct {
	Sw    []int32 // switches visited, len = Hops()+1
	Ports []int8  // Ports[i] is the out-port at Sw[i] toward Sw[i+1]
}

// Hops returns the switch-to-switch hop count.
func (p Path) Hops() int { return len(p.Ports) }

// Src returns the first switch.
func (p Path) Src() int { return int(p.Sw[0]) }

// Dst returns the last switch.
func (p Path) Dst() int { return int(p.Sw[len(p.Sw)-1]) }

// Key folds the path identity (switches and ports) into a stable
// 64-bit hash, used for implicit subset membership and removal sets.
// Allocation-free: it runs on every rejection sample in restricted
// policies.
func (p Path) Key() uint64 {
	h := rng.HashSeed
	for i, sw := range p.Sw {
		h = rng.Mix(h, uint64(sw))
		if i < len(p.Ports) {
			h = rng.Mix(h, uint64(uint8(p.Ports[i])))
		}
	}
	return h
}

// Clone returns a deep copy.
func (p Path) Clone() Path {
	return Path{
		Sw:    append([]int32(nil), p.Sw...),
		Ports: append([]int8(nil), p.Ports...),
	}
}

// Equal reports identity of switches and ports.
func (p Path) Equal(q Path) bool { return slices.Equal(p.Sw, q.Sw) && slices.Equal(p.Ports, q.Ports) }

func (p Path) String() string {
	return fmt.Sprintf("path%v", p.Sw)
}

// EnumerateMin returns every MIN path from switch s to switch d.
// Same switch: one zero-hop path. Same group: the single local hop.
// Different groups: one path per global link between the groups
// (1-3 hops depending on whether s/d host the link endpoints).
func EnumerateMin(t *topo.Compiled, s, d int) []Path {
	if s == d {
		return []Path{{Sw: []int32{int32(s)}}}
	}
	if t.SameGroup(s, d) {
		return []Path{{
			Sw:    []int32{int32(s), int32(d)},
			Ports: []int8{int8(t.LocalPort(s, d))},
		}}
	}
	links := t.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d))
	out := make([]Path, 0, len(links))
	for _, l := range links {
		out = append(out, minViaLink(t, s, d, l))
	}
	return out
}

// minViaLink builds the MIN path s -> (link.From) -> (link.To) -> d.
func minViaLink(t *topo.Compiled, s, d int, l topo.GlobalLink) Path {
	p := Path{Sw: append(make([]int32, 0, 4), int32(s)), Ports: make([]int8, 0, 3)}
	appendLeg(t, &p, s, d, l)
	return p
}

// appendLeg appends to p, which ends at switch s, the hops of the MIN
// leg s -> (link.From) -> (link.To) -> d.
func appendLeg(t *topo.Compiled, p *Path, s, d int, l topo.GlobalLink) {
	sw, ports := p.Sw, p.Ports
	u, v := int(l.From), int(l.To)
	if u != s {
		sw, ports = append(sw, int32(u)), append(ports, int8(t.LocalPort(s, u)))
	}
	sw, ports = append(sw, int32(v)), append(ports, int8(t.GlobalPort(int(l.FromPort))))
	if v != d {
		sw, ports = append(sw, int32(d)), append(ports, int8(t.LocalPort(v, d)))
	}
	p.Sw, p.Ports = sw, ports
}

// Leg is one MIN path in fixed-size form: n hops, their out-ports
// (zero past n), the switch sequence from the leg's own source, its
// shape (an index into legShapes), and whether every hop survives the
// walk's failure mask. A VLB path is two legs joined at an
// intermediate switch, so its hops are theirs: it survives the mask
// exactly when both legs do, and the two legs never share a directed
// channel. The source, intermediate and destination
// groups are distinct, and a channel of the first leg either starts in
// the source group or enters the intermediate switch, while a channel
// of the second starts in the intermediate or destination group and
// never enters the intermediate switch, the second leg's own source.
type Leg struct {
	n     int8
	alive bool
	shape uint8
	ports [3]int8
	sw    [4]int32
}

// set builds the MIN leg s -> l.From -> l.To -> d under mask (nil:
// pristine).
func (m *Leg) set(t *topo.Compiled, mask *topo.FailureMask, s, d int, l topo.GlobalLink) {
	u, v := int(l.From), int(l.To)
	n := 0
	m.ports = [3]int8{}
	m.sw[0] = int32(s)
	m.shape = 1 // g, 2 lg; a last local hop makes them 3 gl and 4 lgl
	if u != s {
		m.ports[n] = int8(t.LocalPort(s, u))
		n++
		m.sw[n] = int32(u)
		m.shape = 2
	}
	m.ports[n] = int8(t.GlobalPort(int(l.FromPort)))
	n++
	m.sw[n] = int32(v)
	if v != d {
		m.ports[n] = int8(t.LocalPort(v, d))
		n++
		m.sw[n] = int32(d)
		m.shape += 2
	}
	m.n = int8(n)
	m.alive = m.survives(mask)
}

// setLocal builds the one-hop leg u -> v inside a group under mask;
// its shape is legShapes[0], l.
func (m *Leg) setLocal(t *topo.Compiled, mask *topo.FailureMask, u, v int) {
	*m = Leg{n: 1, ports: [3]int8{int8(t.LocalPort(u, v))}, sw: [4]int32{int32(u), int32(v)}}
	m.alive = m.survives(mask)
}

func (m *Leg) survives(mask *topo.FailureMask) bool {
	for i := 0; mask != nil && i < int(m.n); i++ {
		if mask.ChannelDead(int(m.sw[i]), int(m.ports[i])) {
			return false
		}
	}
	return true
}

// Hops returns the leg's hop count: 0 for a same-switch MIN path, 1 to
// 3 otherwise.
func (m *Leg) Hops() int { return int(m.n) }

// Alive reports whether every hop of the leg survives the mask it was
// built under.
func (m *Leg) Alive() bool { return m.alive }

// Hop returns the switch hop i leaves and the out-port it takes.
func (m *Leg) Hop(i int) (sw, port int) { return int(m.sw[i]), int(m.ports[i]) }

// Ports returns the leg's out-ports packed as Store.Ports packs a path's:
// a joined path's are its first leg's ORed with its second's shifted
// past the first's hops.
func (m *Leg) Ports() uint64 { return Packed(m.ports[:m.n]) }

// chain continues a Path.Key chain that has mixed in the leg's source
// over the rest of the leg: each hop's port, then the switch it
// reaches. A joined path's key is its second leg's chain continued from
// its first leg's, which ends by mixing in the intermediate.
func (m *Leg) chain(h uint64) uint64 {
	for i := 0; i < int(m.n); i++ {
		h = rng.Mix(h, uint64(uint8(m.ports[i])))
		h = rng.Mix(h, uint64(m.sw[i+1]))
	}
	return h
}

// MinLegs appends to dst the MIN paths of pair (s, d) as legs, in
// EnumerateMin's order, each with its liveness under mask (nil:
// pristine): one zero-hop leg when s == d, alive with its switch, one
// local hop inside a group, else one leg a global link between the
// groups. The live ones are EnumerateMinAlive's paths.
func MinLegs(t *topo.Compiled, mask *topo.FailureMask, s, d int, dst []Leg) []Leg {
	switch {
	case s == d:
		return append(dst, Leg{sw: [4]int32{int32(s)}, alive: mask == nil || !mask.SwitchDead(s)})
	case t.SameGroup(s, d):
		var m Leg
		m.setLocal(t, mask, s, d)
		return append(dst, m)
	}
	for _, l := range t.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d)) {
		var m Leg
		m.set(t, mask, s, d, l)
		dst = append(dst, m)
	}
	return dst
}

// legAt is where the K MIN legs from x, in group gx, to y, in group
// gy != gx, start in a table of every inter-group leg (newLegTable's).
func legAt(t *topo.Compiled, x, gx, y, gy int) int {
	col := y
	if gy > gx {
		col -= t.A
	}
	return (x*(t.NumSwitches()-t.A) + col) * t.K
}

// newLegTable builds every inter-group MIN leg of t once, with its
// liveness under mask: the K legs from x to y at [(x*(n-a)+col)*K, +K),
// col being y's place among the n-a switches outside x's group. Each
// compile pass builds one before its row tasks start, and they only
// read it.
func newLegTable(t *topo.Compiled, mask *topo.FailureMask) []Leg {
	n := t.NumSwitches()
	legs := make([]Leg, 0, n*(n-t.A)*t.K)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if gx, gy := t.GroupOf(x), t.GroupOf(y); gx != gy {
				for _, l := range t.LinksBetweenGroups(gx, gy) {
					var m Leg
					m.set(t, mask, x, y, l)
					legs = append(legs, m)
				}
			}
		}
	}
	return legs
}

// vlbVisitor supplies the MIN legs of the VLB paths out of one source
// switch, each carrying its liveness under mask, and joins a leg pair
// into a Path view over its scratch. Under a compile the legs come
// from the pass's leg table. An interpreted walk builds none: there
// the MIN(src, ·) legs toward every possible intermediate are built
// once, on the first inter-group pair (each is reused for every
// destination), and the K second legs of an (intermediate,
// destination) pair are built into legs2 when the walk reaches it.
type vlbVisitor struct {
	t     *topo.Compiled
	mask  *topo.FailureMask
	table []Leg // newLegTable's; nil on an interpreted walk
	src   int
	built bool   // interpreted: legs1 holds src's legs
	legs1 []Leg  // interpreted: MIN(src, inter) leg k at [inter*K+k]
	legs2 []Leg  // interpreted: MIN(inter, d) of the current pair
	local [2]Leg // the two hops of an in-group detour
	sw    [MaxVLBHops + 1]int32
	ports [MaxVLBHops]int8
}

// from moves an interpreted walk to source src: the legs out of the old
// source go, their storage and the mask stay.
func (v *vlbVisitor) from(src int) {
	if v.src != src {
		v.src, v.built = src, false
	}
}

// legs returns the K MIN legs from x, in group gx, to y, in group
// gy != gx: x is the source and y an intermediate, or x an
// intermediate and y the destination.
func (v *vlbVisitor) legs(x, gx, y, gy int) []Leg {
	t := v.t
	if v.table != nil {
		i := legAt(t, x, gx, y, gy)
		return v.table[i : i+t.K]
	}
	if x != v.src {
		for k, l := range t.LinksBetweenGroups(gx, gy) {
			v.legs2[k].set(t, v.mask, x, y, l)
		}
		return v.legs2
	}
	if !v.built {
		if v.legs1 == nil {
			v.legs1 = make([]Leg, t.NumSwitches()*t.K)
			v.legs2 = make([]Leg, t.K)
		}
		v.built = true
		for gi := 0; gi < t.G; gi++ {
			if gi == gx {
				continue
			}
			links := t.LinksBetweenGroups(gx, gi)
			for si := 0; si < t.A; si++ {
				inter := t.SwitchID(gi, si)
				for k, l := range links {
					v.legs1[inter*t.K+k].set(t, v.mask, x, inter, l)
				}
			}
		}
	}
	return v.legs1[y*t.K : (y+1)*t.K]
}

// path joins two legs into a Path view over the visitor's scratch,
// valid until the next call; Clone it to keep it.
func (v *vlbVisitor) path(a, b *Leg) Path {
	n1, h := int(a.n), int(a.n+b.n)
	copy(v.sw[:4], a.sw[:])
	copy(v.ports[:3], a.ports[:])
	copy(v.sw[n1:n1+4], b.sw[:])
	copy(v.ports[n1:n1+3], b.ports[:])
	return Path{Sw: v.sw[: h+1 : h+1], Ports: v.ports[:h:h]}
}

// legShapes are the words a MIN leg can have, n hops with global-hop
// bits g: an in-group detour's one local hop, then an inter-group
// leg's (l?) g (l?) — g, lg, gl, lgl.
var legShapes = [...]struct{ n, g uint }{{1, 0}, {1, 1}, {2, 2}, {2, 1}, {3, 2}}

// policyWalk is the one filtered enumerator: the paths out of one
// source switch that a set admits and that survive the visitor's mask,
// in full VLB order. The set is a word policy, a Store, or an Explicit
// over either. Every reader of a pair's joins is this walk — Enumerate
// of every word policy, EstimatePaths, LegWalk, the store compile and
// Store.DropMask — and its per-intermediate loop (judge,
// which pair runs) is the only place a join is admitted. A path's
// liveness is its two legs', and its admission the table at the word its
// legs' shapes join into, read once per shape pair when the walk is
// made, and where that decides (a keyed word, or an Explicit, whose
// removals it must miss) its Key, chained from the legs. A Store is
// walked as Full's table under the mask it was compiled under: a full
// store holds exactly the live joins, and any other's bits are tested
// at the joins. No path is built.
type policyWalk struct {
	v     vlbVisitor
	pairs [len(legShapes)][len(legShapes)]admit // by first and second leg shape
	draw  KeyDraw
	ex    *Explicit // removals to miss; nil: none
	st    *Store    // the stored base whose bits are tested; nil: none
	keyed uint8     // the hop counts whose keys the caller reads
	at    int       // the pair's place in the full set (st)
	left  int       // the pair's stored paths not taken yet (st)
	in    []bool    // one intermediate's verdicts and keys
	keys  []uint64
}

// newPolicyWalk walks pol out of src under mask (nil: pristine), with
// legs from table, which must have been built under the same mask, or
// built as the walk goes when table is nil. pol is a word policy, a
// Store or an Explicit over either; a Store's mask must be mask.
func newPolicyWalk(t *topo.Compiled, pol Policy, mask *topo.FailureMask, src int, table []Leg) *policyWalk {
	root, ex := unwrap(pol)
	w := &policyWalk{v: vlbVisitor{t: t, mask: mask, table: table, src: src}, ex: ex}
	if st, ok := root.(*Store); ok {
		if root = (Full{T: t}); !st.full {
			w.st = st
		}
	}
	words, ok := WordsOf(root)
	if !ok {
		panic(fmt.Sprintf("paths: %s is not stated by port-kind words", root.Name()))
	}
	w.draw = words.draw
	for i, a := range legShapes {
		for j, b := range legShapes {
			w.pairs[i][j] = words.class(int(a.n+b.n), a.g|b.g<<a.n)
		}
	}
	return w
}

// storeOf returns the Store pol reads under its Explicit wrappers, nil
// when it reads none.
func storeOf(pol Policy) *Store {
	root, _ := unwrap(pol)
	st, _ := root.(*Store)
	return st
}

// each calls yield with the first and second legs of every intermediate
// of the pair (src, d), in visit's order: MIN(src, i) and MIN(i, d) for
// each switch i outside both endpoint groups, or for a same-group pair
// the local hops into and out of each other switch of the group. The
// legs are valid only until yield returns.
func (v *vlbVisitor) each(d int, yield func(legs1, legs2 []Leg)) {
	t, s := v.t, v.src
	if s == d {
		return
	}
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	if gs == gd {
		for i := 0; i < t.A; i++ {
			m := t.SwitchID(gs, i)
			if m == s || m == d {
				continue
			}
			v.local[0].setLocal(t, v.mask, s, m)
			v.local[1].setLocal(t, v.mask, m, d)
			yield(v.local[:1], v.local[1:])
		}
		return
	}
	for gi := 0; gi < t.G; gi++ {
		if gi == gs || gi == gd {
			continue
		}
		for si := 0; si < t.A; si++ {
			inter := t.SwitchID(gi, si)
			yield(v.legs(s, gs, inter, gi), v.legs(inter, gi, d, gd))
		}
	}
}

// pair calls yield once for each intermediate of the pair (src, d), in
// the full VLB order, with its first and second legs; the k-th join of
// the pair is the path at offset k. For first[i] joined to second[j],
// in[i*len(second)+j] is the set's verdict: out when a leg is dead or,
// over a stored base that is not a full set, when the join's bit is not
// set; else the table's answer for the legs' shapes and, where that
// decides, the key — a keyed word's draw and the Explicit's removals. When the path is in and its key was read (or its
// hop count is one keyed asks for), keys[i*len(second)+j] is its
// Path.Key. All are valid only until yield returns. A stored path the
// walk does not reach panics.
func (w *policyWalk) pair(d int, yield func(first, second []Leg, in []bool, keys []uint64)) {
	src := w.v.src
	if w.st != nil {
		_, w.left = w.st.PairRange(src, d)
		w.at = w.st.set.start(src, d)
	}
	start, o := rng.Mix(rng.HashSeed, uint64(int32(src))), 0
	w.v.each(d, func(first, second []Leg) {
		w.judge(start, o, first, second)
		o += len(first) * len(second)
		yield(first, second, w.in, w.keys)
	})
	if w.left != 0 {
		panic(fmt.Sprintf("paths: %s: pair (%d, %d) has stored paths the full walk under the store's mask does not reach", w.st.Name(), src, d))
	}
}

// judge fills in and keys for one intermediate's joins, start being the
// key chain through the pair's source and o the offset of its first
// join. What the loop reads of w is copied out first: its writes to in
// and keys could otherwise alias w, and every join would reload it.
func (w *policyWalk) judge(start uint64, o int, first, second []Leg) {
	n2, draw, ex, keyed, merge := len(second), w.draw, w.ex, w.keyed, w.st != nil
	w.in, w.keys = resize(w.in, len(first)*n2), resize(w.keys, len(first)*n2)
	for i := range first {
		a, in := &first[i], w.in[i*n2:(i+1)*n2]
		if !a.alive {
			clear(in)
			continue
		}
		keys, row := w.keys[i*n2:(i+1)*n2], &w.pairs[a.shape]
		chain, chained := uint64(0), false
		for j := range second {
			b := &second[j]
			c, h := row[b.shape], a.n+b.n
			ok := b.alive && c != admitNone && (!merge || w.take(o+i*n2+j))
			if ok && (c == admitKeyed || ex != nil || keyed>>h&1 != 0) {
				if !chained {
					chain, chained = a.chain(start), true
				}
				key := b.chain(chain)
				keys[j] = key
				ok = (c == admitAll || draw.In(key)) && !ex.removes(key)
			}
			in[j] = ok
		}
	}
}

// take reports whether the join at offset o of the pair is stored in a
// base whose bits are tested (w.st), and then counts it taken: every
// live join of a word policy or a full store is in the base.
func (w *policyWalk) take(o int) bool {
	if !w.st.keep.holds(w.at + o) {
		return false
	}
	w.left--
	return true
}

// visit calls yield with the two legs of each admitted path to d: all
// combinations of MIN(src,i) and MIN(i,d) over intermediates i outside
// both endpoint groups, in (group, switch, first leg, second leg)
// order, or the 2-hop in-group detours of a same-group pair. Switch
// revisits are allowed — a VLB path hairpins through the intermediate
// group's connector switch whenever both legs attach to it, the common
// case with one link per group pair. The legs are valid only until
// yield returns.
func (w *policyWalk) visit(d int, yield func(a, b *Leg)) {
	w.pair(d, func(first, second []Leg, in []bool, _ []uint64) {
		for i := range first {
			for j := range second {
				if in[i*len(second)+j] {
					yield(&first[i], &second[j])
				}
			}
		}
	})
}

// paths is visit with each admitted path joined into the visitor's
// scratch, valid only until yield returns.
func (w *policyWalk) paths(d int, yield func(Path)) {
	w.visit(d, func(a, b *Leg) { yield(w.v.path(a, b)) })
}

// LegWalk reads a path set one pair at a time as the MIN legs its VLB
// paths join, for the walks that count crossings or pack ports instead
// of listing paths: the throughput model's, and the load-balance
// adjustment's over a policy too large to compile. It builds no Path:
// per intermediate it hands out the first and second legs, the set's
// verdict on each join and the keys of the joins it admits at the hop
// counts asked for — policyWalk's loop, over a word policy, a Store (the
// full set's legs under the store's mask) or an Explicit over either. A
// dead leg is in no join. Not for concurrent use.
type LegWalk struct{ w *policyWalk }

// NewLegWalk returns a LegWalk over base on t under mask (a stored base
// is walked under the mask it was compiled under), handing out the keys
// of the joins of hop count h in the set where bit h of keyed is set.
func NewLegWalk(t *topo.Compiled, base Policy, mask *topo.FailureMask, keyed uint8) *LegWalk {
	if st := storeOf(base); st != nil {
		mask = st.mask
	}
	w := newPolicyWalk(t, base, mask, -1, nil)
	w.keyed = keyed
	return &LegWalk{w}
}

// Pair calls yield once for each intermediate of pair (s, d), in the
// set's enumeration order, with its first and second legs. For first[i]
// joined to second[j], in[i*len(second)+j] reports whether the path is
// in the set, and when it is and its hop count is one the walk keys,
// keys[i*len(second)+j] is its Path.Key. All are valid only until yield
// returns.
func (lw *LegWalk) Pair(s, d int, yield func(first, second []Leg, in []bool, keys []uint64)) {
	lw.w.v.from(s)
	lw.w.pair(d, yield)
}

// resize returns xs with length n, reallocated only to grow; the caller
// overwrites what it reads.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// EnumerateVLB returns every VLB path from s to d: all loop-free
// combinations of MIN(s,i) and MIN(i,d) over intermediates i outside
// both endpoint groups. For a same-group pair it returns the 2-hop
// in-group detours. Same-switch pairs have no VLB paths.
func EnumerateVLB(t *topo.Compiled, s, d int) []Path {
	return enumerate(t, Full{T: t}, s, d)
}

// CountVLBByHops histograms the full VLB path set of a pair by hop
// count; index i holds the number of i-hop paths.
func CountVLBByHops(t *topo.Compiled, s, d int) [MaxVLBHops + 1]int {
	var hist [MaxVLBHops + 1]int
	newPolicyWalk(t, Full{T: t}, nil, s, nil).visit(d, func(a, b *Leg) { hist[a.n+b.n]++ })
	return hist
}

// sampleVLBOnceInto draws one random (intermediate, leg, leg)
// combination exactly as conventional UGAL does — uniform
// intermediate switch outside both groups, then a uniform MIN leg on
// each side — writing into dst's backing storage. ok=false when the
// topology offers no intermediate (g<3 for inter-group, a<3 for
// intra-group). Like the enumerator's, its two legs can never reuse a
// directed channel (see Leg), so no join check is needed.
func sampleVLBOnceInto(t *topo.Compiled, r *rng.Source, s, d int, dst *Path) bool {
	if s == d {
		return false
	}
	dst.Sw = append(dst.Sw[:0], int32(s))
	dst.Ports = dst.Ports[:0]
	if t.SameGroup(s, d) {
		if t.A < 3 {
			return false
		}
		g := t.GroupOf(s)
		for {
			m := t.SwitchID(g, r.Intn(t.A))
			if m == s || m == d {
				continue
			}
			dst.Sw = append(dst.Sw, int32(m), int32(d))
			dst.Ports = append(dst.Ports, int8(t.LocalPort(s, m)), int8(t.LocalPort(m, d)))
			return true
		}
	}
	if t.G < 3 {
		return false
	}
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	var gi int
	for {
		gi = r.Intn(t.G)
		if gi != gs && gi != gd {
			break
		}
	}
	inter := t.SwitchID(gi, r.Intn(t.A))
	links1 := t.LinksBetweenGroups(gs, gi)
	links2 := t.LinksBetweenGroups(gi, gd)
	l1 := links1[r.Intn(len(links1))]
	l2 := links2[r.Intn(len(links2))]
	appendLeg(t, dst, s, inter, l1)
	appendLeg(t, dst, inter, d, l2)
	return true
}
