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
// reads it once per leg pair, Store.DropMask per stored path, Contains
// per built path. Explicit is a base set less a removal set.
package paths

import (
	"fmt"
	"math/bits"
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

// GlobalHops counts the global links on the path.
func GlobalHops(t *topo.Compiled, p Path) int { return bits.OnesCount(globals(t, p.Ports)) }

// Validate checks that the path is structurally sound: every hop uses
// a port of the stated kind that actually reaches the next switch.
func Validate(t *topo.Compiled, p Path) error {
	if len(p.Sw) == 0 {
		return fmt.Errorf("paths: empty path")
	}
	if len(p.Ports) != len(p.Sw)-1 {
		return fmt.Errorf("paths: %d ports for %d switches", len(p.Ports), len(p.Sw))
	}
	for i, pt := range p.Ports {
		u, v := int(p.Sw[i]), int(p.Sw[i+1])
		got, ok := t.PeerOfPortOK(u, int(pt))
		if !ok {
			return fmt.Errorf("paths: hop %d uses invalid port %d at switch %d", i, pt, u)
		}
		if got != v {
			return fmt.Errorf("paths: hop %d port %d of switch %d reaches %d, path says %d", i, pt, u, got, v)
		}
	}
	return nil
}

// ValidateMin additionally checks the MIN property (<=1 global hop).
func ValidateMin(t *topo.Compiled, p Path) error {
	if err := Validate(t, p); err != nil {
		return err
	}
	if GlobalHops(t, p) > 1 {
		return fmt.Errorf("paths: MIN path with %d global hops", GlobalHops(t, p))
	}
	return nil
}

// ValidateVLB additionally checks the VLB shape: <=2 global hops and
// hop count in [2, 6]. A VLB path may legitimately revisit one switch
// — when both legs' group-pair connector in the intermediate group is
// the same switch (always the case with one link per group pair, as
// on maximal Dragonflies), the path hairpins through it — but it may
// never use the same directed channel twice.
func ValidateVLB(t *topo.Compiled, p Path) error {
	if err := Validate(t, p); err != nil {
		return err
	}
	if g := GlobalHops(t, p); g > 2 {
		return fmt.Errorf("paths: VLB path with %d global hops", g)
	}
	if h := p.Hops(); h < 2 || h > MaxVLBHops {
		return fmt.Errorf("paths: VLB path with %d hops", h)
	}
	seen := make(map[int64]bool, len(p.Ports))
	for i, pt := range p.Ports {
		key := int64(p.Sw[i])<<8 | int64(pt)
		if seen[key] {
			return fmt.Errorf("paths: VLB path reuses channel (%d, port %d)", p.Sw[i], pt)
		}
		seen[key] = true
	}
	return nil
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

// minLeg is one MIN path in fixed-size form: n hops, their out-ports
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
type minLeg struct {
	n     int8
	alive bool
	shape uint8
	ports [3]int8
	sw    [4]int32
}

// set builds the MIN leg s -> l.From -> l.To -> d under mask (nil:
// pristine).
func (m *minLeg) set(t *topo.Compiled, mask *topo.FailureMask, s, d int, l topo.GlobalLink) {
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
func (m *minLeg) setLocal(t *topo.Compiled, mask *topo.FailureMask, u, v int) {
	*m = minLeg{n: 1, ports: [3]int8{int8(t.LocalPort(u, v))}, sw: [4]int32{int32(u), int32(v)}}
	m.alive = m.survives(mask)
}

func (m *minLeg) survives(mask *topo.FailureMask) bool {
	for i := 0; mask != nil && i < int(m.n); i++ {
		if mask.ChannelDead(int(m.sw[i]), int(m.ports[i])) {
			return false
		}
	}
	return true
}

// newLegTable builds every inter-group MIN leg of t once, with its
// liveness under mask: the K legs from x to y at [(x*(n-a)+col)*K, +K),
// col being y's place among the n-a switches outside x's group. Each
// compile pass builds one before its row tasks start, and they only
// read it.
func newLegTable(t *topo.Compiled, mask *topo.FailureMask) []minLeg {
	n := t.NumSwitches()
	legs := make([]minLeg, 0, n*(n-t.A)*t.K)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if gx, gy := t.GroupOf(x), t.GroupOf(y); gx != gy {
				for _, l := range t.LinksBetweenGroups(gx, gy) {
					var m minLeg
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
	table []minLeg // newLegTable's; nil on an interpreted walk
	src   int
	legs1 []minLeg  // interpreted: MIN(src, inter) leg k at [inter*K+k]
	legs2 []minLeg  // interpreted: MIN(inter, d) of the current pair
	local [2]minLeg // the two hops of an in-group detour
	sw    [MaxVLBHops + 1]int32
	ports [MaxVLBHops]int8
}

// legs returns the K MIN legs from x, in group gx, to y, in group
// gy != gx: x is the source and y an intermediate, or x an
// intermediate and y the destination.
func (v *vlbVisitor) legs(x, gx, y, gy int) []minLeg {
	t := v.t
	if v.table != nil {
		col := y
		if gy > gx {
			col -= t.A
		}
		i := (x*(t.NumSwitches()-t.A) + col) * t.K
		return v.table[i : i+t.K]
	}
	if x != v.src {
		for k, l := range t.LinksBetweenGroups(gx, gy) {
			v.legs2[k].set(t, v.mask, x, y, l)
		}
		return v.legs2
	}
	if v.legs1 == nil {
		v.legs1 = make([]minLeg, t.NumSwitches()*t.K)
		v.legs2 = make([]minLeg, t.K)
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
func (v *vlbVisitor) path(a, b *minLeg) Path {
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
// source switch that pol admits and that survive the visitor's mask,
// in full VLB order. Every word policy's Enumerate, EnumerateVLBMax,
// EstimatePaths, Walker and both passes of the store compile are this
// walk. A path's liveness is its two legs', and its admission the
// policy's table at the word its legs' shapes join into, read once per
// shape pair when the walk is made. So a path is built only to take
// its Key: at a keyed word, or under an Explicit, whose removals it
// must miss.
type policyWalk struct {
	v     vlbVisitor
	pairs [len(legShapes)][len(legShapes)]admit // by first and second leg shape
	draw  KeyDraw
	ex    *Explicit // removals to miss; nil: none
}

// newPolicyWalk walks pol out of src under mask (nil: pristine), with
// legs from table, which must have been built under the same mask, or
// built as the walk goes when table is nil. pol is a word policy or an
// Explicit over one.
func newPolicyWalk(t *topo.Compiled, pol Policy, mask *topo.FailureMask, src int, table []minLeg) *policyWalk {
	root, ex := unwrap(pol)
	words, ok := WordsOf(root)
	if !ok {
		panic(fmt.Sprintf("paths: %s is not stated by port-kind words", root.Name()))
	}
	w := &policyWalk{v: vlbVisitor{t: t, mask: mask, table: table, src: src}, draw: words.draw, ex: ex}
	for i, a := range legShapes {
		for j, b := range legShapes {
			w.pairs[i][j] = words.class(int(a.n+b.n), a.g|b.g<<a.n)
		}
	}
	return w
}

// visit calls yield with the two legs of each admitted path to d: all
// combinations of MIN(src,i) and MIN(i,d) over intermediates i outside
// both endpoint groups, in (group, switch, first leg, second leg)
// order, or the 2-hop in-group detours of a same-group pair. Switch
// revisits are allowed — a VLB path hairpins through the intermediate
// group's connector switch whenever both legs attach to it, the common
// case with one link per group pair. The legs are valid only until
// yield returns.
func (w *policyWalk) visit(d int, yield func(a, b *minLeg)) {
	v := &w.v
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
			w.join(v.local[:1], v.local[1:], yield)
		}
		return
	}
	for gi := 0; gi < t.G; gi++ {
		if gi == gs || gi == gd {
			continue
		}
		for si := 0; si < t.A; si++ {
			inter := t.SwitchID(gi, si)
			w.join(v.legs(s, gs, inter, gi), v.legs(inter, gi, d, gd), yield)
		}
	}
}

// join hands yield every live pair of a first and a second leg that
// pol admits: the table's answer for their shapes, and the joined
// path's key where that decides.
func (w *policyWalk) join(legs1, legs2 []minLeg, yield func(a, b *minLeg)) {
	for i := range legs1 {
		a := &legs1[i]
		if !a.alive {
			continue
		}
		row := &w.pairs[a.shape]
		for j := range legs2 {
			b := &legs2[j]
			if c := row[b.shape]; b.alive && (c == admitAll && w.ex == nil || c != admitNone && w.keyed(c, a, b)) {
				yield(a, b)
			}
		}
	}
}

// keyed is join's verdict on a path whose key decides: one of a keyed
// word, or one an Explicit's removals must miss.
func (w *policyWalk) keyed(c admit, a, b *minLeg) bool {
	key := w.v.path(a, b).Key()
	return (c == admitAll || w.draw.In(key)) && !w.ex.removes(key)
}

// paths is visit with each admitted path joined into the visitor's
// scratch, valid only until yield returns.
func (w *policyWalk) paths(d int, yield func(Path)) {
	w.visit(d, func(a, b *minLeg) { yield(w.v.path(a, b)) })
}

// Walker lists a policy's path set pair by pair, for the analyses that
// need a pair's paths together (the load rows of the throughput model,
// the load-balance adjustment): the stored range of a compiled Store,
// which must already be degraded under the mask in play, or the
// filtered walk of an interpreted policy under mask. An Explicit reads
// its base's paths and skips those it removes. Either way the paths
// come in the policy's Enumerate order, in scratch the Walker reuses
// from call to call. Not for concurrent use.
type Walker struct {
	st *Store      // the policy, or the base of an Explicit, when it is compiled
	ex *Explicit   // the stored range's removals; nil: none
	w  *policyWalk // otherwise its walk, out of the last source asked for

	buf   Path
	sw    []int32 // the kept paths' switches, ports and hop counts,
	ports []int8  // back to back
	hops  []uint8
	out   []Path
}

// NewWalker returns a Walker over pol on t.
func NewWalker(t *topo.Compiled, pol Policy, mask *topo.FailureMask) *Walker {
	root, ex := unwrap(pol)
	if st, ok := root.(*Store); ok {
		return &Walker{st: st, ex: ex}
	}
	return &Walker{w: newPolicyWalk(t, pol, mask, -1, nil)}
}

// Pair returns the paths of pair (s, d), valid until the next call.
func (k *Walker) Pair(s, d int) []Path {
	k.sw, k.ports, k.hops, k.out = k.sw[:0], k.ports[:0], k.hops[:0], k.out[:0]
	if k.st != nil {
		first, count := k.st.PairRange(s, d)
		for id := first; id < first+PathID(count); id++ {
			if k.ex == nil || !k.ex.removes(k.st.KeyOf(s, id)) {
				k.st.MaterializeInto(s, id, &k.buf)
				k.keep(k.buf)
			}
		}
	} else {
		if k.w.v.src != s {
			k.w.v.src, k.w.v.legs1 = s, nil // the legs out of the old source go; the mask stays
		}
		k.w.paths(d, k.keep)
	}
	// Headers last: the appends above may have moved the scratch. Path
	// i starts after the o ports and o+i switches of the ones before it.
	o := 0
	for i, h := range k.hops {
		sw, ports := k.sw[o+i:], k.ports[o:]
		k.out = append(k.out, Path{Sw: sw[: h+1 : h+1], Ports: ports[:h:h]})
		o += int(h)
	}
	return k.out
}

func (k *Walker) keep(p Path) {
	k.sw = append(k.sw, p.Sw...)
	k.ports = append(k.ports, p.Ports...)
	k.hops = append(k.hops, uint8(p.Hops()))
}

// EnumerateVLB returns every VLB path from s to d: all loop-free
// combinations of MIN(s,i) and MIN(i,d) over intermediates i outside
// both endpoint groups. For a same-group pair it returns the 2-hop
// in-group detours. Same-switch pairs have no VLB paths.
func EnumerateVLB(t *topo.Compiled, s, d int) []Path {
	return EnumerateVLBMax(t, s, d, MaxVLBHops)
}

// EnumerateVLBMax is EnumerateVLB restricted to paths of at most
// maxHops hops — the set of LengthCapped{MaxHops: maxHops} — joining
// no longer leg pair. Enumeration order is a stable subsequence of the
// full EnumerateVLB order.
func EnumerateVLBMax(t *topo.Compiled, s, d, maxHops int) []Path {
	return enumerate(t, LengthCapped{T: t, MaxHops: maxHops}, s, d)
}

// CountVLBByHops histograms the full VLB path set of a pair by hop
// count; index i holds the number of i-hop paths.
func CountVLBByHops(t *topo.Compiled, s, d int) [MaxVLBHops + 1]int {
	var hist [MaxVLBHops + 1]int
	newPolicyWalk(t, Full{T: t}, nil, s, nil).visit(d, func(a, b *minLeg) { hist[a.n+b.n]++ })
	return hist
}

// SampleMin draws a uniformly random MIN path for the pair, matching
// UGAL's single random MIN candidate.
func SampleMin(t *topo.Compiled, r *rng.Source, s, d int) Path {
	var p Path
	SampleMinInto(t, r, s, d, &p)
	return p
}

// SampleMinInto is SampleMin writing into dst's backing storage —
// the simulator's per-packet hot path.
func SampleMinInto(t *topo.Compiled, r *rng.Source, s, d int, dst *Path) {
	dst.Sw = append(dst.Sw[:0], int32(s))
	dst.Ports = dst.Ports[:0]
	if s == d {
		return
	}
	if t.SameGroup(s, d) {
		dst.Sw = append(dst.Sw, int32(d))
		dst.Ports = append(dst.Ports, int8(t.LocalPort(s, d)))
		return
	}
	links := t.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d))
	appendLeg(t, dst, s, d, links[r.Intn(len(links))])
}

// sampleVLBOnceInto draws one random (intermediate, leg, leg)
// combination exactly as conventional UGAL does — uniform
// intermediate switch outside both groups, then a uniform MIN leg on
// each side — writing into dst's backing storage. ok=false when the
// topology offers no intermediate (g<3 for inter-group, a<3 for
// intra-group). Like the enumerator's, its two legs can never reuse a
// directed channel (see minLeg), so no join check is needed.
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
