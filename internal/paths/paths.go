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
package paths

import (
	"fmt"

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
func (p Path) Equal(q Path) bool {
	if len(p.Sw) != len(q.Sw) {
		return false
	}
	for i := range p.Sw {
		if p.Sw[i] != q.Sw[i] {
			return false
		}
	}
	for i := range p.Ports {
		if p.Ports[i] != q.Ports[i] {
			return false
		}
	}
	return true
}

func (p Path) String() string {
	return fmt.Sprintf("path%v", p.Sw)
}

// GlobalHops counts the global links on the path.
func GlobalHops(t *topo.Compiled, p Path) int {
	n := 0
	for _, pt := range p.Ports {
		if t.KindOfPort(int(pt)) == topo.Global {
			n++
		}
	}
	return n
}

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
	p := Path{Sw: make([]int32, 0, 4), Ports: make([]int8, 0, 3)}
	p.Sw = append(p.Sw, int32(s))
	u, v := int(l.From), int(l.To)
	if u != s {
		p.Ports = append(p.Ports, int8(t.LocalPort(s, u)))
		p.Sw = append(p.Sw, int32(u))
	}
	p.Ports = append(p.Ports, int8(t.GlobalPort(int(l.FromPort))))
	p.Sw = append(p.Sw, int32(v))
	if v != d {
		p.Ports = append(p.Ports, int8(t.LocalPort(v, d)))
		p.Sw = append(p.Sw, int32(d))
	}
	return p
}

// minLeg is one MIN path in fixed-size scratch form: n hops, their
// out-ports, and the switch sequence from the leg's own source.
type minLeg struct {
	n     int8
	ports [3]int8
	sw    [4]int32
}

// set builds the MIN leg s -> l.From -> l.To -> d.
func (m *minLeg) set(t *topo.Compiled, s, d int, l topo.GlobalLink) {
	u, v := int(l.From), int(l.To)
	n := 0
	m.sw[0] = int32(s)
	if u != s {
		m.ports[n] = int8(t.LocalPort(s, u))
		n++
		m.sw[n] = int32(u)
	}
	m.ports[n] = int8(t.GlobalPort(int(l.FromPort)))
	n++
	m.sw[n] = int32(v)
	if v != d {
		m.ports[n] = int8(t.LocalPort(v, d))
		n++
		m.sw[n] = int32(d)
	}
	m.n = int8(n)
}

// sharesChannel reports whether joining the two legs would use one
// directed channel twice. It cannot arise from two MIN legs of
// disjoint group pairs, so it is always false today; the check guards
// future arrangement variants. A MIN leg never repeats a channel
// itself, so only cross-leg hops are compared.
func (m *minLeg) sharesChannel(o *minLeg) bool {
	for i := 0; i < int(m.n); i++ {
		for j := 0; j < int(o.n); j++ {
			if m.sw[i] == o.sw[j] && m.ports[i] == o.ports[j] {
				return true
			}
		}
	}
	return false
}

// vlbVisitor enumerates the VLB paths out of one source switch
// without allocating per path: EnumerateVLBMax and, through policyWalk,
// every policy's Enumerate, EstimatePaths, both passes of the store
// compile and Walker are this one walk. The MIN(src, ·) legs
// toward every possible intermediate are built once, on the first
// inter-group pair (each is reused for every destination), the K
// second legs of an (intermediate, destination) pair are built into
// legs2 when the walk reaches it, and every joined path is handed to
// the callback as a Path view over sw/ports.
type vlbVisitor struct {
	t     *topo.Compiled
	src   int
	legs1 []minLeg // MIN(src, inter) leg k at [inter*K+k]
	legs2 []minLeg
	sw    [MaxVLBHops + 1]int32
	ports [MaxVLBHops]int8
}

func (v *vlbVisitor) buildLegs() {
	t := v.t
	v.legs1 = make([]minLeg, t.NumSwitches()*t.K)
	v.legs2 = make([]minLeg, t.K)
	gs := t.GroupOf(v.src)
	for gi := 0; gi < t.G; gi++ {
		if gi == gs {
			continue
		}
		links := t.LinksBetweenGroups(gs, gi)
		for si := 0; si < t.A; si++ {
			inter := t.SwitchID(gi, si)
			for k, l := range links {
				v.legs1[inter*t.K+k].set(t, v.src, inter, l)
			}
		}
	}
}

// visit calls yield for every VLB path from the visitor's source to d
// of at most maxHops hops: all combinations of MIN(src,i) and MIN(i,d)
// over intermediates i outside both endpoint groups, in (group,
// switch, first leg, second leg) order, or the 2-hop in-group detours
// of a same-group pair. Switch revisits are allowed — a VLB path
// hairpins through the intermediate group's connector switch whenever
// both legs attach to it, the common case with one link per group
// pair. The Path aliases the visitor's scratch and is valid only until
// yield returns; Clone it to keep it.
func (v *vlbVisitor) visit(d, maxHops int, yield func(Path)) {
	t, s := v.t, v.src
	if s == d || maxHops < 2 {
		return
	}
	if t.SameGroup(s, d) {
		g := t.GroupOf(s)
		v.sw[0], v.sw[2] = int32(s), int32(d)
		for i := 0; i < t.A; i++ {
			m := t.SwitchID(g, i)
			if m == s || m == d {
				continue
			}
			v.sw[1] = int32(m)
			v.ports[0], v.ports[1] = int8(t.LocalPort(s, m)), int8(t.LocalPort(m, d))
			yield(Path{Sw: v.sw[:3:3], Ports: v.ports[:2:2]})
		}
		return
	}
	if v.legs1 == nil {
		v.buildLegs()
	}
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	for gi := 0; gi < t.G; gi++ {
		if gi == gs || gi == gd {
			continue
		}
		links2 := t.LinksBetweenGroups(gi, gd)
		for si := 0; si < t.A; si++ {
			inter := t.SwitchID(gi, si)
			for k, l := range links2 {
				v.legs2[k].set(t, inter, d, l)
			}
			for k1 := 0; k1 < t.K; k1++ {
				l1 := &v.legs1[inter*t.K+k1]
				n1 := int(l1.n)
				copy(v.sw[:4], l1.sw[:])
				copy(v.ports[:3], l1.ports[:])
				for k2 := range v.legs2 {
					l2 := &v.legs2[k2]
					h := n1 + int(l2.n)
					if h > maxHops || l1.sharesChannel(l2) {
						continue
					}
					copy(v.sw[n1:n1+4], l2.sw[:])
					copy(v.ports[n1:n1+3], l2.ports[:])
					yield(Path{Sw: v.sw[: h+1 : h+1], Ports: v.ports[:h:h]})
				}
			}
		}
	}
}

// policyWalk is the one filtered enumerator: the paths out of one source
// switch that pol admits and that survive mask (nil: all do), in full
// VLB order, walking only leg combinations of at most hopCap(pol) hops.
type policyWalk struct {
	v       vlbVisitor
	pol     Policy
	maxHops int
	mask    *topo.FailureMask
}

func newPolicyWalk(t *topo.Compiled, pol Policy, mask *topo.FailureMask, src int) *policyWalk {
	return &policyWalk{v: vlbVisitor{t: t, src: src}, pol: pol, maxHops: hopCap(pol), mask: mask}
}

// visit calls yield for each such path to d; as with vlbVisitor.visit,
// the Path is valid only until yield returns.
func (w *policyWalk) visit(d int, yield func(Path)) {
	w.v.visit(d, w.maxHops, func(p Path) {
		if w.pol.Contains(w.v.src, d, p) && Alive(w.mask, p) {
			yield(p)
		}
	})
}

// Walker lists a policy's path set pair by pair, for the analyses that
// need a pair's paths together (the load rows of the throughput model,
// the load-balance adjustment): the stored range of a compiled Store,
// which must already be degraded under the mask in play, or the
// filtered walk of an interpreted policy under mask. Either way the
// paths come in the policy's Enumerate order, in scratch the Walker
// reuses from call to call. Not for concurrent use.
type Walker struct {
	st *Store      // the policy, when it is compiled
	w  *policyWalk // otherwise its walk, out of the last source asked for

	buf   Path
	sw    []int32 // the kept paths' switches, ports and hop counts,
	ports []int8  // back to back
	hops  []uint8
	out   []Path
}

// NewWalker returns a Walker over pol on t.
func NewWalker(t *topo.Compiled, pol Policy, mask *topo.FailureMask) *Walker {
	if st, ok := pol.(*Store); ok {
		return &Walker{st: st}
	}
	return &Walker{w: newPolicyWalk(t, pol, mask, -1)}
}

// Pair returns the paths of pair (s, d), valid until the next call.
func (k *Walker) Pair(s, d int) []Path {
	k.sw, k.ports, k.hops, k.out = k.sw[:0], k.ports[:0], k.hops[:0], k.out[:0]
	if k.st != nil {
		first, count := k.st.PairRange(s, d)
		for id := first; id < first+PathID(count); id++ {
			k.st.MaterializeInto(s, id, &k.buf)
			k.keep(k.buf)
		}
	} else {
		if k.w.v.src != s {
			k.w.v = vlbVisitor{t: k.w.v.t, src: s}
		}
		k.w.visit(d, k.keep)
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
// maxHops hops, skipping longer leg combinations before they are
// built. Enumeration order is a stable subsequence of the full
// EnumerateVLB order.
func EnumerateVLBMax(t *topo.Compiled, s, d, maxHops int) []Path {
	var out []Path
	(&vlbVisitor{t: t, src: s}).visit(d, maxHops, func(p Path) { out = append(out, p.Clone()) })
	return out
}

// CountVLBByHops histograms the full VLB path set of a pair by hop
// count; index i holds the number of i-hop paths.
func CountVLBByHops(t *topo.Compiled, s, d int) [MaxVLBHops + 1]int {
	var hist [MaxVLBHops + 1]int
	(&vlbVisitor{t: t, src: s}).visit(d, MaxVLBHops, func(p Path) { hist[p.Hops()]++ })
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
	l := links[r.Intn(len(links))]
	u, v := int(l.From), int(l.To)
	if u != s {
		dst.Ports = append(dst.Ports, int8(t.LocalPort(s, u)))
		dst.Sw = append(dst.Sw, int32(u))
	}
	dst.Ports = append(dst.Ports, int8(t.GlobalPort(int(l.FromPort))))
	dst.Sw = append(dst.Sw, int32(v))
	if v != d {
		dst.Ports = append(dst.Ports, int8(t.LocalPort(v, d)))
		dst.Sw = append(dst.Sw, int32(d))
	}
}

// sampleVLBOnceInto draws one random (intermediate, leg, leg)
// combination exactly as conventional UGAL does — uniform
// intermediate switch outside both groups, then a uniform MIN leg on
// each side — writing into dst's backing storage. ok=false when the
// topology offers no intermediate (g<3 for inter-group, a<3 for
// intra-group). Because the two legs live in disjoint group pairs, a
// sampled path can never reuse a directed channel, so no join check
// is needed (the enumerator keeps one for generality).
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
	cur := s
	hop := func(to int, port int) {
		dst.Sw = append(dst.Sw, int32(to))
		dst.Ports = append(dst.Ports, int8(port))
		cur = to
	}
	if int(l1.From) != cur {
		hop(int(l1.From), t.LocalPort(cur, int(l1.From)))
	}
	hop(int(l1.To), t.GlobalPort(int(l1.FromPort)))
	if inter != cur {
		hop(inter, t.LocalPort(cur, inter))
	}
	if int(l2.From) != cur {
		hop(int(l2.From), t.LocalPort(cur, int(l2.From)))
	}
	hop(int(l2.To), t.GlobalPort(int(l2.FromPort)))
	if d != cur {
		hop(d, t.LocalPort(cur, d))
	}
	return true
}
