package paths

import (
	"fmt"
	"sync/atomic"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// Policy is a candidate-VLB-path set: the only thing T-UGAL changes
// relative to conventional UGAL. Full, LengthCapped and Strategic are
// each nothing but the port-kind words they admit (Words).
// SampleVLBInto must draw candidates the way the router would at
// packet-injection time; Enumerate/Contains expose the same set to the
// throughput model and to the load-balance analysis of Algorithm 1
// Step 2.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// SampleVLBInto draws one candidate VLB path for the pair into
	// dst's backing storage; ok=false when the policy has no VLB
	// path for it (then UGAL degenerates to MIN for the pair). This
	// is the simulator's per-packet hot path.
	SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool
	// Enumerate lists every VLB path of the pair under the policy.
	// Intended for analysis on small/medium topologies.
	Enumerate(s, d int) []Path
	// Contains reports whether p (a valid VLB path of the pair) is in
	// the policy's set.
	Contains(s, d int, p Path) bool
}

// A path's word is the kinds of its hops in order, l (local) or g
// (global): its hop count h and the bits g of its global hops (bit i
// for hop i). A VLB path joins two MIN legs of legShapes, so on a
// Dragonfly its words are 13: an in-group pair's detours are all ll,
// and an inter-group path has exactly two g hops. D3, with one global
// port a switch, has the 9 of them without gg.

// globals returns the global-hop bits of a port sequence.
func globals(t *topo.Compiled, ports []int8) uint {
	g := uint(0)
	for i, pt := range ports {
		if t.KindOfPort(int(pt)) == topo.Global {
			g |= 1 << i
		}
	}
	return g
}

// every is the mask of all the words of h letters (1<<64 is 0).
func every(h int) uint64 { return uint64(1)<<(1<<h) - 1 }

// admit is the table's answer for one word.
type admit uint8

const (
	admitNone  admit = iota
	admitAll         // every path of the word is in
	admitKeyed       // the draw decides each path by its Key
)

// Words is a VLB path set stated by port-kind word: each word is in
// whole, in by key (the draw admits the path's identity hash), or out.
// A leg pair is decided by the word its legs join into, and a length
// whose words all answer alike by hop count alone.
type Words struct {
	all, keyed [MaxVLBHops + 1]uint64 // bit g of [h]: the h-letter word g; disjoint
	draw       KeyDraw
}

// WordsOf returns the table of a policy stated by words (Full,
// LengthCapped, Strategic); ok=false for any other.
func WordsOf(pol Policy) (Words, bool) {
	if wp, ok := pol.(interface{ Words() Words }); ok {
		return wp.Words(), true
	}
	return Words{}, false
}

// class is the table's answer for the h-letter word g.
func (w *Words) class(h int, g uint) admit {
	switch {
	case w.all[h]>>g&1 != 0:
		return admitAll
	case w.keyed[h]>>g&1 != 0:
		return admitKeyed
	}
	return admitNone
}

// length is the table read by hop count: the answer every h-letter
// word shares, ok=false when they differ and only the word can tell.
func (w *Words) length(h int) (admit, bool) {
	switch all, keyed, every := w.all[h], w.keyed[h], every(h); {
	case all == every:
		return admitAll, true
	case keyed == every:
		return admitKeyed, true
	case all|keyed == 0:
		return admitNone, true
	}
	return admitNone, false
}

// contains is the table's verdict on p, a VLB path on t: its word is
// read only at a length whose words differ, its key only at a keyed
// word.
func (w *Words) contains(t *topo.Compiled, p Path) bool {
	h := p.Hops()
	c, ok := w.length(h)
	if !ok {
		c = w.class(h, globals(t, p.Ports))
	}
	return c == admitAll || c == admitKeyed && w.draw.In(p.Key())
}

// lengths is length at every hop count, bit h of mixed set where the
// h-letter words differ (and byLen[h] is admitNone).
func (w *Words) lengths() (byLen [MaxVLBHops + 1]admit, mixed uint8) {
	for h := range byLen {
		var ok bool
		if byLen[h], ok = w.length(h); !ok {
			mixed |= 1 << h
		}
	}
	return byLen, mixed
}

// ByLength is the table read by hop count: bit h of all is set when
// every h-letter word is in, of keyed when every one is keyed, of mixed
// when they differ.
func (w Words) ByLength() (all, keyed, mixed uint8) {
	byLen, mixed := w.lengths()
	for h, c := range byLen {
		switch c {
		case admitAll:
			all |= 1 << h
		case admitKeyed:
			keyed |= 1 << h
		}
	}
	return all, keyed, mixed
}

// Draw returns the test a path of a keyed word takes.
func (w Words) Draw() KeyDraw { return w.draw }

// KeyDraw is a keyed word's test of one path, with the policy's seed
// already mixed in: a value, so a walk over many paths calls no
// interface and hashes each key once.
type KeyDraw struct {
	seed uint64 // rng.HashSeed mixed with the policy's seed
	frac float64
}

// In reports whether the path with identity hash key is drawn in.
func (k KeyDraw) In(key uint64) bool { return rng.Float01(rng.Mix(k.seed, key)) < k.frac }

// sampleAttempts bounds rejection sampling in restricted policies.
// If no allowed path is found within the budget, the shortest path
// seen is used, and that path is outside the set. Acceptance can be
// tiny: on dfly(13,26,13,27), pair 0 -> 351, a <=4-hop set holds 782
// of 109 850 paths, so all 64 draws miss with probability about 0.63.
const sampleAttempts = 64

// fallbacks counts the VLB draws returned outside their set: the
// shortest-seen path of sampleWhere and the last draw of an Explicit
// (ROADMAP item 6). Only tests read it.
var fallbacks atomic.Int64

// sampleWhere is the interpreted sampler of every word policy:
// rejection from the conventional sampler, preserving UGAL's
// intermediate-selection behaviour on the allowed subset. When no
// allowed path is drawn within the attempt budget, the shortest path
// seen is returned, outside the set, so the router still has a
// non-minimal escape (matching UGAL's liveness); it is kept in fixed
// scratch, because on a giant topology this runs interpreted for every
// packet.
func sampleWhere(t *topo.Compiled, w *Words, r *rng.Source, s, d int, dst *Path) bool {
	var sw [MaxVLBHops + 1]int32
	var ports [MaxVLBHops]int8
	best := 0 // hops of the fallback; a VLB path has at least 2
	for a := 0; a < sampleAttempts; a++ {
		if !sampleVLBOnceInto(t, r, s, d, dst) {
			return false
		}
		if w.contains(t, *dst) {
			return true
		}
		if h := dst.Hops(); best == 0 || h < best {
			best = h
			copy(sw[:], dst.Sw)
			copy(ports[:], dst.Ports)
		}
	}
	dst.Sw = append(dst.Sw[:0], sw[:best+1]...)
	dst.Ports = append(dst.Ports[:0], ports[:best]...)
	fallbacks.Add(1)
	return true
}

// enumerate is Enumerate for every word policy: the filtered walk,
// each admitted path cloned out of the walk's scratch.
func enumerate(t *topo.Compiled, pol Policy, s, d int) []Path {
	var out []Path
	newPolicyWalk(t, pol, nil, s, nil).paths(d, func(p Path) { out = append(out, p.Clone()) })
	return out
}

// Full is conventional UGAL's policy: every VLB path is a candidate.
type Full struct {
	T *topo.Compiled
}

// Words admits every word.
func (f Full) Words() Words { return LengthCapped{MaxHops: MaxVLBHops}.Words() }

// Name implements Policy.
func (f Full) Name() string { return "VLB-all" }

// SampleVLBInto implements Policy: every draw is in.
func (f Full) SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool {
	return sampleVLBOnceInto(f.T, r, s, d, dst)
}

// Enumerate implements Policy.
func (f Full) Enumerate(s, d int) []Path { return EnumerateVLB(f.T, s, d) }

// Contains implements Policy.
func (f Full) Contains(_, _ int, p Path) bool {
	w := f.Words()
	return w.contains(f.T, p)
}

// LengthCapped is the Table 1 family of data points: all VLB paths of
// at most MaxHops hops, plus a pseudo-random fraction Frac of the
// (MaxHops+1)-hop paths. Membership of a (MaxHops+1)-hop path is
// decided by a stable hash of (Seed, path identity), so the subset is
// consistent across processes without storing it — the mechanism that
// lets T-VLB scale to dfly(13,26,13,27) without materializing half a
// billion paths.
type LengthCapped struct {
	T       *topo.Compiled
	MaxHops int     // all paths with <= MaxHops hops are in
	Frac    float64 // fraction of (MaxHops+1)-hop paths included
	Seed    uint64  // subset selector
}

// Words admits every word of at most MaxHops letters, and keys the
// words one letter longer when Frac > 0: a path of one of them is in
// when its identity hash, mixed with Seed, falls below Frac.
func (l LengthCapped) Words() Words {
	w := Words{draw: KeyDraw{seed: rng.Mix(rng.HashSeed, l.Seed), frac: l.Frac}}
	for h := 0; h <= min(l.MaxHops, MaxVLBHops); h++ {
		w.all[h] = every(h)
	}
	if h := l.MaxHops + 1; l.Frac > 0 && h >= 0 && h <= MaxVLBHops {
		w.keyed[h] = every(h)
	}
	return w
}

// Name implements Policy.
func (l LengthCapped) Name() string {
	if l.Frac == 0 {
		return fmt.Sprintf("<=%d-hop", l.MaxHops)
	}
	return fmt.Sprintf("<=%d-hop+%d%%%d-hop", l.MaxHops, int(l.Frac*100+0.5), l.MaxHops+1)
}

// SampleVLBInto implements Policy.
func (l LengthCapped) SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool {
	w := l.Words()
	return sampleWhere(l.T, &w, r, s, d, dst)
}

// Enumerate implements Policy. The walk joins no leg pair whose word
// is out, so a tight cap never builds the longer paths.
func (l LengthCapped) Enumerate(s, d int) []Path { return enumerate(l.T, l, s, d) }

// Contains implements Policy; only a keyed-length path pays for its
// identity hash.
func (l LengthCapped) Contains(_, _ int, p Path) bool {
	w := l.Words()
	return w.contains(l.T, p)
}

// Strategic is the Step-2 deterministic expansion for the 50% 5-hop
// vicinity: all VLB paths of at most 4 hops, plus exactly the 5-hop
// paths decomposable as a FirstLeg-hop MIN leg followed by a
// (5-FirstLeg)-hop MIN leg. FirstLeg is 2 or 3 (NewStrategic checks
// it); the two choices are the paper's "all 2-hop MIN followed by
// 3-hop MIN" and its mirror.
type Strategic struct {
	T        *topo.Compiled
	FirstLeg int
}

// NewStrategic is Strategic{t, firstLeg} for a first leg that did not
// come from the program text: a MIN leg has 1 to 3 hops, so only 2 and
// 3 split a 5-hop path into two of them.
func NewStrategic(t *topo.Compiled, firstLeg int) (Strategic, error) {
	if firstLeg != 2 && firstLeg != 3 {
		return Strategic{}, fmt.Errorf("paths: strategic first leg %d (want 2 or 3)", firstLeg)
	}
	return Strategic{T: t, FirstLeg: firstLeg}, nil
}

// Words admits every word of at most 4 letters, and the 5-letter words
// a FirstLeg-letter MIN leg and a MIN leg join into: gllgl and lglgl
// at 2+3, lglgl and lgllg at 3+2. A 5-hop path of one of them crosses
// into its intermediate group on its first g, so the split switch lies
// in a third group, as the paper's composition asks.
func (s Strategic) Words() Words {
	if s.FirstLeg < 0 || s.FirstLeg >= len(strategicWords) {
		return strategicWords[0] // no 5-hop path splits there
	}
	return strategicWords[s.FirstLeg]
}

// strategicWords[k] is the table of Strategic{FirstLeg: k}, made once:
// the interpreted sampler asks for it on every draw.
var strategicWords = func() (ws [4]Words) {
	for k := range ws {
		ws[k] = LengthCapped{MaxHops: 4}.Words()
		for _, a := range legShapes[1:] {
			for _, b := range legShapes[1:] {
				if int(a.n) == k && a.n+b.n == 5 {
					ws[k].all[5] |= 1 << (a.g | b.g<<a.n)
				}
			}
		}
	}
	return ws
}()

// Name implements Policy.
func (s Strategic) Name() string {
	return fmt.Sprintf("strategic-%d+%d", s.FirstLeg, 5-s.FirstLeg)
}

// SampleVLBInto implements Policy.
func (s Strategic) SampleVLBInto(r *rng.Source, src, dst int, out *Path) bool {
	w := s.Words()
	return sampleWhere(s.T, &w, r, src, dst, out)
}

// Enumerate implements Policy (strategic sets never exceed 5 hops).
func (s Strategic) Enumerate(src, dst int) []Path { return enumerate(s.T, s, src, dst) }

// Contains implements Policy; only a 5-hop path's word is read.
func (s Strategic) Contains(_, _ int, p Path) bool {
	w := s.Words()
	return w.contains(s.T, p)
}

// Explicit wraps any base policy with a removal set, the output of
// Algorithm 1's load-balance adjustment ("removing paths that cause
// high link usage probability"). Removed paths are identified by
// Path.Key.
type Explicit struct {
	Base    Policy
	Removed map[uint64]bool
	// label overrides the derived name when non-empty.
	Label string
}

// NewExplicit wraps base with an empty removal set.
func NewExplicit(base Policy) *Explicit {
	return &Explicit{Base: base, Removed: make(map[uint64]bool)}
}

// Remove excludes a path from the set.
func (e *Explicit) Remove(p Path) { e.Removed[p.Key()] = true }

// Name implements Policy.
func (e *Explicit) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return fmt.Sprintf("%s-minus-%d", e.Base.Name(), len(e.Removed))
}

// SampleVLBInto implements Policy.
func (e *Explicit) SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool {
	if len(e.Removed) == 0 {
		return e.Base.SampleVLBInto(r, s, d, dst)
	}
	for a := 0; a < sampleAttempts; a++ {
		if !e.Base.SampleVLBInto(r, s, d, dst) {
			return false
		}
		if !e.Removed[dst.Key()] {
			return true
		}
	}
	// Every draw hit the removal set: keep the last draw, a removed
	// path, so the router still has a non-minimal escape. The balance
	// adjustment never empties a pair's set, but it may leave few
	// paths in it, and then this is not rare.
	fallbacks.Add(1)
	return true
}

// Enumerate implements Policy.
func (e *Explicit) Enumerate(s, d int) []Path {
	all := e.Base.Enumerate(s, d)
	if len(e.Removed) == 0 {
		return all
	}
	out := all[:0]
	for _, p := range all {
		if !e.Removed[p.Key()] {
			out = append(out, p)
		}
	}
	return out
}

// Contains implements Policy.
func (e *Explicit) Contains(s, d int, p Path) bool {
	return e.Base.Contains(s, d, p) && !e.Removed[p.Key()]
}

// removes reports whether e, or an Explicit it wraps, removes the path
// with identity hash key; a nil e removes nothing.
func (e *Explicit) removes(key uint64) bool {
	for ; e != nil; e, _ = e.Base.(*Explicit) {
		if e.Removed[key] {
			return true
		}
	}
	return false
}

// unwrap splits pol into the policy under any Explicit wrappers and the
// outermost wrapper (nil when pol is none), whose removals, with those
// of the wrappers under it, a walk of pol checks on each admitted key.
func unwrap(pol Policy) (Policy, *Explicit) {
	ex, _ := pol.(*Explicit)
	for e := ex; e != nil; e, _ = pol.(*Explicit) {
		pol = e.Base
	}
	return pol, ex
}
