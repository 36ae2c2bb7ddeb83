package paths

import (
	"fmt"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// Policy is a candidate-VLB-path set: the only thing T-UGAL changes
// relative to conventional UGAL. A set is a membership test over the
// VLB enumeration (Contains); Full, LengthCapped and Strategic are
// nothing else, and sample and enumerate through the one rejection
// sampler and the one filtered enumerator below. SampleVLBInto must
// draw candidates the way the router would at packet-injection time;
// Enumerate/Contains expose the same set to the throughput model and
// to the load-balance analysis of Algorithm 1 Step 2.
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

// StoredFilter is an optional Policy refinement: deciding membership
// of a path held in a superset Store (typically the compiled full VLB
// set) directly from the store's arena, without materializing the
// path. AllowsStored(base, s, d, id) must equal
// Contains(s, d, base.Materialize(s, id)). Length-based policies
// answer most paths from the O(1) stored hop count alone, which is
// what makes deriving a whole grid of restricted path sets from one
// compiled superset cheap.
type StoredFilter interface {
	AllowsStored(base *Store, s, d int, id PathID) bool
}

// KeyedFilter is one refinement beyond StoredFilter: membership
// decided from a path's hop count and identity hash alone, with no
// access to its structure. With all, some := HopClass(p.Hops()),
// all || some && Keyed().In(p.Key()) must equal Contains(s, d, p) for
// every valid VLB path of every pair. An analysis that hashes a pair's
// paths once can then derive every such policy's path set from the
// hashes, and HopClass lets it skip the hashes too for whole lengths:
// every Table-1 policy admits all paths up to a cap, a keyed subset one
// hop longer and nothing beyond, so per policy at most one length is
// ever looked at path by path, and that through a KeyDraw taken once.
type KeyedFilter interface {
	// HopClass states the policy on all paths of one length at once:
	// all when every one is in, some when Keyed decides each by its
	// key, neither when none is in.
	HopClass(hops int) (all, some bool)
	Keyed() KeyDraw
}

// KeyDraw is a keyed filter's test of one path, with the policy's seed
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
// seen is used; with the configurations Algorithm 1 actually emits,
// acceptance is high and the fallback is statistically irrelevant.
const sampleAttempts = 64

// sampleWhere is the interpreted sampler of every predicate policy:
// rejection from the conventional sampler, preserving UGAL's
// intermediate-selection behaviour on the allowed subset. When no
// allowed path is drawn within the attempt budget, the shortest path
// seen is used so the router still has a non-minimal escape (matching
// UGAL's liveness); it is kept in fixed scratch, because on a giant
// topology this runs interpreted for every packet.
func sampleWhere(t *topo.Compiled, contains func(s, d int, p Path) bool, r *rng.Source, s, d int, dst *Path) bool {
	var sw [MaxVLBHops + 1]int32
	var ports [MaxVLBHops]int8
	best := 0 // hops of the fallback; a VLB path has at least 2
	for a := 0; a < sampleAttempts; a++ {
		if !sampleVLBOnceInto(t, r, s, d, dst) {
			return false
		}
		if contains(s, d, *dst) {
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
	return true
}

// enumerate is Enumerate for every predicate policy: the filtered walk,
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

// Name implements Policy.
func (f Full) Name() string { return "VLB-all" }

// SampleVLBInto implements Policy.
func (f Full) SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool {
	return sampleVLBOnceInto(f.T, r, s, d, dst)
}

// Enumerate implements Policy.
func (f Full) Enumerate(s, d int) []Path { return EnumerateVLB(f.T, s, d) }

// Contains implements Policy.
func (f Full) Contains(_, _ int, _ Path) bool { return true }

// AllowsStored implements StoredFilter.
func (f Full) AllowsStored(*Store, int, int, PathID) bool { return true }

// HopClass implements KeyedFilter.
func (f Full) HopClass(int) (all, some bool) { return true, false }

// Keyed implements KeyedFilter: no length is keyed, and the draw would
// admit every path (rng.Float01 < 1).
func (f Full) Keyed() KeyDraw { return KeyDraw{frac: 1} }

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

// Name implements Policy.
func (l LengthCapped) Name() string {
	if l.Frac == 0 {
		return fmt.Sprintf("<=%d-hop", l.MaxHops)
	}
	return fmt.Sprintf("<=%d-hop+%d%%%d-hop", l.MaxHops, int(l.Frac*100+0.5), l.MaxHops+1)
}

// SampleVLBInto implements Policy.
func (l LengthCapped) SampleVLBInto(r *rng.Source, s, d int, dst *Path) bool {
	return sampleWhere(l.T, l.Contains, r, s, d, dst)
}

// Enumerate implements Policy. The walk stops at MaxHops(+1) hops, so
// a tight cap never builds the longer leg combinations.
func (l LengthCapped) Enumerate(s, d int) []Path { return enumerate(l.T, l, s, d) }

// Contains implements Policy; like AllowsStored, only a
// boundary-length path pays for its identity hash.
func (l LengthCapped) Contains(_, _ int, p Path) bool {
	all, some := l.HopClass(p.Hops())
	return all || some && l.Keyed().In(p.Key())
}

// AllowsStored implements StoredFilter: paths at or under the cap
// are admitted (and longer-than-boundary ones rejected) from the
// stored hop count alone; only boundary-length paths pay the
// identity-hash walk.
func (l LengthCapped) AllowsStored(base *Store, s, _ int, id PathID) bool {
	all, some := l.HopClass(base.Hops(id))
	return all || some && l.Keyed().In(base.KeyOf(s, id))
}

// HopClass implements KeyedFilter: the one statement of the set.
func (l LengthCapped) HopClass(hops int) (all, some bool) {
	return hops <= l.MaxHops, hops == l.MaxHops+1 && l.Frac > 0
}

// Keyed implements KeyedFilter, and is the one definition of the Frac
// subset: a boundary-length path is in when its identity hash, mixed
// with Seed, falls below Frac.
func (l LengthCapped) Keyed() KeyDraw {
	return KeyDraw{seed: rng.Mix(rng.HashSeed, l.Seed), frac: l.Frac}
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

// Name implements Policy.
func (s Strategic) Name() string {
	return fmt.Sprintf("strategic-%d+%d", s.FirstLeg, 5-s.FirstLeg)
}

// minShape reports whether a hop sequence has the inter-group MIN
// form (l?) g (l?): exactly one global hop, at most one local hop on
// each side.
func minShape(t *topo.Compiled, ports []int8) bool {
	if len(ports) < 1 || len(ports) > 3 {
		return false
	}
	gAt := -1
	for i, pt := range ports {
		if t.KindOfPort(int(pt)) == topo.Global {
			if gAt >= 0 {
				return false
			}
			gAt = i
		}
	}
	return gAt >= 0 && gAt <= 1 && len(ports)-1-gAt <= 1
}

// splits reports whether a 5-hop VLB path of the pair decomposes at
// mid, the switch FirstLeg hops in, into two legal MIN legs: mid lies
// in a third group and both halves have the MIN shape. The
// distinction matters: a "g l l g l" path is only a 2-hop-MIN +
// 3-hop-MIN composition, while "l g l g l" decomposes both as 2+3 and
// 3+2.
func (s Strategic) splits(src, dst, mid int, ports []int8) bool {
	t := s.T
	g, gs, gd := t.GroupOf(mid), t.GroupOf(src), t.GroupOf(dst)
	return gs != gd && g != gs && g != gd &&
		minShape(t, ports[:s.FirstLeg]) && minShape(t, ports[s.FirstLeg:5])
}

// AllowsStored implements StoredFilter: only 5-hop paths walk their
// first leg's stored ports to the split switch, and nothing is built.
func (s Strategic) AllowsStored(base *Store, src, dst int, id PathID) bool {
	if h := base.Hops(id); h != 5 {
		return h <= 4
	}
	ports := base.portsOf(id)
	mid := src
	for _, pt := range ports[:s.FirstLeg] {
		mid = s.T.PeerOfPort(mid, int(pt))
	}
	return s.splits(src, dst, mid, ports)
}

// SampleVLBInto implements Policy.
func (s Strategic) SampleVLBInto(r *rng.Source, src, dst int, out *Path) bool {
	return sampleWhere(s.T, s.Contains, r, src, dst, out)
}

// Enumerate implements Policy (strategic sets never exceed 5 hops).
func (s Strategic) Enumerate(src, dst int) []Path { return enumerate(s.T, s, src, dst) }

// Contains implements Policy.
func (s Strategic) Contains(src, dst int, p Path) bool {
	if h := p.Hops(); h != 5 {
		return h <= 4
	}
	return s.splits(src, dst, int(p.Sw[s.FirstLeg]), p.Ports)
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
	// Every draw hit the removal set: keep the last draw — the
	// balance adjustment never empties a pair's path set, so this is
	// a biased-but-live fallback.
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
