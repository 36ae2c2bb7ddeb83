// Package traffic implements the synthetic traffic patterns of the
// paper's evaluation (§4.1.3) and the adversarial pattern sets used
// by Algorithm 1 (§3.3.1): uniform random, shift(Δg,Δs), random node
// permutation, space-mixed MIXED(UR%,ADV%), time-mixed
// TMIXED(UR%,ADV%), TYPE_1_SET and TYPE_2_SET.
package traffic

import (
	"fmt"
	"sort"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// Pattern generates a destination node for each packet a source node
// injects. ok=false means the source does not send (a fixed
// destination that is the source itself). Dest only reads the
// receiver and draws per-packet randomness from the simulation's own
// rng.Source, so concurrently running simulations may share a pattern.
type Pattern interface {
	Name() string
	// Dest returns the destination node for the next packet of src.
	Dest(r *rng.Source, src int) (dst int, ok bool)
}

// Deterministic is implemented by patterns in which every source has
// one fixed destination; such patterns admit an exact switch-level
// demand matrix for the throughput model.
type Deterministic interface {
	Pattern
	// DestOf returns src's fixed destination (may equal src, meaning
	// the node is silent).
	DestOf(src int) int
}

// Uniform is uniform random traffic (UR): each packet picks a
// destination uniformly among all other nodes.
type Uniform struct {
	T *topo.Compiled
}

// Name implements Pattern.
func (Uniform) Name() string { return "UR" }

// Dest implements Pattern.
func (u Uniform) Dest(r *rng.Source, src int) (int, bool) {
	n := u.T.NumNodes()
	d := r.Intn(n - 1)
	if d >= src {
		d++
	}
	return d, true
}

// Shift is the shift(Δg,Δs) pattern: node (g_i, s_j, n_k) sends to
// node (g_(i+Δg mod g), s_(j+Δs mod a), n_k). With Δs=0 it is the
// paper's ADV pattern stressing the global links between group pairs.
type Shift struct {
	T      *topo.Compiled
	DG, DS int
}

// Name implements Pattern.
func (s Shift) Name() string { return fmt.Sprintf("shift(%d,%d)", s.DG, s.DS) }

// DestOf implements Deterministic.
func (s Shift) DestOf(src int) int {
	t := s.T
	g := t.GroupOfNode(src)
	sw := t.SwitchOfNode(src) % t.A
	k := t.NodeIndex(src)
	dg := (g + s.DG) % t.G
	dsw := (sw + s.DS) % t.A
	return t.NodeID(t.SwitchID(dg, dsw), k)
}

// Dest implements Pattern.
func (s Shift) Dest(_ *rng.Source, src int) (int, bool) {
	d := s.DestOf(src)
	return d, d != src
}

// Permutation is a fixed node-level permutation; NewPermutation draws
// a uniformly random one (the paper's "random permutation pattern").
type Permutation struct {
	perm []int32
	name string
}

// NewPermutation draws a random node permutation for the topology.
func NewPermutation(t *topo.Compiled, seed uint64) *Permutation {
	r := rng.New(seed)
	p := r.Perm(t.NumNodes())
	perm := make([]int32, len(p))
	for i, v := range p {
		perm[i] = int32(v)
	}
	return &Permutation{perm: perm, name: fmt.Sprintf("perm(seed=%d)", seed)}
}

// Name implements Pattern.
func (p *Permutation) Name() string { return p.name }

// DestOf implements Deterministic.
func (p *Permutation) DestOf(src int) int { return int(p.perm[src]) }

// Dest implements Pattern.
func (p *Permutation) Dest(_ *rng.Source, src int) (int, bool) {
	d := int(p.perm[src])
	return d, d != src
}

// Mixed is the space-domain MIXED(UR%, ADV%) pattern: a fixed random
// UR% of nodes generate uniform traffic, the rest follow Adv.
type Mixed struct {
	T       *topo.Compiled
	URPct   int
	Adv     Pattern
	uniform Uniform
	isUR    []bool
}

// NewMixed selects the UR node subset with the given seed.
func NewMixed(t *topo.Compiled, urPct int, adv Pattern, seed uint64) *Mixed {
	if urPct < 0 || urPct > 100 {
		panic("traffic: URPct out of range")
	}
	n := t.NumNodes()
	isUR := make([]bool, n)
	r := rng.New(seed)
	perm := r.Perm(n)
	cut := n * urPct / 100
	for i := 0; i < cut; i++ {
		isUR[perm[i]] = true
	}
	return &Mixed{T: t, URPct: urPct, Adv: adv, uniform: Uniform{T: t}, isUR: isUR}
}

// Name implements Pattern.
func (m *Mixed) Name() string { return fmt.Sprintf("MIXED(%d,%d)", m.URPct, 100-m.URPct) }

// Dest implements Pattern.
func (m *Mixed) Dest(r *rng.Source, src int) (int, bool) {
	if m.isUR[src] {
		return m.uniform.Dest(r, src)
	}
	return m.Adv.Dest(r, src)
}

// TimeMixed is the time-domain TMIXED(UR%, ADV%) pattern: every
// packet of every node is uniform with probability UR% and
// adversarial otherwise.
type TimeMixed struct {
	T       *topo.Compiled
	URPct   int
	Adv     Pattern
	uniform Uniform
}

// NewTimeMixed builds a TMIXED pattern.
func NewTimeMixed(t *topo.Compiled, urPct int, adv Pattern) *TimeMixed {
	if urPct < 0 || urPct > 100 {
		panic("traffic: URPct out of range")
	}
	return &TimeMixed{T: t, URPct: urPct, Adv: adv, uniform: Uniform{T: t}}
}

// Name implements Pattern.
func (m *TimeMixed) Name() string { return fmt.Sprintf("TMIXED(%d,%d)", m.URPct, 100-m.URPct) }

// Dest implements Pattern.
func (m *TimeMixed) Dest(r *rng.Source, src int) (int, bool) {
	if r.Intn(100) < m.URPct {
		return m.uniform.Dest(r, src)
	}
	return m.Adv.Dest(r, src)
}

// Type1Set returns the family's adversarial shift set — for the
// dragonfly, the paper's TYPE_1_SET: shift(Δg,Δs) for all Δg in
// [1,g), Δs in [0,a) — (g-1)·a patterns. Other families supply their
// own set via Network.AdversarialShifts.
func Type1Set(t *topo.Compiled) []Deterministic {
	shifts := t.Net.AdversarialShifts()
	out := make([]Deterministic, 0, len(shifts))
	for _, s := range shifts {
		out = append(out, Shift{T: t, DG: s[0], DS: s[1]})
	}
	return out
}

// GroupPermutation is one TYPE_2_SET pattern: a fixed-point-free
// random permutation at the group level composed with an independent
// random switch-level permutation per communicating group pair; node
// k of a switch sends to node k of the mapped switch.
type GroupPermutation struct {
	t *topo.Compiled
	// groupDst[g] is the destination group of group g.
	groupDst []int32
	// swDst[g*a+s] is the destination in-group switch index for
	// switch s of group g.
	swDst []int32
	name  string
}

// NewGroupPermutation draws one TYPE_2 pattern with the given seed.
func NewGroupPermutation(t *topo.Compiled, seed uint64) *GroupPermutation {
	r := rng.New(seed)
	gp := derangement(r, t.G)
	groupDst := make([]int32, t.G)
	swDst := make([]int32, t.G*t.A)
	for g := 0; g < t.G; g++ {
		groupDst[g] = int32(gp[g])
		sp := r.Perm(t.A)
		for s := 0; s < t.A; s++ {
			swDst[g*t.A+s] = int32(sp[s])
		}
	}
	return &GroupPermutation{
		t:        t,
		groupDst: groupDst,
		swDst:    swDst,
		name:     fmt.Sprintf("gperm(seed=%d)", seed),
	}
}

// derangement draws a uniformly random permutation of [0,n) without
// fixed points (every group communicates with a different group),
// by rejection; n must be >= 2.
func derangement(r *rng.Source, n int) []int {
	if n < 2 {
		panic("traffic: derangement needs n >= 2")
	}
	for {
		p := r.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// Name implements Pattern.
func (p *GroupPermutation) Name() string { return p.name }

// DestOf implements Deterministic.
func (p *GroupPermutation) DestOf(src int) int {
	t := p.t
	g := t.GroupOfNode(src)
	s := t.SwitchOfNode(src) % t.A
	k := t.NodeIndex(src)
	dg := int(p.groupDst[g])
	ds := int(p.swDst[g*t.A+s])
	return t.NodeID(t.SwitchID(dg, ds), k)
}

// Dest implements Pattern.
func (p *GroupPermutation) Dest(_ *rng.Source, src int) (int, bool) {
	d := p.DestOf(src)
	return d, d != src
}

// Type2Set returns n TYPE_2_SET patterns (the paper uses 20 for the
// model and simulates 5 of them in Step 2).
func Type2Set(t *topo.Compiled, n int, seed uint64) []Deterministic {
	out := make([]Deterministic, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, NewGroupPermutation(t, rng.Hash64(seed, uint64(i))))
	}
	return out
}

// Demand is one switch-level traffic demand, in units of node
// injection bandwidth (Rate = number of nodes of Src sending to Dst).
type Demand struct {
	Src, Dst int32
	Rate     float64
}

// SwitchDemands aggregates a deterministic pattern's node-level
// destinations into switch-level demands for the throughput model.
// Self-destinations and same-switch pairs carry no network load and
// are omitted.
func SwitchDemands(t *topo.Compiled, p Deterministic) []Demand {
	acc := make(map[[2]int32]float64)
	for src := 0; src < t.NumNodes(); src++ {
		dst := p.DestOf(src)
		if dst == src {
			continue
		}
		ssw, dsw := t.SwitchOfNode(src), t.SwitchOfNode(dst)
		if ssw == dsw {
			continue
		}
		acc[[2]int32{int32(ssw), int32(dsw)}]++
	}
	out := make([]Demand, 0, len(acc))
	for k, v := range acc {
		out = append(out, Demand{Src: k[0], Dst: k[1], Rate: v})
	}
	// Deterministic order regardless of map iteration.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
