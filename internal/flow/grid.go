package flow

import (
	"fmt"
	"time"

	"tugal/internal/paths"
	"tugal/internal/traffic"
)

// hopClasses sizes the per-hop-count arrays; a VLB path has 2 to
// MaxVLBHops hops.
const hopClasses = paths.MaxVLBHops + 1

// gridPolicy is one policy of a GridWalk, reduced to what its sums
// need: bit h of all is set when every h-hop path is in, bit h of some
// when the draw decides each h-hop path (paths.Words.ByLength).
type gridPolicy struct {
	draw      paths.KeyDraw
	all, some uint8
}

// gridLeg is one MIN leg of the decoded pair: its hops' edges as
// indices into the pair's edge union, the sink past its hops, and bit h
// of keyed set when an h-hop path at a keyed length joins it.
type gridLeg struct {
	u     [3]int32
	keyed uint8
}

// keyedPath is one path of the decoded pair at a length some policy
// keys: its Key and its two legs' indices in the pair's legs.
type keyedPath struct {
	key  uint64
	a, b int32
}

// GridWalk folds the loads of many policies over one walk of a path
// set they all filter — the Table-1 grid over the full VLB set — into
// one Aggregate a policy. A demand pair is read once, as the MIN legs
// its paths join (paths.LegWalk), and every policy's share of the
// pair's traffic is added to its sums while they sit in cache; nothing
// is kept from pair to pair but the sums.
//
// No path is built and no float is added per path. Per intermediate,
// the base's h-hop paths from first legs to second legs cross an edge
// of a first leg once for each second leg it joins and an edge of a
// second leg once for each first leg: summed over the leg-shape pairs
// of h hops, n2·c1(u) + n1·c2(u). The walk counts each leg's joins per
// hop count and adds that count along the leg's edges, so cnt[h] holds
// the h-hop paths' crossings of each edge of the pair's union; the
// injection and ejection edges, which every path crosses, count the
// paths (n). A policy sums the vectors of the lengths it admits whole.
// At a length it keys, it draws each path by the key the leg walk
// chained (keyed), adds one to both legs of every admitted path, and
// then each leg's count along the leg. An edge crossed by c of its nk
// paths weighs tbl[c], tbl[0] = 0, tbl[c] = tbl[c-1] + 1/nk: the float
// a per-path build reaches by adding 1/nk once per crossing, since
// every addend is the same; an edge every path crosses reads that sum
// at nk from a per-walk memo (wholeSum), so tbl grows only to the
// largest count below nk. Counts are integers, so the sums do not
// depend on how they were counted. Each weight, times the demand's
// rate, is added where the solver wants it (derive says where), one
// demand after another in the order given. So every sum is
// Float64bits-equal to folding the per-demand rows of a per-path
// build, in whatever order the policies come and whether or not their
// sets are nested (TestGridLoads), and the counts and keys to a
// per-path decode (TestLegCountsMatchPaths).
//
// Not for concurrent use; the Aggregates of a Fold call are the walk's
// own until the next call.
type GridWalk struct {
	re    *rowEnv // the MIN rows and their scratch
	walk  *paths.LegWalk
	pols  []gridPolicy
	keyed uint8 // the lengths some policy keys: only their paths are recorded
	aggs  []Aggregate

	// One pair's VLB paths, as legs, and its MIN row.
	union   []Edge  // the pair's edges: sinkSlot, injSlot, ejSlot, then the legs'
	pos     []int32 // edge -> union index where union agrees (a sparse set)
	legs    []gridLeg
	mult    []int32 // one intermediate's joins per leg and hop count
	n       [hopClasses]int
	cnt     [hopClasses][]int32 // crossings of each union edge by the h-hop paths
	keys    [hopClasses][]keyedPath
	keyLegs [hopClasses][]int32 // the legs keys[h] joins, each once
	min     []EdgeWeight

	// One policy on one pair.
	base    []int32 // sum of cnt, and baseN of n, over the lengths in baseAll
	baseAll uint8
	baseN   int
	tot     []int32
	legCnt  []int32 // admitted keyed paths through each leg
	tbl     []float64
	whole   []float64 // whole[nk]: 1/nk added nk times, 0 until asked for

	// Decode and Derive are the wall time the last Fold call spent
	// reading pairs (MIN rows included) and folding them into the
	// policies' sums.
	Decode, Derive time.Duration
}

// NewGridWalk returns a walk serving pols over base on net: each
// policy gets the paths of base it admits. Step 1 walks the full VLB
// set — a Store already degraded under net.Fail or the interpreted
// policy, which the walk filters by net.Fail itself — and ModelThroughput
// walks its policy under paths.Full. A policy whose word table
// (paths.WordsOf) differs between words of one length, or that has
// none, is refused: its membership cannot be read off hop counts and
// keys.
func NewGridWalk(net *Network, base paths.Policy, pols []paths.Policy) (*GridWalk, error) {
	g := &GridWalk{
		re:   newRowEnv(net),
		pols: make([]gridPolicy, len(pols)),
		aggs: make([]Aggregate, len(pols)),
		pos:  make([]int32, net.NumEdges),
	}
	for k, pol := range pols {
		words, ok := paths.WordsOf(pol)
		all, keyed, mixed := words.ByLength()
		if !ok || mixed != 0 {
			return nil, fmt.Errorf("flow: grid walk over %s: %s is not stated by hop count", base.Name(), pol.Name())
		}
		g.pols[k] = gridPolicy{draw: words.Draw(), all: all, some: keyed}
		g.keyed |= keyed
	}
	g.walk = paths.NewLegWalk(net.T, base, net.Fail, g.keyed)
	return g, nil
}

// resized returns xs with length n, reallocated only to grow; the
// caller overwrites every element.
func resized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// Fold returns demands' loads under each policy, in the order the
// policies were given, folded and packed for Solve. All are
// overwritten by the next call.
func (g *GridWalk) Fold(demands []traffic.Demand) []Aggregate {
	net := g.re.net
	for k := range g.aggs {
		g.aggs[k].reset(net.NumEdges)
	}
	g.Decode, g.Derive = 0, 0
	// Two clock reads a pair, none per path or per policy.
	mark := time.Now()
	for _, d := range demands {
		s, t := int(d.Src), int(d.Dst)
		g.min = g.re.minRow(s, t, g.min[:0])
		g.decode(s, t)
		now := time.Now()
		g.Decode += now.Sub(mark)
		mark = now

		for k := range g.pols {
			g.derive(k, d.Rate)
		}
		now = time.Now()
		g.Derive += now.Sub(mark)
		mark = now
	}
	for k := range g.aggs {
		g.aggs[k].pack(net.Cap)
	}
	g.Derive += time.Since(mark)
	return g.aggs
}

// The pair's edge union opens with three fixed slots: a sink, where
// the unused hop slots of a leg point so that a leg adds its count along
// three slots with no branch, then the injection and ejection edges.
const (
	sinkSlot = iota
	injSlot
	ejSlot
)

// decode reads the pair's paths from its legs and fills the per-pair
// state: the pair's legs with their edges as union indices, per hop
// count the paths' crossings of every union edge and their number, and
// at the keyed lengths each path's key and legs, and the legs such
// paths join.
func (g *GridWalk) decode(s, d int) {
	net := g.re.net
	g.union, g.legs = g.union[:0], g.legs[:0]
	for h := range g.cnt {
		g.n[h], g.cnt[h], g.keys[h], g.keyLegs[h] = 0, g.cnt[h][:0], g.keys[h][:0], g.keyLegs[h][:0]
	}
	g.edge(-1) // the sink: no edge
	g.edge(net.InjectionEdge(s))
	g.edge(net.EjectionEdge(d))
	g.walk.Pair(s, d, func(first, second []paths.Leg, in []bool, keys []uint64) {
		n1, n2 := len(first), len(second)
		at := int32(len(g.legs)) // first[i] is leg at+i, second[j] at+n1+j
		for range n1 + n2 {
			g.legs = append(g.legs, gridLeg{})
		}
		g.mult = resized(g.mult, (n1+n2)*hopClasses)
		clear(g.mult)
		for i := range first {
			for j := range second {
				k := i*n2 + j
				if !in[k] {
					continue
				}
				h := first[i].Hops() + second[j].Hops()
				g.mult[i*hopClasses+h]++
				g.mult[(n1+j)*hopClasses+h]++
				g.n[h]++
				if g.keyed>>h&1 != 0 {
					a, b := at+int32(i), at+int32(n1+j)
					g.keys[h] = append(g.keys[h], keyedPath{key: keys[k], a: a, b: b})
					g.keyLeg(h, a)
					g.keyLeg(h, b)
				}
			}
		}
		for i := range first {
			g.leg(at+int32(i), &first[i], g.mult[i*hopClasses:][:hopClasses])
		}
		for j := range second {
			g.leg(at+int32(n1+j), &second[j], g.mult[(n1+j)*hopClasses:][:hopClasses])
		}
	})
	for h := range g.cnt {
		g.cnt[h][injSlot], g.cnt[h][ejSlot] = int32(g.n[h]), int32(g.n[h])
	}
	nu := len(g.union)
	g.base, g.tot = resized(g.base, nu), resized(g.tot, nu)
	g.legCnt = resized(g.legCnt, len(g.legs))
	clear(g.legCnt)
	g.rebase(0)
}

// keyLeg lists leg l among the legs of the h-hop keyed paths, once.
func (g *GridWalk) keyLeg(h int, l int32) {
	if gl := &g.legs[l]; gl.keyed>>h&1 == 0 {
		gl.keyed |= 1 << h
		g.keyLegs[h] = append(g.keyLegs[h], l)
	}
}

// edge returns e's index in the pair's union, adding it, with no
// crossings yet, if it is new.
func (g *GridWalk) edge(e Edge) int32 {
	if e >= 0 {
		if u := g.pos[e]; int(u) < len(g.union) && g.union[u] == e {
			return u
		}
		g.pos[e] = int32(len(g.union))
	}
	g.union = append(g.union, e)
	for h := range g.cnt {
		g.cnt[h] = append(g.cnt[h], 0)
	}
	return int32(len(g.union) - 1)
}

// leg sets leg i's union slots to l's edges, after adding mult[h], its
// joins of h hops, to their h-hop crossings. A leg in no join adds no
// edge to the union.
func (g *GridWalk) leg(i int32, l *paths.Leg, mult []int32) {
	joined := false
	for _, m := range mult {
		joined = joined || m != 0
	}
	if !joined {
		return
	}
	u := &g.legs[i].u
	for j := range l.Hops() {
		u[j] = g.edge(g.re.net.EdgeOf(l.Hop(j)))
	}
	for h, m := range mult {
		if m != 0 {
			cnt := g.cnt[h]
			cnt[u[0]] += m
			cnt[u[1]] += m
			cnt[u[2]] += m
		}
	}
}

// rebase sets base to the crossings of the lengths in all.
func (g *GridWalk) rebase(all uint8) {
	g.baseAll, g.baseN = all, 0
	clear(g.base)
	for h := range g.cnt {
		if all>>h&1 == 0 {
			continue
		}
		g.baseN += g.n[h]
		for u, c := range g.cnt[h] {
			g.base[u] += c
		}
	}
}

// wholeSum is 1/nk added nk times from zero: tbl[nk], the weight of an
// edge all of a policy's nk paths cross, computed once a walk.
func (g *GridWalk) wholeSum(nk int) float64 {
	if nk >= len(g.whole) {
		g.whole = append(g.whole, make([]float64, nk+1-len(g.whole))...)
	}
	if g.whole[nk] == 0 {
		w, sum := 1/float64(nk), 0.0
		for range nk {
			sum += w
		}
		g.whole[nk] = sum
	}
	return g.whole[nk]
}

// derive adds the decoded pair, carrying rate, to policy k's sums.
func (g *GridWalk) derive(k int, rate float64) {
	gp := &g.pols[k]
	if gp.all != g.baseAll {
		// Consecutive Table-1 points share their whole lengths, so a
		// grid rebases four times a pair, not thirty-one.
		g.rebase(gp.all)
	}
	tot, nk := g.base, g.baseN
	if gp.some != 0 {
		tot = g.tot
		copy(tot, g.base)
		drawn := int32(0)
		for h := range g.keys {
			if gp.some>>h&1 == 0 {
				continue
			}
			for _, p := range g.keys[h] {
				in := int32(0)
				if gp.draw.In(p.key) {
					in = 1
				}
				g.legCnt[p.a] += in
				g.legCnt[p.b] += in
				drawn += in
			}
			for _, l := range g.keyLegs[h] {
				c, u := g.legCnt[l], &g.legs[l].u
				g.legCnt[l] = 0
				tot[u[0]] += c
				tot[u[1]] += c
				tot[u[2]] += c
			}
		}
		nk += int(drawn)
		tot[injSlot] += drawn
		tot[ejSlot] += drawn
	}

	// A pair the policy gives no VLB path cannot adapt: its MIN load is
	// fixed. So is the VLB load of a pair with no surviving MIN path,
	// which rides it whatever the split.
	a := &g.aggs[k]
	minTo, vlbTo := a.Mu, a.Nu
	switch {
	case nk == 0:
		minTo = a.Fixed
	case len(g.min) == 0:
		vlbTo = a.Fixed
	}
	for _, ew := range g.min {
		minTo[ew.E] += rate * ew.W
	}
	if nk == 0 {
		return
	}
	w, whole := 1/float64(nk), g.wholeSum(nk)
	tbl := append(g.tbl[:0], 0)
	for u := injSlot; u < len(tot); u++ {
		switch c := tot[u]; {
		case c == 0:
		case int(c) == nk:
			vlbTo[g.union[u]] += rate * whole
		default:
			for int(c) >= len(tbl) {
				tbl = append(tbl, tbl[len(tbl)-1]+w)
			}
			vlbTo[g.union[u]] += rate * tbl[c]
		}
	}
	g.tbl = tbl
}
