package flow

import (
	"fmt"
	"slices"
	"time"

	"tugal/internal/paths"
	"tugal/internal/traffic"
)

// gridStride is the per-path slot width of the walk's edge cache: a
// VLB path of h hops crosses h+2 edges (injection, the switch hops,
// ejection).
const gridStride = paths.MaxVLBHops + 2

// hopClasses sizes the per-hop-count arrays; a VLB path has 2 to
// MaxVLBHops hops.
const hopClasses = paths.MaxVLBHops + 1

// gridPolicy is one policy of a GridWalk, reduced to what its sums
// need: bit h of all is set when every h-hop path is in, bit h of some
// when the draw decides each h-hop path (paths.KeyedFilter).
type gridPolicy struct {
	draw      paths.KeyDraw
	all, some uint8
}

// GridWalk folds the loads of many policies over one walk of a path
// set they all filter — the Table-1 grid over the full VLB set — into
// one Aggregate a policy. A demand pair's paths are listed and decoded
// once (edge list, hop count, identity hash) and every policy's share
// of the pair's traffic is added to its sums while they sit in cache;
// nothing is kept from pair to pair but the sums.
//
// A policy's weights need no float work per path. The h-hop paths'
// crossing counts over the pair's sorted edge union are built once per
// pair (cnt); a policy sums the vectors of the lengths it admits whole
// and walks only the lengths it keys, and an edge crossed by c of its
// nk paths weighs tbl[c], tbl[0] = 0, tbl[c] = tbl[c-1] + 1/nk: the
// float a per-path build reaches by adding 1/nk once per crossing,
// since every addend is the same. Each weight, times the demand's
// rate, is added where the solver wants it (derive says where), one
// demand after another in the order given. So every sum is
// Float64bits-equal to folding the per-demand rows of a per-path
// build, in whatever order the policies come and whether or not their
// sets are nested (TestGridLoads).
//
// Not for concurrent use; the Aggregates of a Fold call are the walk's
// own until the next call.
type GridWalk struct {
	re    *rowEnv // over the walked set: its Walker, the MIN rows, the edge scratch
	pols  []gridPolicy
	keyed uint8 // the lengths some policy keys: only their paths are hashed
	aggs  []Aggregate

	// One pair's paths, in walk order, and its MIN row.
	edges  []int32 // stride gridStride: a path's edges, then their union indices
	hops   []uint8
	keys   []uint64 // set at the keyed lengths only
	byHops [hopClasses][]int32
	cnt    [hopClasses][]int32 // crossings of each union edge by the h-hop paths
	pos    []int32             // edge -> union index, for this pair's edges
	min    []EdgeWeight

	// One policy on one pair.
	base    []int32 // sum of cnt, and baseN of path counts, over the lengths in baseAll
	baseAll uint8
	baseN   int
	tot     []int32
	tbl     []float64

	// Decode and Derive are the wall time the last Fold call spent
	// listing and decoding pairs (MIN rows included) and folding them
	// into the policies' sums.
	Decode, Derive time.Duration
}

// NewGridWalk returns a walk serving pols over base on net: each
// policy gets the paths of base it admits. Step 1 walks the full VLB
// set — a Store already degraded under net.Fail or the interpreted
// policy, which the walk filters by net.Fail itself — and ModelThroughput
// walks its policy under paths.Full. A policy that is not a
// paths.KeyedFilter is refused: its membership cannot be read off hop
// counts and hashes.
func NewGridWalk(net *Network, base paths.Policy, pols []paths.Policy) (*GridWalk, error) {
	g := &GridWalk{
		re:   newRowEnv(net, base),
		pols: make([]gridPolicy, len(pols)),
		aggs: make([]Aggregate, len(pols)),
		pos:  make([]int32, net.NumEdges),
	}
	for k, pol := range pols {
		kf, ok := pol.(paths.KeyedFilter)
		if !ok {
			return nil, fmt.Errorf("flow: grid walk over %s: %s is not a keyed filter", base.Name(), pol.Name())
		}
		gp := gridPolicy{draw: kf.Keyed()}
		for h := 0; h < hopClasses; h++ {
			all, some := kf.HopClass(h)
			if all {
				gp.all |= 1 << h
			} else if some {
				gp.some |= 1 << h
			}
		}
		g.pols[k] = gp
		g.keyed |= gp.some
	}
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

// decode lists the pair's paths and fills the per-pair state: each
// path's edges as indices into the pair's sorted edge union, its hop
// count and (at a keyed length) its hash, the paths bucketed by hop
// count, and per hop count the crossings of every union edge.
func (g *GridWalk) decode(s, d int) {
	re, acc := g.re, g.re.acc
	ps := re.walk.Pair(s, d)
	g.edges = resized(g.edges, len(ps)*gridStride)
	g.hops, g.keys = resized(g.hops, len(ps)), resized(g.keys, len(ps))
	for h := range g.byHops {
		g.byHops[h] = g.byHops[h][:0]
	}
	acc.reset()
	for k, p := range ps {
		h := p.Hops()
		g.hops[k] = uint8(h)
		g.byHops[h] = append(g.byHops[h], int32(k))
		if g.keyed>>h&1 != 0 {
			g.keys[k] = p.Key()
		}
		acc.add(re.net.PathEdges(g.edges[k*gridStride:k*gridStride:(k+1)*gridStride], p), 0)
	}
	slices.Sort(acc.touched)
	for u, e := range acc.touched {
		g.pos[e] = int32(u)
	}
	nu := len(acc.touched)
	for h := range g.cnt {
		g.cnt[h] = resized(g.cnt[h], nu)
		clear(g.cnt[h])
	}
	g.base, g.tot = resized(g.base, nu), resized(g.tot, nu)
	for k, h := range g.hops {
		cnt := g.cnt[h]
		row := g.edges[k*gridStride:][:int(h)+2]
		for j, e := range row {
			u := g.pos[e]
			row[j] = u
			cnt[u]++
		}
	}
	g.rebase(0)
}

// rebase sets base to the crossings of the lengths in all.
func (g *GridWalk) rebase(all uint8) {
	g.baseAll, g.baseN = all, 0
	clear(g.base)
	for h := range g.cnt {
		if all>>h&1 == 0 {
			continue
		}
		g.baseN += len(g.byHops[h])
		for u, c := range g.cnt[h] {
			g.base[u] += c
		}
	}
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
		for h := 0; h < hopClasses; h++ {
			if gp.some>>h&1 == 0 {
				continue
			}
			for _, p := range g.byHops[h] {
				if !gp.draw.In(g.keys[p]) {
					continue
				}
				nk++
				for _, u := range g.edges[int(p)*gridStride:][:h+2] {
					tot[u]++
				}
			}
		}
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
	w := 1 / float64(nk)
	union := g.re.acc.touched
	tbl := append(g.tbl[:0], 0)
	for u, c := range tot {
		if c == 0 {
			continue
		}
		for int(c) >= len(tbl) {
			tbl = append(tbl, tbl[len(tbl)-1]+w)
		}
		vlbTo[union[u]] += rate * tbl[c]
	}
	g.tbl = tbl
}
