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

// gridPolicy is one policy of a GridWalk, reduced to what a row needs:
// bit h of all is set when every h-hop path is in, bit h of some when
// AllowsKeyed decides each h-hop path (paths.KeyedFilter.HopClass).
type gridPolicy struct {
	kf        paths.KeyedFilter
	all, some uint8
}

// GridWalk builds the load rows of many policies over one walk of a
// path set they all filter — the Table-1 grid over the full VLB set.
// A demand pair's paths are listed and decoded once (edge list, hop
// count, identity hash) and every policy's VLB row is derived while
// they sit in cache; nothing is kept from pair to pair but the rows.
//
// A row needs no float work per path. The h-hop paths' crossing counts
// over the pair's sorted edge union are built once per pair (cnt); a
// policy sums the vectors of the lengths it admits whole and walks
// only the lengths it keys, and an edge crossed by c of its nk paths
// weighs tbl[c], tbl[0] = 0, tbl[c] = tbl[c-1] + 1/nk: the float
// rowEnv.vlbRow reaches by adding 1/nk once per crossing, since every
// addend is the same. VlbHops is summed over the pair's paths in walk
// order with a path that is out adding zero, which is vlbRow's sum.
// Rows, hop averages and availability are therefore Float64bits-equal
// to ComputeLoads' under each policy, in whatever order the policies
// come and whether or not their sets are nested (TestGridLoads).
//
// Not for concurrent use; the rows of a Loads call live in the walk's
// arena until the next call.
type GridWalk struct {
	re    *rowEnv // over the walked set: its Walker, the MIN rows, the edge scratch
	pols  []gridPolicy
	keyed uint8 // the lengths some policy keys: only their paths are hashed

	// One pair's paths, in walk order.
	edges  []int32 // stride gridStride: a path's edges, then their union indices
	hops   []uint8
	keys   []uint64 // set at the keyed lengths only
	byHops [hopClasses][]int32
	cnt    [hopClasses][]int32 // crossings of each union edge by the h-hop paths
	pos    []int32             // edge -> union index, for this pair's edges

	// One policy on one pair.
	base     []int32 // sum of cnt, and baseN of path counts, over the lengths in baseAll
	baseAll  uint8
	baseN    int
	tot      []int32
	rejected []int32
	sel      []uint8 // hops with the rejected paths' zeroed
	tbl      []float64

	arena   []EdgeWeight // the rows of one Loads call, back to back; see room
	entries int
	min     []SparseVec
	minHops []float64
	out     []*DemandLoads

	// Decode and Derive are the wall time the last Loads call spent
	// listing and decoding pairs (MIN rows included) and deriving the
	// policies' rows from them.
	Decode, Derive time.Duration
}

// NewGridWalk returns a walk serving pols over base on net. base must
// hold every path any of them admits, in their Enumerate order — the
// full VLB set does, as a Store already degraded under net.Fail or as
// the interpreted policy, which the walk filters by net.Fail itself. A
// policy that is not a paths.KeyedFilter is refused: its membership
// cannot be read off hop counts and hashes.
func NewGridWalk(net *Network, base paths.Policy, pols []paths.Policy) (*GridWalk, error) {
	g := &GridWalk{
		re:   newRowEnv(net, base),
		pols: make([]gridPolicy, len(pols)),
		pos:  make([]int32, net.NumEdges),
		out:  make([]*DemandLoads, len(pols)),
	}
	for k, pol := range pols {
		kf, ok := pol.(paths.KeyedFilter)
		if !ok {
			return nil, fmt.Errorf("flow: grid walk over %s: %s is not a keyed filter", base.Name(), pol.Name())
		}
		gp := gridPolicy{kf: kf}
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
		g.out[k] = &DemandLoads{Net: net}
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

// Loads returns the DemandLoads of demands under each policy, in the
// order the policies were given. All of them share the MIN rows, and
// all are overwritten by the next call.
func (g *GridWalk) Loads(demands []traffic.Demand) []*DemandLoads {
	n := len(demands)
	g.arena, g.entries = g.arena[:0], 0
	g.min, g.minHops = resized(g.min, n), resized(g.minHops, n)
	for _, dl := range g.out {
		dl.Demands, dl.Min, dl.MinHops = demands, g.min, g.minHops
		dl.Vlb, dl.VlbOK, dl.VlbHops = resized(dl.Vlb, n), resized(dl.VlbOK, n), resized(dl.VlbHops, n)
	}
	g.Decode, g.Derive = 0, 0
	// Two clock reads a pair, none per path or per policy.
	mark := time.Now()
	for i, d := range demands {
		s, t := int(d.Src), int(d.Dst)
		g.room(5 * g.re.net.T.K) // K MIN paths of at most 3 hops
		start := len(g.arena)
		g.arena, g.minHops[i] = g.re.minRow(s, t, g.arena)
		g.min[i] = g.row(start)
		g.decode(s, t)
		now := time.Now()
		g.Decode += now.Sub(mark)
		mark = now

		for k := range g.pols {
			g.derive(k, i)
		}
		now = time.Now()
		g.Derive += now.Sub(mark)
		mark = now
	}
	return g.out
}

// RowBytes is the size of the rows the last Loads call returned.
func (g *GridWalk) RowBytes() int64 { return 16 * int64(g.entries) }

// room makes the arena hold n more entries without moving. When it
// cannot, the rows emitted so far keep the old array and the arena
// continues in a new one twice the size, which is the one the next
// Loads call starts from: nothing is ever copied, and a walk that has
// seen its largest pattern allocates no more.
func (g *GridWalk) room(n int) {
	if cap(g.arena)-len(g.arena) < n {
		g.arena = make([]EdgeWeight, 0, max(2*cap(g.arena), n, 1<<14))
	}
}

// row closes the row emitted since start.
func (g *GridWalk) row(start int) SparseVec {
	g.entries += len(g.arena) - start
	return SparseVec(g.arena[start:len(g.arena):len(g.arena)])
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

// derive emits policy k's VLB row for the decoded pair as demand i.
func (g *GridWalk) derive(k, i int) {
	gp := &g.pols[k]
	if gp.all != g.baseAll {
		// Consecutive Table-1 points share their whole lengths, so a
		// grid rebases four times a pair, not thirty-one.
		g.rebase(gp.all)
	}
	tot, nk := g.base, g.baseN
	g.rejected = g.rejected[:0]
	if gp.some != 0 {
		tot = g.tot
		copy(tot, g.base)
		for h := 0; h < hopClasses; h++ {
			if gp.some>>h&1 == 0 {
				continue
			}
			for _, p := range g.byHops[h] {
				if !gp.kf.AllowsKeyed(h, g.keys[p]) {
					g.rejected = append(g.rejected, p)
					continue
				}
				nk++
				for _, u := range g.edges[int(p)*gridStride:][:h+2] {
					tot[u]++
				}
			}
		}
	}

	g.room(len(tot))
	start := len(g.arena)
	hs := 0.0
	if nk > 0 {
		w := 1 / float64(nk)
		// The hop average replays vlbRow's sum in walk order; a path
		// that is out adds wh[0] = 0, which leaves the sum as it was.
		var wh [hopClasses]float64
		for h := range wh {
			if (gp.all|gp.some)>>h&1 != 0 {
				wh[h] = w * float64(h)
			}
		}
		sel := g.hops
		if len(g.rejected) > 0 {
			g.sel = resized(g.sel, len(g.hops))
			sel = g.sel
			copy(sel, g.hops)
			for _, p := range g.rejected {
				sel[p] = 0
			}
		}
		for _, h := range sel {
			hs += wh[h]
		}
		union := g.re.acc.touched
		row := g.arena[start : start+len(tot)]
		n := 0
		tbl := append(g.tbl[:0], 0)
		for u, c := range tot {
			if c == 0 {
				continue
			}
			for int(c) >= len(tbl) {
				tbl = append(tbl, tbl[len(tbl)-1]+w)
			}
			row[n] = EdgeWeight{E: union[u], W: tbl[c]}
			n++
		}
		g.tbl, g.arena = tbl, g.arena[:start+n]
	}
	dl := g.out[k]
	dl.Vlb[i], dl.VlbHops[i], dl.VlbOK[i] = g.row(start), hs, nk > 0
}
