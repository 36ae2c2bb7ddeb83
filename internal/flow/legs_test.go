package flow

import (
	"fmt"
	"slices"
	"testing"

	"tugal/internal/paths"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// pathDecode is the per-path decode GridWalk ran before it read legs,
// kept as the oracle of the leg decode: every live path of the pair in
// the base's Enumerate order (alivePaths), its edges built by PathEdges
// and crossed one by one, per hop count, with each path's Key and edges
// in walk order.
type pathDecode struct {
	n     [hopClasses]int
	cnt   [hopClasses]map[Edge]int32
	keys  [hopClasses][]uint64
	edges [hopClasses][][]Edge // sorted
}

func decodePaths(net *Network, base paths.Policy, s, d int) *pathDecode {
	pd := &pathDecode{}
	for h := range pd.cnt {
		pd.cnt[h] = map[Edge]int32{}
	}
	for _, p := range alivePaths(net, base, s, d) {
		h := p.Hops()
		pd.n[h]++
		edges := net.PathEdges(nil, p)
		for _, e := range edges {
			pd.cnt[h][e]++
		}
		slices.Sort(edges)
		pd.keys[h] = append(pd.keys[h], p.Key())
		pd.edges[h] = append(pd.edges[h], edges)
	}
	return pd
}

// everyLengthKeyed is a policy list that keys every VLB length, so a
// walk serving it records every path's key and legs.
func everyLengthKeyed(tp *topo.Compiled) []paths.Policy {
	var out []paths.Policy
	for h := 1; h < paths.MaxVLBHops; h++ {
		out = append(out, paths.LengthCapped{T: tp, MaxHops: h, Frac: 0.5, Seed: uint64(h)})
	}
	return out
}

// legBases are the bases the leg decode serves: the full set
// interpreted, strategic 2+3, a compiled fractional store degraded
// under mask, and a relabeled Explicit as the load-balance adjustment
// leaves it.
func legBases(tp *topo.Compiled, mask *topo.FailureMask, sets [][]traffic.Demand) map[string]paths.Policy {
	ub := unkeyedBases(tp, mask, sets)
	return map[string]paths.Policy{
		"full":          paths.Full{T: tp},
		"strategic-2+3": ub["strategic-2+3"],
		"store":         ub["store"],
		"explicit":      ub["explicit"],
	}
}

// TestLegCountsMatchPaths holds the leg decode to the per-path one, pair
// by pair: every hop count's path count and crossings of every edge
// equal, no edge in the union that no path crosses, and each
// recorded path's chained key equal to Path.Key of the path it joins,
// in walk order, its two legs' edges with the injection and ejection
// edges being that path's edges. On dfly(2,4,2,9), dfly(2,4,4,3) and
// D3(12,4,2), every ordered pair (same-group pairs included), pristine
// and under degradeSteps, over the full set, strategic 2+3, a degraded
// fractional store and a rebalanced Explicit. -short walks the pairs
// out of four switches only: two of the first group, the first of the
// next, and the one degradeSteps kills.
func TestLegCountsMatchPaths(t *testing.T) {
	for _, tp := range []*topo.Compiled{
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 4, 3),
		topo.MustNewD3(12, 4, 2),
	} {
		for _, degraded := range []bool{false, true} {
			var mask *topo.FailureMask
			if degraded {
				mask = topo.NewFailureMask(tp)
				degradeSteps(tp, mask)
			}
			net := NewDegradedNetwork(tp, mask)
			for name, base := range legBases(tp, mask, gridDemands(tp)) {
				t.Run(fmt.Sprintf("%s/degraded=%v/%s", tp.Label(), degraded, name), func(t *testing.T) {
					g, err := NewGridWalk(net, base, everyLengthKeyed(tp))
					if err != nil {
						t.Fatal(err)
					}
					for s := 0; s < tp.NumSwitches(); s++ {
						if testing.Short() && !slices.Contains([]int{0, 1, tp.A, tp.SwitchID(tp.G-1, 0)}, s) {
							continue
						}
						for d := 0; d < tp.NumSwitches(); d++ {
							g.decode(s, d)
							if diff := legsDiffer(g, decodePaths(net, base, s, d)); diff != "" {
								t.Fatalf("pair (%d, %d): %s", s, d, diff)
							}
						}
					}
				})
			}
		}
	}
}

// legsDiffer compares a walk's decoded pair with the per-path decode.
func legsDiffer(g *GridWalk, pd *pathDecode) string {
	for h := 2; h < hopClasses; h++ {
		if g.n[h] != pd.n[h] {
			return fmt.Sprintf("%d %d-hop paths, want %d", g.n[h], h, pd.n[h])
		}
		crossed := 0
		for u := injSlot; u < len(g.union); u++ {
			c := g.cnt[h][u]
			if want := pd.cnt[h][g.union[u]]; c != want {
				return fmt.Sprintf("%d-hop crossings of edge %d: %d, want %d", h, g.union[u], c, want)
			}
			if c != 0 {
				crossed++
			}
		}
		if crossed != len(pd.cnt[h]) {
			return fmt.Sprintf("%d-hop paths cross %d edges of the union, want %d", h, crossed, len(pd.cnt[h]))
		}
		if len(g.keys[h]) != pd.n[h] {
			return fmt.Sprintf("%d %d-hop keys, want %d", len(g.keys[h]), h, pd.n[h])
		}
		for i, p := range g.keys[h] {
			if p.key != pd.keys[h][i] {
				return fmt.Sprintf("%d-hop path %d: chained key %#x, Path.Key %#x", h, i, p.key, pd.keys[h][i])
			}
			edges := []Edge{g.union[injSlot], g.union[ejSlot]}
			for _, l := range []gridLeg{g.legs[p.a], g.legs[p.b]} {
				for _, u := range l.u {
					if u != sinkSlot {
						edges = append(edges, g.union[u])
					}
				}
			}
			slices.Sort(edges)
			if !slices.Equal(edges, pd.edges[h][i]) {
				return fmt.Sprintf("%d-hop path %d: legs cross %v, the path %v", h, i, edges, pd.edges[h][i])
			}
		}
	}
	if g.union[sinkSlot] != -1 {
		return fmt.Sprintf("the sink slot holds edge %d", g.union[sinkSlot])
	}
	for _, e := range g.union[ejSlot+1:] {
		in := false
		for h := range pd.cnt {
			in = in || pd.cnt[h][e] != 0
		}
		if !in {
			return fmt.Sprintf("edge %d is in the union, on no path", e)
		}
	}
	return ""
}
