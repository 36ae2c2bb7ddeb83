package core

import (
	"slices"
	"sort"

	"tugal/internal/flow"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// LBOptions tunes the Step-2 load-balance analysis and adjustment.
type LBOptions struct {
	// Enabled turns the adjustment on (Algorithm 1 lines 15-18).
	Enabled bool
	// Tol flags a link whose usage probability exceeds Tol times the
	// mean usage over used links ("significantly higher than
	// others").
	Tol float64
	// MaxRemoveFrac caps how much of a pair's path set removal may
	// delete, preserving path diversity.
	MaxRemoveFrac float64
	// PairCap bounds the number of switch pairs analyzed; beyond it,
	// pairs are sampled (needed on dfly(13,26,13,27)-scale
	// topologies). 0 means analyze all pairs.
	PairCap int
	// Seed drives pair sampling.
	Seed uint64
}

// DefaultLBOptions mirrors the paper's simple removal mechanism.
func DefaultLBOptions() LBOptions {
	return LBOptions{Enabled: true, Tol: 2.0, MaxRemoveFrac: 0.25, PairCap: 25000}
}

// BalanceReport summarizes an adjustment pass.
type BalanceReport struct {
	PairsAnalyzed   int
	LocalRemoved    int
	GlobalRemoved   int
	LocalHotPairs   int
	GlobalHotLinks  int
	PathsConsidered int
}

// analyzePairs selects the ordered switch pairs to analyze.
func analyzePairs(t *topo.Compiled, opt LBOptions) [][2]int32 {
	n := t.NumSwitches()
	total := n * (n - 1)
	if opt.PairCap <= 0 || total <= opt.PairCap {
		out := make([][2]int32, 0, total)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					out = append(out, [2]int32{int32(s), int32(d)})
				}
			}
		}
		return out
	}
	r := rng.New(rng.Hash64(opt.Seed, 0xba1a))
	out := make([][2]int32, 0, opt.PairCap)
	seen := make(map[[2]int32]bool, opt.PairCap)
	for len(out) < opt.PairCap {
		s := r.Intn(n)
		d := r.Intn(n)
		if s == d {
			continue
		}
		k := [2]int32{int32(s), int32(d)}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Rebalance applies the paper's two-level load-balance adjustment to
// a candidate path policy: per-pair (local) and all-pairs (global)
// link usage probabilities are computed assuming every candidate VLB
// path of a pair is equally likely; paths causing usage significantly
// above the mean are removed, longest first.
//
// When the policy compiles within the store budget, the analysis
// runs on the compiled form — removal is a []bool indexed by PathID
// and the result is a compacted Store ready for allocation-free
// sampling. Otherwise (modeled-only giant topologies) it falls back
// to the interpreted path: an Explicit wrapper with a hash-keyed
// removal set. Both branches make identical removal decisions
// because the store preserves per-pair enumeration order.
func Rebalance(t *topo.Compiled, pol paths.Policy, opt LBOptions) (paths.Policy, BalanceReport) {
	return RebalanceOn(flow.NewNetwork(t), pol, opt)
}

// RebalanceOn is Rebalance against a caller-built edge space, so
// pipelines that already hold one (ComputeTVLB builds a single
// Network for Step 1's LoadMatrix and every candidate adjustment)
// do not rebuild it per call.
func RebalanceOn(net *flow.Network, pol paths.Policy, opt LBOptions) (paths.Policy, BalanceReport) {
	if !opt.Enabled {
		return paths.NewExplicit(pol), BalanceReport{}
	}
	// On a degraded network (net.Fail set) the analysis runs over
	// surviving paths only: the compiled branch gets the degraded
	// store epoch, the interpreted branch filters each enumeration.
	if st, ok := paths.TryCompileDegraded(net.T, pol, paths.DefaultCompileBudget, net.Fail); ok {
		return rebalanceStore(net, st, opt)
	}
	return rebalanceInterpreted(net, pol, opt)
}

// useScratch is the dense per-pair usage accumulator shared by both
// rebalance branches: counts indexed by edge with a first-touch
// list, reset in O(1) by generation bump. Unlike the former
// map[Edge]float64, the mean over touched edges sums in a
// deterministic order (first touch = path enumeration order), so the
// interpreted and store branches agree bit-for-bit.
type useScratch struct {
	w       []float64
	mark    []int32
	gen     int32
	touched []flow.Edge
}

func newUseScratch(numEdges int) *useScratch {
	return &useScratch{w: make([]float64, numEdges), mark: make([]int32, numEdges)}
}

func (u *useScratch) reset() {
	u.gen++
	u.touched = u.touched[:0]
}

func (u *useScratch) inc(e flow.Edge) {
	if u.mark[e] != u.gen {
		u.mark[e] = u.gen
		u.w[e] = 0
		u.touched = append(u.touched, e)
	}
	u.w[e]++
}

// mean returns the average count over touched edges and whether any
// edge is "hot" (count above tol times the mean, and shared).
func (u *useScratch) mean() float64 {
	if len(u.touched) == 0 {
		return 0
	}
	m := 0.0
	for _, e := range u.touched {
		m += u.w[e]
	}
	return m / float64(len(u.touched))
}

// alivePaths drops paths crossing dead gear, in place and order
// preserving, matching the degraded store's surviving sequence so the
// two rebalance branches keep making identical decisions. A pristine
// network returns the slice untouched.
func alivePaths(net *flow.Network, ps []paths.Path) []paths.Path {
	if net.Fail == nil {
		return ps
	}
	nk := 0
	for _, p := range ps {
		if paths.Alive(net.Fail, p) {
			ps[nk] = p
			nk++
		}
	}
	return ps[:nk]
}

// rebalanceInterpreted is the enumeration-based fallback for
// policies too large to compile.
func rebalanceInterpreted(net *flow.Network, pol paths.Policy, opt LBOptions) (*paths.Explicit, BalanceReport) {
	t := net.T
	out := paths.NewExplicit(pol)
	rep := BalanceReport{}
	pairs := analyzePairs(t, opt)
	rep.PairsAnalyzed = len(pairs)

	globalUse := make([]float64, net.NumEdges)
	use := newUseScratch(net.NumEdges)
	var scratch []flow.Edge

	for _, pr := range pairs {
		s, d := int(pr[0]), int(pr[1])
		ps := alivePaths(net, out.Enumerate(s, d))
		if len(ps) == 0 {
			continue
		}
		rep.PathsConsidered += len(ps)
		// Per-pair usage counts over switch-to-switch edges.
		use.reset()
		edgesOf := make([][]flow.Edge, len(ps))
		for i, p := range ps {
			scratch = scratch[:0]
			for h, pt := range p.Ports {
				scratch = append(scratch, net.EdgeOf(int(p.Sw[h]), int(pt)))
			}
			edgesOf[i] = append([]flow.Edge(nil), scratch...)
			for _, e := range scratch {
				use.inc(e)
			}
		}
		w := 1 / float64(len(ps))
		mean := use.mean()
		// Local adjustment: remove longest paths crossing hot links.
		budget := int(opt.MaxRemoveFrac * float64(len(ps)))
		removedHere := 0
		hot := func(e flow.Edge) bool { return use.w[e] > opt.Tol*mean && use.w[e] > 1 }
		anyHot := false
		for _, e := range use.touched {
			if hot(e) {
				anyHot = true
				break
			}
		}
		if anyHot {
			rep.LocalHotPairs++
			// Longest-first removal order.
			order := make([]int, len(ps))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool {
				return ps[order[a]].Hops() > ps[order[b]].Hops()
			})
			for _, i := range order {
				if removedHere >= budget {
					break
				}
				crossesHot := false
				for _, e := range edgesOf[i] {
					if hot(e) {
						crossesHot = true
						break
					}
				}
				if !crossesHot {
					continue
				}
				out.Remove(ps[i])
				removedHere++
				rep.LocalRemoved++
				for _, e := range edgesOf[i] {
					use.w[e]--
				}
			}
		}
		// Accumulate surviving usage into the global picture.
		for i, p := range ps {
			if out.Removed[p.Key()] {
				continue
			}
			for _, e := range edgesOf[i] {
				globalUse[e] += w
			}
		}
	}

	// Global adjustment: links whose expected usage across all pairs
	// is significantly above the mean shed their longest paths.
	hotGlobal, nHot := hotLinks(globalUse, opt.Tol)
	rep.GlobalHotLinks = nHot
	if nHot == 0 {
		return out, rep
	}
	for _, pr := range pairs {
		s, d := int(pr[0]), int(pr[1])
		ps := alivePaths(net, out.Enumerate(s, d))
		if len(ps) <= 1 {
			continue
		}
		budget := int(opt.MaxRemoveFrac * float64(len(ps)))
		order := make([]int, len(ps))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return ps[order[a]].Hops() > ps[order[b]].Hops()
		})
		removedHere := 0
		for _, i := range order {
			if removedHere >= budget || len(ps)-removedHere <= 1 {
				break
			}
			crosses := false
			for h, pt := range ps[i].Ports {
				if hotGlobal[net.EdgeOf(int(ps[i].Sw[h]), int(pt))] {
					crosses = true
					break
				}
			}
			if crosses {
				out.Remove(ps[i])
				removedHere++
				rep.GlobalRemoved++
			}
		}
	}
	return out, rep
}

// hotLinks marks the links whose expected usage across all pairs is
// more than tol times the mean over used links, and counts them.
func hotLinks(globalUse []float64, tol float64) ([]bool, int) {
	hot := make([]bool, len(globalUse))
	used, n := 0, 0
	gmean := 0.0
	for _, u := range globalUse {
		if u > 0 {
			used++
			gmean += u
		}
	}
	if used == 0 {
		return hot, 0
	}
	gmean /= float64(used)
	for e, u := range globalUse {
		if u > tol*gmean {
			hot[e] = true
			n++
		}
	}
	return hot, n
}

// pairScratch holds the live paths of one pair in flat arrays reused
// from pair to pair, so the compiled adjustment allocates per growth,
// not per path: PathIDs, each path's hop count and ports packed into
// one word (from one source switch the ports identify the path, so
// equal words are the duplicate PathIDs of one concrete path, see
// Store.EqualIDs), its edges at stride MaxVLBHops, and the removal
// order.
type pairScratch struct {
	ids   []paths.PathID
	words []uint64
	edges []flow.Edge
	order []int32
}

// load fills the scratch with the paths of pair (s, d) not marked in
// drop, in store order, and returns how many there are.
func (ps *pairScratch) load(net *flow.Network, st *paths.Store, s, d int, drop []bool) int {
	first, count := st.PairRange(s, d)
	if cap(ps.ids) < count {
		c := max(count, 2*cap(ps.ids))
		ps.ids, ps.words = make([]paths.PathID, 0, c), make([]uint64, 0, c)
		ps.edges, ps.order = make([]flow.Edge, c*paths.MaxVLBHops), make([]int32, c)
	}
	ps.ids, ps.words = ps.ids[:0], ps.words[:0]
	for id := first; id < first+paths.PathID(count); id++ {
		if drop[id] {
			continue
		}
		ports := st.Ports(id)
		word := uint64(len(ports)) << 48
		edges := ps.edges[len(ps.ids)*paths.MaxVLBHops:]
		cur := s
		for h, pt := range ports {
			edges[h] = net.EdgeOf(cur, int(pt))
			word |= uint64(uint8(pt)) << (8 * h)
			cur = net.T.PeerOfPort(cur, int(pt))
		}
		ps.ids, ps.words = append(ps.ids, id), append(ps.words, word)
	}
	return len(ps.ids)
}

// hops returns the hop count of loaded path k.
func (ps *pairScratch) hops(k int) int { return int(ps.words[k] >> 48) }

// edgesOf returns the switch-to-switch edges of loaded path k.
func (ps *pairScratch) edgesOf(k int) []flow.Edge {
	return ps.edges[k*paths.MaxVLBHops:][:ps.hops(k)]
}

// longestFirst orders the loaded paths by hop count, longest first
// and in store order within a length: a stable counting sort.
func (ps *pairScratch) longestFirst() []int32 {
	var at [paths.MaxVLBHops + 2]int32
	for k := range ps.words {
		at[paths.MaxVLBHops-ps.hops(k)+1]++
	}
	for b := 1; b < len(at); b++ {
		at[b] += at[b-1]
	}
	order := ps.order[:len(ps.words)]
	for k := range ps.words {
		b := paths.MaxVLBHops - ps.hops(k)
		order[at[b]] = int32(k)
		at[b]++
	}
	return order
}

// remove marks loaded path k and every copy of it in drop, mirroring
// the interpreted branch's key-based removal: removing a path removes
// every PathID it holds under the pair.
func (ps *pairScratch) remove(drop []bool, k int32) {
	for j, w := range ps.words {
		if w == ps.words[k] {
			drop[ps.ids[j]] = true
		}
	}
}

// rebalanceStore is the adjustment of a whole compiled policy: the
// result is a compacted Store.
func rebalanceStore(net *flow.Network, st *paths.Store, opt LBOptions) (*paths.Store, BalanceReport) {
	removed, rep := rebalance(net, st, nil, opt)
	return st.Without(removed), rep
}

// rebalance is the compiled-form adjustment of the paths of st not
// marked in drop (nil: all of them) — a candidate of Step 2 is a drop
// mask over Step 1's store and is never copied out before it has been
// adjusted. It is the same two-level algorithm as rebalanceInterpreted
// with the same decision order, but a pair's path set is a PathID range
// loaded into flat scratch and the removal set is drop itself, indexed
// by PathID: the paths removed are marked in it and it is returned.
func rebalance(net *flow.Network, st *paths.Store, drop []bool, opt LBOptions) ([]bool, BalanceReport) {
	if drop == nil {
		drop = make([]bool, st.NumPaths())
	}
	rep := BalanceReport{}
	pairs := analyzePairs(net.T, opt)
	rep.PairsAnalyzed = len(pairs)

	globalUse := make([]float64, net.NumEdges)
	use := newUseScratch(net.NumEdges)
	var ps pairScratch

	for _, pr := range pairs {
		count := ps.load(net, st, int(pr[0]), int(pr[1]), drop)
		if count == 0 {
			continue
		}
		rep.PathsConsidered += count
		// Per-pair usage counts over switch-to-switch edges.
		use.reset()
		for k := range ps.ids {
			for _, e := range ps.edgesOf(k) {
				use.inc(e)
			}
		}
		w := 1 / float64(count)
		mean := use.mean()
		// Local adjustment: remove longest paths crossing hot links.
		budget := int(opt.MaxRemoveFrac * float64(count))
		removedHere := 0
		hot := func(e flow.Edge) bool { return use.w[e] > opt.Tol*mean && use.w[e] > 1 }
		if slices.ContainsFunc(use.touched, hot) {
			rep.LocalHotPairs++
			for _, k := range ps.longestFirst() {
				if removedHere >= budget {
					break
				}
				edges := ps.edgesOf(int(k))
				if !slices.ContainsFunc(edges, hot) {
					continue
				}
				ps.remove(drop, k)
				removedHere++
				rep.LocalRemoved++
				for _, e := range edges {
					use.w[e]--
				}
			}
		}
		// Accumulate surviving usage into the global picture.
		for k, id := range ps.ids {
			if drop[id] {
				continue
			}
			for _, e := range ps.edgesOf(k) {
				globalUse[e] += w
			}
		}
	}

	// Global adjustment: links whose expected usage across all pairs
	// is significantly above the mean shed their longest paths.
	hotGlobal, nHot := hotLinks(globalUse, opt.Tol)
	rep.GlobalHotLinks = nHot
	if nHot == 0 {
		return drop, rep
	}
	crosses := func(e flow.Edge) bool { return hotGlobal[e] }
	for _, pr := range pairs {
		// Surviving paths of the pair, in enumeration order.
		count := ps.load(net, st, int(pr[0]), int(pr[1]), drop)
		if count <= 1 {
			continue
		}
		budget := int(opt.MaxRemoveFrac * float64(count))
		removedHere := 0
		for _, k := range ps.longestFirst() {
			if removedHere >= budget || count-removedHere <= 1 {
				break
			}
			if slices.ContainsFunc(ps.edgesOf(int(k)), crosses) {
				ps.remove(drop, k)
				removedHere++
				rep.GlobalRemoved++
			}
		}
	}
	return drop, rep
}
