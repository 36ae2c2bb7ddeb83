package core

import (
	"math/bits"
	"slices"

	"tugal/internal/exec"
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
// There is one adjustment (adjust) with two feeds. When the policy
// compiles within the store budget, a pair's paths are read out of the
// store's arena, removal is a []bool indexed by PathID and the result
// is a compacted Store ready for allocation-free sampling. Otherwise
// (modeled-only giant topologies) they come from a filtered walk of
// the interpreted policy and the result is an Explicit wrapper with a
// hash-keyed removal set. Both feeds hand the adjustment the same paths
// in the same order, so it makes the same removal decisions.
func Rebalance(t *topo.Compiled, pol paths.Policy, opt LBOptions) (paths.Policy, BalanceReport) {
	return RebalanceOn(flow.NewNetwork(t), pol, opt)
}

// RebalanceOn is Rebalance against a caller-built edge space, so
// pipelines that already hold one (ComputeTVLB builds a single
// Network for every candidate adjustment) do not rebuild it per call.
func RebalanceOn(net *flow.Network, pol paths.Policy, opt LBOptions) (paths.Policy, BalanceReport) {
	if !opt.Enabled {
		return paths.NewExplicit(pol), BalanceReport{}
	}
	// On a degraded network (net.Fail set) the analysis runs over
	// surviving paths only: the store is compiled or filtered under the
	// mask, the walk of an interpreted policy skips dead paths.
	if st, ok := paths.Compiled(exec.Default(), net.T, pol, net.Fail); ok {
		return rebalanceStore(net, st, opt)
	}
	return rebalancePolicy(net, pol, opt)
}

// useScratch is the dense per-pair usage accumulator of the
// adjustment: counts indexed by edge with a first-touch list, reset in
// O(1) by generation bump. The mean over touched edges sums in first
// touch order, which is path order, so it does not depend on the feed.
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

// mean returns the average count over touched edges.
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

// pairScratch is the adjustment's view of one pair at a time: the live
// paths in flat arrays reused from pair to pair, so the adjustment
// allocates per growth, not per path. Each path is its hop count and
// ports packed into one word (from one source switch the ports identify
// the path, so equal words are the duplicates of one concrete path, see
// Store.EqualIDs) and its edges at stride MaxVLBHops.
//
// The paths come from one of two feeds, and removals go back to it: a
// compiled store (st) minus the PathIDs marked in drop, where removing
// marks drop for the path and its twins (see groupTwins); or a walk of
// the Explicit policy under construction (ex), where removing adds the
// path's key to ex's removal set.
type pairScratch struct {
	st    *paths.Store
	drop  []bool
	ids   []paths.PathID
	twin  []int32
	slots []int32

	walk *paths.Walker
	ex   *paths.Explicit
	ps   []paths.Path

	words []uint64
	edges []flow.Edge
	order []int32
}

// load fills the scratch with the feed's live paths of pair (s, d), in
// enumeration order, and returns how many there are.
func (ps *pairScratch) load(net *flow.Network, s, d int) int {
	var first paths.PathID
	var count int
	if ps.st != nil {
		first, count = ps.st.PairRange(s, d)
	} else {
		ps.ps = ps.walk.Pair(s, d)
		count = len(ps.ps)
	}
	if cap(ps.words) < count {
		c := max(count, 2*cap(ps.words))
		ps.ids, ps.words = make([]paths.PathID, 0, c), make([]uint64, 0, c)
		ps.edges = make([]flow.Edge, c*paths.MaxVLBHops)
		i32 := make([]int32, 2*c+2<<bits.Len(uint(c)))
		ps.order, ps.twin, ps.slots = i32[:c], i32[c:2*c], i32[2*c:]
	}
	ps.ids, ps.words = ps.ids[:0], ps.words[:0]
	for k := 0; k < count; k++ {
		var ports []int8
		if ps.st != nil {
			id := first + paths.PathID(k)
			if ps.drop[id] {
				continue
			}
			ports = ps.st.Ports(id)
			ps.ids = append(ps.ids, id)
		} else {
			ports = ps.ps[k].Ports
		}
		word := uint64(len(ports)) << 48
		edges := ps.edges[len(ps.words)*paths.MaxVLBHops:]
		cur := s
		for h, pt := range ports {
			edges[h] = net.EdgeOf(cur, int(pt))
			word |= uint64(uint8(pt)) << (8 * h)
			cur = net.T.PeerOfPort(cur, int(pt))
		}
		ps.words = append(ps.words, word)
	}
	if ps.st != nil && len(ps.words) > 0 {
		ps.groupTwins()
	}
	return len(ps.words)
}

// groupTwins links the loaded paths into one ring per word, twin, through
// slots: an open-addressed table, under half full, from a word to the
// first path loaded with it (+1; 0 is an empty slot).
func (ps *pairScratch) groupTwins() {
	lg := bits.Len(uint(len(ps.words))) + 1
	slots := ps.slots[:1<<lg]
	clear(slots)
	for k, w := range ps.words {
		for h := (w * 0x9e3779b97f4a7c15) >> (64 - lg); ; h = (h + 1) & uint64(len(slots)-1) {
			head := slots[h] - 1
			if head < 0 {
				slots[h], ps.twin[k] = int32(k)+1, int32(k)
				break
			}
			if ps.words[head] == w {
				ps.twin[k], ps.twin[head] = ps.twin[head], int32(k)
				break
			}
		}
	}
}

// hops returns the hop count of loaded path k.
func (ps *pairScratch) hops(k int) int { return int(ps.words[k] >> 48) }

// edgesOf returns the switch-to-switch edges of loaded path k.
func (ps *pairScratch) edgesOf(k int) []flow.Edge {
	return ps.edges[k*paths.MaxVLBHops:][:ps.hops(k)]
}

// longestFirst orders the loaded paths by hop count, longest first
// and in enumeration order within a length: a stable counting sort.
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

// remove removes loaded path k from the feed, and every copy of it: a
// removal set keyed by path identity cannot tell the copies apart, so
// the PathID feed drops k's twin ring together too.
func (ps *pairScratch) remove(k int32) {
	if ps.st == nil {
		ps.ex.Remove(ps.ps[k])
		return
	}
	for j := k; ; {
		ps.drop[ps.ids[j]] = true
		if j = ps.twin[j]; j == k {
			return
		}
	}
}

// shed is the removal loop of both passes: longest first, it removes
// loaded paths that cross a link hot reports, handing each one's edges
// to cooled before it tests the next, until the share frac of the pair
// is gone or only keep paths are left. It returns how many it removed.
func (ps *pairScratch) shed(frac float64, keep int, hot func(flow.Edge) bool, cooled func(flow.Edge)) int {
	budget, n := int(frac*float64(len(ps.words))), 0
	for _, k := range ps.longestFirst() {
		if n >= budget || len(ps.words)-n <= keep {
			break
		}
		edges := ps.edgesOf(int(k))
		if !slices.ContainsFunc(edges, hot) {
			continue
		}
		ps.remove(k)
		n++
		for _, e := range edges {
			cooled(e)
		}
	}
	return n
}

// removed reports whether loaded path k has been removed since load.
func (ps *pairScratch) removed(k int) bool {
	if ps.st == nil {
		return ps.ex.Removed[ps.ps[k].Key()]
	}
	return ps.drop[ps.ids[k]]
}

// rebalanceStore is the adjustment of a whole compiled policy: the
// result is a compacted Store.
func rebalanceStore(net *flow.Network, st *paths.Store, opt LBOptions) (*paths.Store, BalanceReport) {
	removed, rep := rebalance(net, st, nil, opt)
	return st.Without(removed), rep
}

// rebalance is the adjustment of the paths of st not marked in drop
// (nil: all of them) — a candidate of Step 2 is a drop mask over Step
// 1's store and is never copied out before it has been adjusted. The
// paths removed are marked in drop and it is returned.
func rebalance(net *flow.Network, st *paths.Store, drop []bool, opt LBOptions) ([]bool, BalanceReport) {
	if drop == nil {
		drop = make([]bool, st.NumPaths())
	}
	return drop, adjust(net, &pairScratch{st: st, drop: drop}, opt)
}

// rebalancePolicy is the adjustment of a policy too large to compile:
// the result wraps it with the removal set.
func rebalancePolicy(net *flow.Network, pol paths.Policy, opt LBOptions) (*paths.Explicit, BalanceReport) {
	ex := paths.NewExplicit(pol)
	return ex, adjust(net, &pairScratch{walk: paths.NewWalker(net.T, ex, net.Fail), ex: ex}, opt)
}

// adjust is the two-level adjustment over whatever ps feeds it, one
// pair at a time; removals land in the feed.
func adjust(net *flow.Network, ps *pairScratch, opt LBOptions) BalanceReport {
	rep := BalanceReport{}
	pairs := analyzePairs(net.T, opt)
	rep.PairsAnalyzed = len(pairs)

	globalUse := make([]float64, net.NumEdges)
	use := newUseScratch(net.NumEdges)

	for _, pr := range pairs {
		count := ps.load(net, int(pr[0]), int(pr[1]))
		if count == 0 {
			continue
		}
		rep.PathsConsidered += count
		// Per-pair usage counts over switch-to-switch edges.
		use.reset()
		for k := range ps.words {
			for _, e := range ps.edgesOf(k) {
				use.inc(e)
			}
		}
		w := 1 / float64(count)
		mean := use.mean()
		// Local adjustment: remove longest paths crossing hot links.
		hot := func(e flow.Edge) bool { return use.w[e] > opt.Tol*mean && use.w[e] > 1 }
		if slices.ContainsFunc(use.touched, hot) {
			rep.LocalHotPairs++
			rep.LocalRemoved += ps.shed(opt.MaxRemoveFrac, 0, hot, func(e flow.Edge) { use.w[e]-- })
		}
		// Accumulate surviving usage into the global picture.
		for k := range ps.words {
			if ps.removed(k) {
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
		return rep
	}
	crosses := func(e flow.Edge) bool { return hotGlobal[e] }
	for _, pr := range pairs {
		// Surviving paths of the pair, in enumeration order; a pair is
		// never left without one.
		ps.load(net, int(pr[0]), int(pr[1]))
		rep.GlobalRemoved += ps.shed(opt.MaxRemoveFrac, 1, crosses, func(flow.Edge) {})
	}
	return rep
}
