package core

import (
	"slices"
	"testing"

	"tugal/internal/flow"
	"tugal/internal/paths"
	"tugal/internal/topo"
)

// removeScan is the store feed's twin removal as it first shipped: a
// pairwise scan of the pair's loaded words for every copy of path k.
// It is the oracle remove is held to.
func (ps *pairScratch) removeScan(k int32) {
	for j, w := range ps.words {
		if w == ps.words[k] {
			ps.drop.Add(ps.ids[j])
		}
	}
}

// shedScan is shed removing through removeScan: the same order, the
// same budget, the same count.
func (ps *pairScratch) shedScan(frac float64, keep int, hot func(flow.Edge) bool, cooled func(flow.Edge)) int {
	budget, n := int(frac*float64(len(ps.words))), 0
	for _, k := range ps.longestFirst() {
		if n >= budget || len(ps.words)-n <= keep {
			break
		}
		edges := ps.edgesOf(int(k))
		if !slices.ContainsFunc(edges, hot) {
			continue
		}
		ps.removeScan(k)
		n++
		for _, e := range edges {
			cooled(e)
		}
	}
	return n
}

// rebalanceScan is rebalance with adjust's two passes restated over
// shedScan: the drop mask and the report every twin-removal scheme must
// reproduce bit for bit.
func rebalanceScan(net *flow.Network, st *paths.Store, drop paths.IDSet, opt LBOptions) (paths.IDSet, BalanceReport) {
	ps := &pairScratch{st: st, drop: drop}
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
		use.reset()
		for k := range ps.words {
			for _, e := range ps.edgesOf(k) {
				use.inc(e)
			}
		}
		w := 1 / float64(count)
		mean := use.mean()
		hot := func(e flow.Edge) bool { return use.w[e] > opt.Tol*mean && use.w[e] > 1 }
		if slices.ContainsFunc(use.touched, hot) {
			rep.LocalHotPairs++
			rep.LocalRemoved += ps.shedScan(opt.MaxRemoveFrac, 0, hot, func(e flow.Edge) { use.w[e]-- })
		}
		for k := range ps.words {
			if ps.removed(k) {
				continue
			}
			for _, e := range ps.edgesOf(k) {
				globalUse[e] += w
			}
		}
	}
	hotGlobal, nHot := hotLinks(globalUse, opt.Tol)
	rep.GlobalHotLinks = nHot
	if nHot == 0 {
		return drop, rep
	}
	crosses := func(e flow.Edge) bool { return hotGlobal[e] }
	for _, pr := range pairs {
		ps.load(net, int(pr[0]), int(pr[1]))
		rep.GlobalRemoved += ps.shedScan(opt.MaxRemoveFrac, 1, crosses, func(flow.Edge) {})
	}
	return drop, rep
}

// TestTwinRemovalMatchesScan holds the adjustment's twin removal to the
// pairwise scan: bit-identical drop masks and reports on dfly(2,4,4,3)'s
// full set, whose parallel global links give one concrete path several
// PathIDs, and on g9's strategic 2+3 cut out of the full store as Step
// 2 cuts it, each at the default options (where dfly(2,4,4,3) has no
// hot pair) and at a tolerance tight enough for the global pass to
// remove paths.
func TestTwinRemovalMatchesScan(t *testing.T) {
	cases := []struct {
		tp   *topo.Compiled
		pol  func(*topo.Compiled) paths.Policy
		tol  float64
		long bool
	}{
		{topo.MustNew(2, 4, 4, 3), func(tp *topo.Compiled) paths.Policy { return paths.Full{T: tp} }, 2, false},
		{topo.MustNew(2, 4, 4, 3), func(tp *topo.Compiled) paths.Policy { return paths.Full{T: tp} }, 1.5, false},
		{topo.MustNew(4, 8, 4, 9), func(tp *topo.Compiled) paths.Policy { return paths.Strategic{T: tp, FirstLeg: 2} }, 2, true},
		{topo.MustNew(4, 8, 4, 9), func(tp *topo.Compiled) paths.Policy { return paths.Strategic{T: tp, FirstLeg: 2} }, 1.5, true},
	}
	for _, c := range cases {
		if c.long && testing.Short() {
			continue
		}
		net := flow.NewNetwork(c.tp)
		full := paths.Compile(c.tp, paths.Full{T: c.tp})
		pol := c.pol(c.tp)
		opt := DefaultLBOptions()
		opt.Tol = c.tol
		cut := full.DropMask(pol)
		want, wrep := rebalanceScan(net, full, slices.Clone(cut), opt)
		got, grep := rebalance(net, full, slices.Clone(cut), opt)
		name := c.tp.Label() + "/" + pol.Name()
		// At the tight tolerance both passes must remove, and some removal
		// must take a twin along: more PathIDs marked than removals counted.
		marked := 0
		for id := range paths.PathID(full.NumPaths()) {
			if want.Has(id) && !cut.Has(id) {
				marked++
			}
		}
		if c.tol < 2 && (wrep.LocalRemoved == 0 || wrep.GlobalRemoved == 0 || marked <= wrep.LocalRemoved+wrep.GlobalRemoved) {
			t.Fatalf("%s, tol %v: the scan removed %d+%d paths and marked %d: a pass or the twins are not exercised",
				name, c.tol, wrep.LocalRemoved, wrep.GlobalRemoved, marked)
		}
		if grep != wrep {
			t.Errorf("%s, tol %v: report %+v, scan %+v", name, c.tol, grep, wrep)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s, tol %v: drop masks differ", name, c.tol)
		}
	}
}

// TestTwinWords: the adjustment finds the duplicate PathIDs of one
// concrete path by comparing packed words, so word equality must be
// equality of the two IDs' Store.Ports for every two paths of a pair —
// on an instance with parallel global links, whose full set holds such
// duplicates — and the twin rings load builds must partition each pair
// into exactly those classes: a path's ring holds every path with its
// ports and no other.
func TestTwinWords(t *testing.T) {
	tp := topo.MustNew(2, 4, 4, 3)
	net := flow.NewNetwork(tp)
	st := paths.Compile(tp, paths.Full{T: tp})
	ps := pairScratch{st: st, drop: paths.NewIDSet(st.NumPaths())}
	twins := 0
	for s := 0; s < tp.NumSwitches(); s++ {
		for d := 0; d < tp.NumSwitches(); d++ {
			n := ps.load(net, s, d)
			for j := 0; j < n; j++ {
				class := 1
				for k := 0; k < n; k++ {
					same := ps.words[j] == ps.words[k]
					if same != (st.Ports(s, d, ps.ids[j]) == st.Ports(s, d, ps.ids[k])) {
						t.Fatalf("pair (%d,%d) ids %d,%d: words equal %v, ports equal %v",
							s, d, ps.ids[j], ps.ids[k], same, !same)
					}
					if same && k > j {
						twins++
					}
					if same && k != j {
						class++
					}
				}
				ring := 0
				for k := int32(j); ; {
					if st.Ports(s, d, ps.ids[j]) != st.Ports(s, d, ps.ids[k]) {
						t.Fatalf("pair (%d,%d): id %d's ring holds id %d, not its twin", s, d, ps.ids[j], ps.ids[k])
					}
					if ring++; ring > n {
						t.Fatalf("pair (%d,%d): id %d's ring does not close", s, d, ps.ids[j])
					}
					if k = ps.twin[k]; k == int32(j) {
						break
					}
				}
				if ring != class {
					t.Fatalf("pair (%d,%d): id %d's ring holds %d paths, its class of equal ports %d", s, d, ps.ids[j], ring, class)
				}
			}
		}
	}
	if twins == 0 {
		t.Error("no duplicate path in the full set: the test compared nothing that matters")
	}
}
