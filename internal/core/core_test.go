package core

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/flow"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/sweep"
	"tugal/internal/topo"
)

func TestProbeGrid(t *testing.T) {
	grid := ProbeGrid()
	if len(grid) != 31 {
		t.Fatalf("grid size %d, Table 1 has 31 points", len(grid))
	}
	if grid[0] != (DataPoint{MaxHops: 3}) {
		t.Fatalf("first point %v", grid[0])
	}
	if !grid[len(grid)-1].IsAll() {
		t.Fatalf("last point %v not all-VLB", grid[len(grid)-1])
	}
	seen := map[string]bool{}
	for _, dp := range grid {
		if seen[dp.String()] {
			t.Fatalf("duplicate point %v", dp)
		}
		seen[dp.String()] = true
	}
	if !seen["60% 5-hop"] || !seen["4-hop"] || !seen["all VLB"] {
		t.Fatalf("missing canonical labels: %v", seen)
	}
}

func TestDataPointPolicy(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	if _, ok := (DataPoint{MaxHops: 6}).Policy(tp, 1).(paths.Full); !ok {
		t.Fatal("all-VLB point should yield Full policy")
	}
	pol := (DataPoint{MaxHops: 4, Frac: 0.5}).Policy(tp, 1)
	lc, ok := pol.(paths.LengthCapped)
	if !ok || lc.MaxHops != 4 || lc.Frac != 0.5 {
		t.Fatalf("policy %#v", pol)
	}
}

// tinyOptions keeps the full pipeline test fast.
func tinyOptions() Options {
	o := QuickOptions()
	o.Type2Model = 2
	o.Type1Cap = 4
	o.VicinityMax = 1
	o.Sim.Patterns = 1
	o.Sim.Windows = sweep.Windows{Warmup: 1200, Measure: 800, Drain: 1600}
	o.Sim.Resolution = 0.1
	o.LB.PairCap = 500
	return o
}

func TestStep1SmallTopology(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	curve, best, err := Step1(tp, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 31 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for _, p := range curve {
		if p.Mean < 0 || p.Mean > 2 {
			t.Fatalf("%v: modeled throughput %v out of range", p.Point, p.Mean)
		}
	}
	// The all-restricted 3-hop point must model clearly below the
	// best point on any topology with meaningful VLB diversity.
	var threeHop, bestMean float64
	for _, p := range curve {
		if p.Point == (DataPoint{MaxHops: 3}) {
			threeHop = p.Mean
		}
		if p.Point == best {
			bestMean = p.Mean
		}
	}
	if threeHop >= bestMean {
		t.Fatalf("3-hop %v >= best %v", threeHop, bestMean)
	}
}

// TestStep1WorkerDeterminism: the full Step-1 probe — store compile
// and grid walk included — must yield a bit-identical curve and the
// same best point at any worker count.
func TestStep1WorkerDeterminism(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	opt := tinyOptions()
	type outcome struct {
		curve []ProbePoint
		best  DataPoint
	}
	var runs [2]outcome
	for i, workers := range []int{1, 16} {
		old := exec.SetDefault(exec.NewPool(workers))
		curve, best, err := Step1(tp, opt)
		exec.SetDefault(old)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = outcome{curve, best}
	}
	if runs[0].best != runs[1].best {
		t.Fatalf("best point differs: %v vs %v", runs[0].best, runs[1].best)
	}
	for k := range runs[0].curve {
		a, b := runs[0].curve[k], runs[1].curve[k]
		if a.Point != b.Point ||
			math.Float64bits(a.Mean) != math.Float64bits(b.Mean) ||
			math.Float64bits(a.StdErr) != math.Float64bits(b.StdErr) {
			t.Fatalf("point %d differs: %+v vs %+v", k, a, b)
		}
	}
}

func TestVicinitySelection(t *testing.T) {
	curve := []ProbePoint{
		{Point: DataPoint{MaxHops: 3}, Mean: 0.30},
		{Point: DataPoint{MaxHops: 4}, Mean: 0.50},
		{Point: DataPoint{MaxHops: 4, Frac: 0.5}, Mean: 0.495},
		{Point: DataPoint{MaxHops: 5}, Mean: 0.48},
		{Point: DataPoint{MaxHops: 6}, Mean: 0.40},
	}
	opt := DefaultOptions()
	opt.VicinityTol = 0.03
	opt.VicinityMax = 4
	got := vicinity(curve, DataPoint{MaxHops: 4}, opt)
	if len(got) != 2 {
		t.Fatalf("vicinity %v", got)
	}
	if got[0] != (DataPoint{MaxHops: 4}) || got[1] != (DataPoint{MaxHops: 4, Frac: 0.5}) {
		t.Fatalf("vicinity order %v", got)
	}
}

func TestRebalanceReducesHotUsage(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	base := paths.Strategic{T: tp, FirstLeg: 2}
	opt := DefaultLBOptions()
	opt.PairCap = 200
	adj, rep := Rebalance(tp, base, opt)
	if rep.PairsAnalyzed == 0 {
		t.Fatal("no pairs analyzed")
	}
	// The adjusted policy must stay within the base set and keep
	// diversity: every analyzed pair retains at least one path.
	pairs := analyzePairs(tp, opt)
	for _, pr := range pairs[:50] {
		ps := adj.Enumerate(int(pr[0]), int(pr[1]))
		baseN := len(base.Enumerate(int(pr[0]), int(pr[1])))
		if baseN > 0 && len(ps) == 0 {
			t.Fatalf("pair %v lost all paths", pr)
		}
		if len(ps) > baseN {
			t.Fatalf("pair %v gained paths", pr)
		}
	}
}

func TestRebalanceDisabled(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	pol := paths.Full{T: tp}
	adj, rep := Rebalance(tp, pol, LBOptions{Enabled: false})
	if rep.LocalRemoved != 0 || rep.GlobalRemoved != 0 {
		t.Fatal("disabled rebalance removed paths")
	}
	// The adjusted set must be identical to the base set.
	for _, pr := range [][2]int{{0, 1}, {0, 5}, {3, 9}} {
		want := pol.Enumerate(pr[0], pr[1])
		got := adj.Enumerate(pr[0], pr[1])
		if len(got) != len(want) {
			t.Fatalf("pair %v: %d paths, want %d", pr, len(got), len(want))
		}
	}
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

// rebalanceInterpreted is the adjustment as it shipped for policies
// too large to compile, before the store feed and the policy feed
// shared one body (adjust): slices of cloned paths, a sort per pair and
// a map-keyed removal set, verbatim. It is the oracle both feeds are
// held to.
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

// TestRebalanceStoreMatchesInterpreted holds the one adjustment, on
// each of its feeds, to the oracle: identical reports and identical
// surviving sets from the policy's own compiled store, from a drop mask
// over the full store (Step 2's entry point) and from the walk of the
// interpreted policy — whose removal set must also be the oracle's key
// for key — pristine and degraded, over every pair and over a
// PairCap-sampled 300 of the 1260, at the default tolerance and at one
// tight enough for the global pass to remove something.
func TestRebalanceStoreMatchesInterpreted(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	base := paths.Strategic{T: tp, FirstLeg: 2}
	mask := topo.NewFailureMask(tp)
	if _, err := mask.FailGlobalLink(4, 1); err != nil {
		t.Fatal(err)
	}
	n := tp.NumSwitches()
	for _, c := range []struct {
		pairCap int
		tol     float64
	}{{0, 2}, {300, 2}, {300, 1.3}} {
		opt := DefaultLBOptions()
		opt.PairCap, opt.Tol = c.pairCap, c.tol
		pairCap := c.pairCap
		for _, fail := range []*topo.FailureMask{nil, mask} {
			net := flow.NewDegradedNetwork(tp, fail)
			ex, irep := rebalanceInterpreted(net, base, opt)
			// At the default tolerance no link of this instance is hot
			// across pairs; the tighter one is what runs the global pass.
			if irep.LocalRemoved == 0 || (c.tol < 2 && irep.GlobalRemoved == 0) {
				t.Fatalf("cap %d, tol %v, mask %v: the oracle removed %d+%d paths: a pass is not exercised",
					pairCap, c.tol, fail, irep.LocalRemoved, irep.GlobalRemoved)
			}
			own, orep := rebalanceStore(net, paths.CompileDegraded(tp, base, fail), opt)
			full := paths.CompileDegraded(tp, paths.Full{T: tp}, fail)
			drop, mrep := rebalance(net, full, full.DropMask(base), opt)
			pex, prep := rebalancePolicy(net, base, opt)
			if !maps.Equal(pex.Removed, ex.Removed) {
				t.Errorf("cap %d, mask %v: the policy feed removed %d keys, the oracle %d, or other ones",
					pairCap, fail, len(pex.Removed), len(ex.Removed))
			}
			for name, c := range map[string]struct {
				pol paths.Policy
				rep BalanceReport
			}{"compiled policy": {own, orep}, "masked full store": {full.Without(drop), mrep}, "interpreted policy": {pex, prep}} {
				if c.rep != irep {
					t.Fatalf("%s, cap %d, mask %v: reports differ: got %+v, oracle %+v", name, pairCap, fail, c.rep, irep)
				}
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						want := alivePaths(net, ex.Enumerate(s, d))
						got := alivePaths(net, c.pol.Enumerate(s, d))
						if len(got) != len(want) {
							t.Fatalf("%s, cap %d, mask %v, pair (%d,%d): keeps %d paths, oracle %d",
								name, pairCap, fail, s, d, len(got), len(want))
						}
						for i := range want {
							if !got[i].Equal(want[i]) {
								t.Fatalf("%s, cap %d, mask %v, pair (%d,%d) path %d differs", name, pairCap, fail, s, d, i)
							}
						}
					}
				}
			}
		}
	}
}

func TestComputeTVLBEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline")
	}
	tp := topo.MustNew(2, 4, 2, 9)
	// Count the store compiles the run reports: Step 1 builds the
	// conventional set once, the baseline must score on that store and
	// every candidate is cut out of it, so nothing else is enumerated.
	pool := exec.NewPool(2)
	var fullCompiles, otherCompiles atomic.Int32
	pool.SetObserver(func(s exec.Stat) {
		if s.Label == "compile/"+(paths.Full{}).Name() {
			fullCompiles.Add(1)
		} else if strings.HasPrefix(s.Label, "compile/") {
			otherCompiles.Add(1)
		}
	})
	defer exec.SetDefault(exec.SetDefault(pool))
	res, err := ComputeTVLB(tp, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := fullCompiles.Load(); n != 1 {
		t.Errorf("full VLB store compiled %d times, want once", n)
	}
	if n := otherCompiles.Load(); n != 0 {
		t.Errorf("%d candidate stores were compiled by enumeration, want none", n)
	}
	if len(res.Curve) != 31 {
		t.Fatalf("curve %d points", len(res.Curve))
	}
	if res.Final == nil {
		t.Fatal("no final policy")
	}
	if res.BaselineThroughput <= 0 {
		t.Fatalf("baseline throughput %v", res.BaselineThroughput)
	}
	// The final policy must be usable by the simulator.
	cfg := netsim.DefaultConfig()
	_ = cfg
	if res.FinalName() == "" {
		t.Fatal("empty final name")
	}
}

// TestComputeTVLBSeedReachesPairSampling: above PairCap the adjustment
// samples its pairs, and Options.Seed — documented to drive every
// random choice — must drive that one too: the strategic candidates
// are the same path sets before the adjustment at any seed, so their
// adjusted sets differ between two seeds exactly when the sampled
// pairs do, and one seed must repeat itself.
func TestComputeTVLBSeedReachesPairSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("three pipeline runs")
	}
	tp := topo.MustNew(2, 4, 2, 9)
	adjusted := func(seed uint64) []paths.PathID {
		opt := tinyOptions() // PairCap 500 of 1260 pairs, LB.Seed unset
		opt.Seed = seed
		opt.Sim.Windows = sweep.Windows{Warmup: 200, Measure: 100, Drain: 200}
		res, err := ComputeTVLB(tp, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Candidates {
			if c.Name == "strategic 2+3" {
				st := c.Policy.(*paths.Store)
				var counts []paths.PathID
				for s := 0; s < tp.NumSwitches(); s++ {
					for d := 0; d < tp.NumSwitches(); d++ {
						_, n := st.PairRange(s, d)
						counts = append(counts, paths.PathID(n))
					}
				}
				return counts
			}
		}
		t.Fatalf("seed %d: no strategic 2+3 candidate", seed)
		return nil
	}
	one, again, two := adjusted(1), adjusted(1), adjusted(2)
	if !slices.Equal(one, again) {
		t.Error("one seed adjusted two different pair samples")
	}
	if slices.Equal(one, two) {
		t.Error("seeds 1 and 2 adjusted the same sampled pairs: Options.Seed does not reach LBOptions.Seed")
	}
}

// TestRebalanceAllocs: the compiled adjustment allocates its result,
// its accumulators and a few growths of the per-pair scratch — not
// per path, and not more for a path set several times the size.
func TestRebalanceAllocs(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	net := flow.NewNetwork(tp)
	opt := DefaultLBOptions()
	for _, pol := range []paths.Policy{paths.LengthCapped{T: tp, MaxHops: 3}, paths.Full{T: tp}} {
		st := paths.Compile(tp, pol)
		allocs := testing.AllocsPerRun(3, func() { rebalance(net, st, nil, opt) })
		if allocs > 40 {
			t.Errorf("%s (%d paths): %.0f allocations per adjustment, want a constant few",
				pol.Name(), st.NumPaths(), allocs)
		}
	}
}

var benchAdjusted *paths.Store

// BenchmarkRebalanceStore times the adjustment of one Step-2 candidate
// on the paper's g9 machine: the strategic 2+3 set (~1.4M paths), all
// pairs analyzed. allocs/op is the number the flat scratch is held to.
func BenchmarkRebalanceStore(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	net := flow.NewNetwork(tp)
	st := paths.Compile(tp, paths.Strategic{T: tp, FirstLeg: 2})
	opt := DefaultLBOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAdjusted, _ = rebalanceStore(net, st, opt)
	}
	b.ReportMetric(float64(st.NumPaths()), "paths")
}

// TestModelPatternsRespectCaps checks pattern suite sizing.
func TestModelPatternsRespectCaps(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	opt := DefaultOptions()
	opt.Type2Model = 3
	opt.Type1Cap = 0
	pats := modelPatterns(tp, opt)
	if len(pats) != (tp.G-1)*tp.A+3 {
		t.Fatalf("pattern count %d", len(pats))
	}
	opt.Type1Cap = 5
	pats = modelPatterns(tp, opt)
	if len(pats) != 5+3 {
		t.Fatalf("capped pattern count %d", len(pats))
	}
}

// TestModeledAllVLBOptimal: on a topology with ample parallel links,
// the behavioural model must rate the full set at the capacity
// optimum computed by hand (see flow tests) — anchoring Step 1.
func TestModeledAllVLBOptimal(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	pats := modelPatterns(tp, Options{Seed: 1, Type2Model: 1, Type1Cap: 2, Model: flow.DefaultModelOptions()})
	mean, _, err := flow.AverageModeled(tp, paths.Full{T: tp}, pats, flow.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0.3 || mean > 1 {
		t.Fatalf("modeled mean %v implausible", mean)
	}
}

func requireSameCurve(t *testing.T, name string, want, got []ProbePoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
	}
	for k := range want {
		a, b := want[k], got[k]
		if a.Point != b.Point || math.Float64bits(a.Mean) != math.Float64bits(b.Mean) ||
			math.Float64bits(a.StdErr) != math.Float64bits(b.StdErr) {
			t.Fatalf("%s: point %d is %+v, want %+v", name, k, b, a)
		}
	}
}

// TestStep1StoreOrNot: exact Step 1 walks the compiled full store when
// the topology fits the compile budget and the interpreted full set
// when it does not, and the curve is the same bits either way — at 1, 2
// and 8 workers, pristine and under a failure mask, with one pass and
// with Step1Repeats averaging two.
func TestStep1StoreOrNot(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	refuse := func(*exec.Pool, *topo.Compiled, paths.Policy, *topo.FailureMask) (*paths.Store, bool) {
		return nil, false
	}
	mask := topo.NewFailureMask(tp)
	if _, err := mask.FailGlobalLink(tp.A/2, tp.H-1); err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Options{
		"pristine": tinyOptions(),
		"masked":   func() Options { o := tinyOptions(); o.Failures = mask; return o }(),
		"repeats":  func() Options { o := tinyOptions(); o.Step1Repeats = 2; return o }(),
	} {
		var want []ProbePoint
		for _, workers := range []int{1, 2, 8} {
			if testing.Short() && workers == 2 {
				continue
			}
			old := exec.SetDefault(exec.NewPool(workers))
			withStore, best, base, err := step1(tp, opt, paths.Compiled)
			without, bestWithout, noBase, err2 := step1(tp, opt, refuse)
			exec.SetDefault(old)
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			if base == nil || noBase != nil {
				t.Fatalf("%s: store %v with the compile allowed, %v with it refused", name, base, noBase)
			}
			if want == nil {
				want = withStore
			}
			requireSameCurve(t, name+" with a store", want, withStore)
			requireSameCurve(t, name+" without one", want, without)
			if best != bestWithout {
				t.Fatalf("%s: best %v with a store, %v without", name, best, bestWithout)
			}
		}
	}
}

// TestStep1MonteCarlo: with Loads.Enumerate off Step 1 samples each
// grid point's own policy per demand — the mode of the topologies too
// large to enumerate — as one pool task a point, and the curve does not
// depend on the worker count.
func TestStep1MonteCarlo(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	opt := tinyOptions()
	opt.Model.Loads = flow.LoadOptions{Samples: 64, Seed: 5}
	var want []ProbePoint
	for _, workers := range []int{1, 8} {
		pool := exec.NewPool(workers)
		var points, walks atomic.Int32
		pool.SetObserver(func(s exec.Stat) {
			switch {
			case s.Label == "step1/grid":
				points.Add(1)
			case strings.HasPrefix(s.Label, "loadgrid/"), strings.HasPrefix(s.Label, "compile/"):
				walks.Add(1)
			}
		})
		old := exec.SetDefault(pool)
		curve, _, err := Step1(tp, opt)
		exec.SetDefault(old)
		if err != nil {
			t.Fatal(err)
		}
		if points.Load() != 31 || walks.Load() != 0 {
			t.Fatalf("%d grid-point tasks and %d store compiles or grid walks, want 31 and 0", points.Load(), walks.Load())
		}
		if want == nil {
			want = curve
		}
		requireSameCurve(t, "monte carlo", want, curve)
	}
	exact, _, err := Step1(tp, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range want {
		if math.Abs(p.Mean-exact[k].Mean) > 0.25*exact[k].Mean {
			t.Errorf("%v: sampled mean %v, exact %v", p.Point, p.Mean, exact[k].Mean)
		}
	}
}

// noShifts is a family whose TYPE_1 set is empty.
type noShifts struct{ topo.Network }

func (noShifts) AdversarialShifts() [][2]int { return nil }

// TestOptionsValidated: Step1 and ComputeTVLB refuse, with an error
// naming the field, option values that used to panic inside a make
// (negative counts), score nothing and still name a final policy
// (Sim.Patterns 0), or select no candidate (a NaN tolerance).
func TestOptionsValidated(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	for _, c := range []struct {
		field string
		set   func(*Options)
		step1 bool // refused by Step1 too
	}{
		{"Type2Model", func(o *Options) { o.Type2Model = -1 }, true},
		{"Type1Cap", func(o *Options) { o.Type1Cap = -3 }, true},
		{"VicinityMax", func(o *Options) { o.VicinityMax = -1 }, true},
		{"Sim.Patterns", func(o *Options) { o.Sim.Patterns = -1 }, true},
		{"Sim.Seeds", func(o *Options) { o.Sim.Seeds = -2 }, true},
		{"VicinityTol", func(o *Options) { o.VicinityTol = math.NaN() }, true},
		{"VicinityTol", func(o *Options) { o.VicinityTol = math.Inf(1) }, true},
		{"VicinityTol", func(o *Options) { o.VicinityTol = -0.01 }, true},
		{"Sim.Patterns", func(o *Options) { o.Sim.Patterns = 0 }, false},
	} {
		opt := tinyOptions()
		c.set(&opt)
		_, _, err := Step1(tp, opt)
		if c.step1 != (err != nil && strings.Contains(err.Error(), "Options."+c.field)) {
			t.Errorf("Step1 with a bad %s: error %v", c.field, err)
		}
		res, err := ComputeTVLB(tp, opt)
		if res != nil || err == nil || !strings.Contains(err.Error(), "Options."+c.field) {
			t.Errorf("ComputeTVLB with a bad %s: result %v, error %v", c.field, res, err)
		}
	}
	// A suite that resolves to no pattern: a family with no adversarial
	// shift (topo.Network is open to one) and no TYPE_2 pattern asked for.
	opt := tinyOptions()
	opt.Type2Model = 0
	bare := *tp
	bare.Net = noShifts{tp.Net}
	if _, _, err := Step1(&bare, opt); err == nil || !strings.Contains(err.Error(), "no pattern") {
		t.Errorf("Step1 with an empty suite: error %v", err)
	}
	// Every valid extreme still runs.
	opt = tinyOptions()
	opt.VicinityTol, opt.VicinityMax, opt.Sim.Seeds = 0, 0, 0
	if _, _, err := Step1(tp, opt); err != nil {
		t.Error(err)
	}
}
