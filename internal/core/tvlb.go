package core

import (
	"fmt"
	"math"
	"sort"

	"tugal/internal/exec"
	"tugal/internal/flow"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/routing"
	"tugal/internal/stats"
	"tugal/internal/sweep"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// SimOptions configures Step 2's simulation-based final selection.
type SimOptions struct {
	// Config are the simulator parameters (Table 3 defaults).
	Config netsim.Config
	// Windows are the warmup/measure/drain lengths.
	Windows sweep.Windows
	// Patterns is the number of TYPE_2 patterns simulated (paper: 5).
	Patterns int
	// Seeds per pattern.
	Seeds int
	// Resolution of the saturation search.
	Resolution float64
}

// Options configures Algorithm 1 end to end.
type Options struct {
	// Seed drives every random choice (path subsets, patterns).
	Seed uint64
	// Type2Model is the TYPE_2_SET size used by the model (paper: 20).
	Type2Model int
	// Type1Cap subsamples TYPE_1_SET when positive; 0 uses all
	// (g-1)*a patterns. Large topologies need a cap.
	Type1Cap int
	// Step1Repeats re-runs the coarse grain with fresh random path
	// subsets and averages, the paper's optional guard against a bad
	// random seed (§3.3.2). 0 or 1 means a single pass.
	Step1Repeats int
	// VicinityTol keeps Step-1 points within this relative distance
	// of the best as Step-2 candidates.
	VicinityTol float64
	// VicinityMax caps the number of Step-2 candidates from Step 1.
	VicinityMax int
	// Strategic adds the deterministic 2+3 / 3+2 expansions when the
	// vicinity touches the 5-hop region.
	Strategic bool
	// LB is the load-balance adjustment configuration.
	LB LBOptions
	// Sim configures Step 2 simulation.
	Sim SimOptions
	// Failures customizes the path set for a degraded topology: every
	// stage — Step-1 model, load-balance adjustment, Step-2 simulation
	// — sees only surviving paths and zero capacity on dead gear. It
	// must be a mask of the topology being customised.
	Failures *topo.FailureMask
}

// DefaultOptions follows the paper's settings (20 TYPE_2 model
// patterns, 5 simulated, full TYPE_1 set, measurement windows scaled
// down one notch from the paper's 10000 cycles to keep a full
// Algorithm-1 run tractable on a laptop).
func DefaultOptions() Options {
	return Options{
		Seed:        1,
		Type2Model:  20,
		VicinityTol: 0.03,
		VicinityMax: 4,
		Strategic:   true,
		LB:          DefaultLBOptions(),
		Sim: SimOptions{
			Config:     netsim.DefaultConfig(),
			Windows:    sweep.Windows{Warmup: 4000, Measure: 3000, Drain: 6000},
			Patterns:   5,
			Seeds:      1,
			Resolution: 0.02,
		},
	}
}

// validate refuses, naming the field, the values no stage can run with
// on t: a negative count would panic in a make or a slice bound, a
// VicinityTol that is not a finite non-negative number compares false
// against every point and leaves Step 2 no candidate, and a failure
// mask of another topology indexes channels t does not have. step2
// adds what only ComputeTVLB needs: with no simulated pattern every
// score is the mean of nothing.
func (o Options) validate(t *topo.Compiled, step2 bool) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Type2Model", o.Type2Model}, {"Type1Cap", o.Type1Cap}, {"VicinityMax", o.VicinityMax},
		{"Sim.Patterns", o.Sim.Patterns}, {"Sim.Seeds", o.Sim.Seeds},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: Options.%s is %d, want >= 0", f.name, f.v)
		}
	}
	if !(o.VicinityTol >= 0) || math.IsInf(o.VicinityTol, 0) {
		return fmt.Errorf("core: Options.VicinityTol is %v, want a finite value >= 0", o.VicinityTol)
	}
	if o.Failures != nil && o.Failures.Topo() != t {
		return fmt.Errorf("core: Options.Failures was built for a different topology (%s) than %s", o.Failures.Topo().Label(), t.Label())
	}
	if step2 && o.Sim.Patterns == 0 {
		return fmt.Errorf("core: Options.Sim.Patterns is 0, want >= 1: Step 2 would score nothing")
	}
	return nil
}

// QuickOptions is a CI/benchmark-scale configuration.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Type2Model = 4
	o.Type1Cap = 8
	o.VicinityMax = 2
	o.Sim.Windows = sweep.QuickWindows()
	o.Sim.Patterns = 2
	o.Sim.Resolution = 0.05
	return o
}

// ProbePoint is one Step-1 measurement (a bar of Figure 4/5).
type ProbePoint struct {
	Point  DataPoint
	Mean   float64
	StdErr float64
}

// Candidate is one Step-2 configuration with its simulated score.
type Candidate struct {
	Name          string
	Policy        paths.Policy
	RemovedPaths  int
	SimThroughput float64
}

// Result is the full Algorithm-1 output.
type Result struct {
	Topology string
	// Curve is the Step-1 modeled-throughput grid (Figures 4 and 5).
	Curve []ProbePoint
	// Best is the Step-1 winner.
	Best DataPoint
	// Candidates are the Step-2 configurations with simulated
	// saturation throughput (averaged over TYPE_2 patterns).
	Candidates []Candidate
	// BaselineThroughput is conventional UGAL's score under the same
	// Step-2 simulation.
	BaselineThroughput float64
	// Final is the selected T-VLB policy. When ConvergedToUGAL is
	// true it is the conventional full set: T-UGAL == UGAL for this
	// topology.
	Final           paths.Policy
	ConvergedToUGAL bool
}

// modelPatterns builds the Step-1 pattern suite.
func modelPatterns(t *topo.Compiled, opt Options) []traffic.Deterministic {
	pats := traffic.Type1Set(t)
	if opt.Type1Cap > 0 && len(pats) > opt.Type1Cap {
		r := rng.New(rng.Hash64(opt.Seed, 0x717e))
		idx := r.Perm(len(pats))[:opt.Type1Cap]
		sort.Ints(idx)
		sub := make([]traffic.Deterministic, 0, opt.Type1Cap)
		for _, i := range idx {
			sub = append(sub, pats[i])
		}
		pats = sub
	}
	pats = append(pats, traffic.Type2Set(t, opt.Type2Model, rng.Hash64(opt.Seed, 0x72))...)
	return pats
}

// Step1 probes the Table-1 grid with the throughput model and
// returns the curve and the best point (Figures 4 and 5). With
// Step1Repeats > 1 each point is re-probed with fresh random
// subsets and the means are averaged — the paper's optional
// randomization guard.
func Step1(t *topo.Compiled, opt Options) ([]ProbePoint, DataPoint, error) {
	if err := opt.validate(t, false); err != nil {
		return nil, DataPoint{}, err
	}
	return step1(t, opt)
}

// step1StoreMax is the largest full VLB set Step 1 compiles before its
// walk: 2^14 paths, a store of about 110 KB built in about a
// millisecond. dfly(2,4,2,5) (15 480 paths) is under it; the paper's
// topologies are far over it. The walk reads a full store as the
// interpreted set's MIN legs under the store's mask, so compiling first
// only adds the compile. The one reason to compile
// at all is cmd/bench: its quick tier runs step1_g9 on dfly(2,4,2,5),
// and its tests require that workload to report a store compile.
const step1StoreMax = 1 << 14

// step1 is Step1 on validated options.
func step1(t *topo.Compiled, opt Options) ([]ProbePoint, DataPoint, error) {
	pats := modelPatterns(t, opt)
	if len(pats) == 0 {
		return nil, DataPoint{}, fmt.Errorf("core: Type1Cap %d and Type2Model %d leave Step 1 no pattern on %s", opt.Type1Cap, opt.Type2Model, t.Label())
	}
	grid := ProbeGrid()
	repeats := max(opt.Step1Repeats, 1)
	// Every grid policy filters the full VLB set, so one walk of it per
	// demand pair serves all of them (flow.AverageModeledGrid). The walk
	// is the interpreted set under the mask: a suite reads only the
	// pairs its demands name, so compiling every pair's paths first
	// costs more than it saves. Only a set of at most step1StoreMax
	// paths is compiled first; either walk gives the same bits.
	full := paths.Policy(paths.Full{T: t})
	if paths.EstimatePaths(t, full) <= step1StoreMax {
		if st, ok := paths.Compiled(exec.Default(), t, full, opt.Failures); ok {
			full = st
		}
	}
	pols := make([]paths.Policy, 0, repeats*len(grid))
	for rep := 0; rep < repeats; rep++ {
		for _, dp := range grid {
			pols = append(pols, dp.Policy(t, rng.Hash64(opt.Seed, uint64(rep))))
		}
	}
	// means and ses hold every (repeat, point) probe, repeat-major.
	means, ses, err := flow.AverageModeledGrid(t, full, pols, pats, opt.Failures)
	if err != nil {
		return nil, DataPoint{}, fmt.Errorf("core: step 1: %w", err)
	}
	// The best point is picked from the finished curve in grid order,
	// which keeps the result independent of the worker count.
	curve := make([]ProbePoint, len(grid))
	best := grid[len(grid)-1]
	bestMean := -1.0
	for gi, dp := range grid {
		var mean, se float64
		for rep := 0; rep < repeats; rep++ {
			mean += means[rep*len(grid)+gi] / float64(repeats)
			se += ses[rep*len(grid)+gi] / float64(repeats)
		}
		curve[gi] = ProbePoint{Point: dp, Mean: mean, StdErr: se}
		if mean > bestMean {
			bestMean, best = mean, dp
		}
	}
	return curve, best, nil
}

// vicinity selects Step-2 candidate points around the best.
func vicinity(curve []ProbePoint, best DataPoint, opt Options) []DataPoint {
	bestMean := 0.0
	for _, p := range curve {
		if p.Point == best {
			bestMean = p.Mean
		}
	}
	type scored struct {
		dp   DataPoint
		mean float64
	}
	var near []scored
	for _, p := range curve {
		if p.Mean >= bestMean*(1-opt.VicinityTol) {
			near = append(near, scored{p.Point, p.Mean})
		}
	}
	// Prefer the highest-throughput points; break ties toward shorter
	// path sets (the whole point of T-UGAL).
	sort.SliceStable(near, func(i, j int) bool {
		if near[i].mean != near[j].mean {
			return near[i].mean > near[j].mean
		}
		if near[i].dp.MaxHops != near[j].dp.MaxHops {
			return near[i].dp.MaxHops < near[j].dp.MaxHops
		}
		return near[i].dp.Frac < near[j].dp.Frac
	})
	if len(near) > opt.VicinityMax {
		near = near[:opt.VicinityMax]
	}
	out := make([]DataPoint, 0, len(near))
	for _, s := range near {
		out = append(out, s.dp)
	}
	return out
}

// simulateScore runs the Step-2 simulation for one policy: average
// saturation throughput over TYPE_2 patterns under the configured
// UGAL variant (UGAL-L, as a practical deployable scheme). The
// patterns are independent saturation searches and run concurrently
// on the default pool; scores land by pattern index, so the mean is
// identical to the former sequential loop.
func simulateScore(t *topo.Compiled, pol paths.Policy, opt Options) float64 {
	scores := make([]float64, opt.Sim.Patterns)
	pool := exec.Default()
	// Simulate on the compiled form when it fits the budget, so every
	// per-packet draw is a PathID lookup. Rebalanced candidates arrive
	// already compiled (and already degraded when a mask is in play),
	// and so does the conventional baseline whenever the full set fits,
	// and pass through.
	if st, ok := paths.Compiled(pool, t, pol, opt.Failures); ok {
		pol = st
	}
	cfg := opt.Sim.Config
	cfg.Failures = opt.Failures
	pool.Run("tvlb/score", opt.Sim.Patterns, func(i int) int64 {
		patSeed := rng.Hash64(opt.Seed, 0x5e2, uint64(i))
		pf := func(seed uint64) traffic.Pattern {
			return traffic.NewGroupPermutation(t, rng.Hash64(patSeed, seed))
		}
		rf := routing.NewUGALL(t, pol)
		// The label reaches only the pool observer: it is how a search's
		// probe lines and closing tally name the path set they scored.
		rf.Label = rf.Name() + "[" + pol.Name() + "]"
		scores[i] = sweep.SaturationOn(pool, t, cfg, rf, pf,
			opt.Sim.Windows, opt.Sim.Seeds, opt.Sim.Resolution)
		return 0
	})
	return stats.Mean(scores)
}

// ComputeTVLB runs Algorithm 1 for a topology.
func ComputeTVLB(t *topo.Compiled, opt Options) (*Result, error) {
	if err := opt.validate(t, true); err != nil {
		return nil, err
	}
	res := &Result{Topology: t.Label()}

	// Step 1: coarse-grain estimation over the Table-1 grid.
	curve, best, err := step1(t, opt)
	if err != nil {
		return nil, err
	}
	res.Curve, res.Best = curve, best

	// Candidate set: vicinity of the best point. The all-VLB point is
	// the baseline and is not scored again.
	points := vicinity(curve, best, opt)

	// Step 2 expansion: deterministic strategic choices whenever the
	// candidates reach into the 5-hop region.
	type cand struct {
		name string
		pol  paths.Policy
	}
	var cands []cand
	touches5 := false
	for _, dp := range points {
		if (dp.MaxHops == 4 && dp.Frac > 0) || dp.MaxHops == 5 || dp.IsAll() {
			touches5 = true
		}
		if !dp.IsAll() {
			cands = append(cands, cand{dp.String(), dp.Policy(t, opt.Seed)})
		}
	}
	if opt.Strategic && touches5 {
		cands = append(cands,
			cand{"strategic 2+3", paths.Strategic{T: t, FirstLeg: 2}},
			cand{"strategic 3+2", paths.Strategic{T: t, FirstLeg: 3}},
		)
	}

	// One task per candidate: load-balance adjustment, then its score.
	// Every candidate is a subset of the full VLB set in its order, so on
	// the full store, compiled here once Step 1 is done with its walks
	// when the topology fits the budget, it is a drop mask over the
	// stored paths: membership, adjustment and one copy of the kept
	// offsets, with no enumeration and no copy before the adjustment.
	// The candidates are independent and run concurrently on the
	// default pool, written by index so the reported order (and the
	// winner of score ties below) is stable. One immutable edge space
	// serves them all.
	//
	// The conventional UGAL baseline is scored beside them (task 0),
	// under the same simulation and on the same store when there is one
	// (same policy, same mask): a saturation search that finds the pool
	// busy is one chain of probes, each run only once the one before has
	// answered (see sweep), so it keeps a single worker busy, and a worker
	// that finishes a candidate claims the next.
	lb := opt.LB
	if lb.Seed == 0 {
		lb.Seed = rng.Hash64(opt.Seed, 0x1b)
	}
	res.Candidates = make([]Candidate, len(cands))
	pool := exec.Default()
	base, _ := paths.Compiled(pool, t, paths.Full{T: t}, opt.Failures) // nil over the budget
	net := flow.NewDegradedNetwork(t, opt.Failures)
	// Each task takes the full store, the call's largest object, from a
	// slot of its own, so it is garbage once the baseline is scored and
	// the last candidate cut out of it, while others still simulate.
	bases := make([]*paths.Store, 1+len(cands))
	for i := range bases {
		bases[i] = base
	}
	pool.Run("tvlb/candidates", len(bases), func(i int) int64 {
		base := bases[i]
		bases[i] = nil
		if i == 0 {
			baseline := paths.Policy(paths.Full{T: t})
			if base != nil {
				baseline = base
			}
			res.BaselineThroughput = simulateScore(t, baseline, opt)
			return 0
		}
		i--
		c := cands[i]
		var adj paths.Policy
		var rep BalanceReport
		if base != nil {
			drop := base.DropMask(c.pol)
			if lb.Enabled {
				drop, rep = rebalance(net, base, drop, lb)
			}
			adj = base.Without(drop)
		} else {
			adj, rep = RebalanceOn(net, c.pol, lb)
		}
		adj = paths.SetLabel(adj, "T-VLB("+c.name+")")
		res.Candidates[i] = Candidate{
			Name:          c.name,
			Policy:        adj,
			RemovedPaths:  rep.LocalRemoved + rep.GlobalRemoved,
			SimThroughput: simulateScore(t, adj, opt),
		}
		return 0
	})

	// Select the winner. A candidate matching the baseline wins the
	// tie (the custom set is shorter at equal performance); the
	// baseline wins only when it is strictly better than every
	// candidate — then T-UGAL converges to UGAL, as on topologies
	// with one link per group pair, where Step 1 already ranks the
	// all-VLB point on top.
	bestScore := res.BaselineThroughput
	res.Final = paths.Policy(paths.Full{T: t})
	res.ConvergedToUGAL = true
	for _, c := range res.Candidates {
		if c.SimThroughput >= bestScore && c.SimThroughput > 0 {
			bestScore = c.SimThroughput
			res.Final = c.Policy
			res.ConvergedToUGAL = false
		}
	}
	return res, nil
}

// FinalName describes the chosen policy.
func (r *Result) FinalName() string {
	if r.ConvergedToUGAL {
		return "all VLB (T-UGAL converges to UGAL)"
	}
	return r.Final.Name()
}
