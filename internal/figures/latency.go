package figures

import (
	"fmt"
	"strings"

	"tugal/internal/core"
	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/spec"
	"tugal/internal/sweep"
)

// Figures 6-18 are latency-vs-offered-load sweeps, and each is a list
// of spec.Experiment values stating what the paper states: topology,
// pattern, schemes, the paper's load grid and the Table 3 parameter
// the figure varies. Figures 6-14 are one experiment; a sensitivity
// figure (15-18) is one per parameter setting, named by the setting,
// which is appended to its curves' names. The paper's common
// observation there — the T- variant outperforms its counterpart under
// every setting — is the property those figures exhibit. experiments
// adds what Options decide; the suite JSON of the result, run by
// cmd/experiment, gives the same curves (TestFigureIsASuite).

const g9, g17, sw702 = "dfly(4,8,4,9)", "dfly(4,8,4,17)", "dfly(13,26,13,27)"

var (
	localPAR = []string{"ugal-l", "t-ugal-l", "par", "t-par"}
	global   = []string{"ugal-g", "t-ugal-g"}
	local    = []string{"ugal-l", "t-ugal-l"}
	par      = []string{"par", "t-par"}
	all      = []string{"ugal-l", "t-ugal-l", "par", "t-par", "ugal-g", "t-ugal-g"}

	// largeRates: the dfly(13,26,13,27) figures have their own thinning.
	largeRates = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	rates15    = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	rates16    = []float64{0.1, 0.2, 0.3, 0.35, 0.4, 0.45}
	rates17    = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35}

	fig6  = []spec.Experiment{{Topology: g9, Pattern: "shift:2:0", Routing: localPAR, Rates: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}}}
	fig7  = []spec.Experiment{{Topology: g9, Pattern: "shift:2:0", Routing: global, Rates: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35}}}
	fig8  = []spec.Experiment{{Topology: g9, Pattern: "perm", Routing: localPAR, Rates: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75}}}
	fig9  = []spec.Experiment{{Topology: g9, Pattern: "perm", Routing: global, Rates: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7}}}
	fig10 = []spec.Experiment{{Topology: g17, Pattern: "mixed:75", Routing: localPAR, Rates: []float64{0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55}}}
	fig11 = []spec.Experiment{{Topology: g17, Pattern: "mixed:25", Routing: localPAR, Rates: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35}}}
	fig12 = []spec.Experiment{{Topology: g17, Pattern: "tmixed:50", Routing: localPAR, Rates: []float64{0.05, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45}}}
	fig13 = []spec.Experiment{{Topology: sw702, Pattern: "shift:1:0", Routing: all, Rates: largeRates}}
	fig14 = []spec.Experiment{{Topology: sw702, Pattern: "mixed:50", Routing: all, Rates: largeRates}}
	// Link latency: the default (10,15) against long cables, UGAL-G on
	// random permutation.
	fig15 = []spec.Experiment{
		{Name: "10,15", Topology: g17, Pattern: "perm", Routing: global, Rates: rates15},
		{Name: "40,60", Topology: g17, Pattern: "perm", Routing: global, Rates: rates15, LocalLatency: 40, GlobalLatency: 60},
	}
	// Buffer length {8, 32}, UGAL-L on MIXED(50,50).
	fig16 = []spec.Experiment{
		{Name: "8", Topology: g17, Pattern: "mixed:50", Routing: local, Rates: rates16, Buffer: 8},
		{Name: "32", Topology: g17, Pattern: "mixed:50", Routing: local, Rates: rates16},
	}
	// Router internal speedup {1, 2}, PAR on MIXED(25,75).
	fig17 = []spec.Experiment{
		{Name: "1", Topology: g17, Pattern: "mixed:25", Routing: par, Rates: rates17, Speedup: 1},
		{Name: "2", Topology: g17, Pattern: "mixed:25", Routing: par, Rates: rates17},
	}
	// VC allocation: the 4-VC phase scheme against the 6-VC
	// new-VC-every-hop scheme (routing.HopCountVC, which runSim sets),
	// UGAL-G on shift(1,0).
	fig18 = []spec.Experiment{
		{Name: "4", Topology: g9, Pattern: "shift:1:0", Routing: global, Rates: rates17, VCs: 4},
		{Name: "6", Topology: g9, Pattern: "shift:1:0", Routing: global, Rates: rates17, VCs: 6},
	}
)

// experiments returns figure id's experiments at opt's scale: the
// windows, the thinned load grid, seeds and shards, the figure id in
// front of the name, and the T-VLB policy — the paper's Algorithm-1
// outcome for these topologies is the strategic 2-hop+3-hop choice.
func experiments(id string, opt Options) []spec.Experiment {
	out := make([]spec.Experiment, len(registry[id].sim))
	for i, e := range registry[id].sim {
		large := e.Topology == sw702
		w := opt.windows(large)
		e.Warmup, e.Measure, e.Drain = w.Warmup, w.Measure, w.Drain
		switch {
		case !large:
			e.Rates = demoRates(opt, e.Rates)
		case opt.Scale == ScaleBench:
			e.Rates = []float64{0.1, 0.4}
		case opt.Scale == ScaleDemo:
			e.Rates = []float64{0.1, 0.3, 0.5}
		}
		e.Name = strings.TrimSuffix(id+"("+e.Name+")", "()")
		e.Policy = "strategic:2"
		e.Seed, e.Seeds, e.Shards = opt.Seed, opt.Seeds, opt.Shards
		out[i] = e
	}
	return out
}

// runSim resolves and runs figure id's experiments concurrently on the
// default pool; their curves land in table order. The two things the
// suite grammar cannot say are set on the resolved value: Figure 18's
// six VCs are routing.HopCountVC, and at paper scale the T-VLB set is
// the strategic set after Algorithm 1's load-balance adjustment (a
// whole-topology pass, skipped at demo and bench scale; cmd/tvlb runs
// the full pipeline from scratch).
func runSim(id string, opt Options) (*Result, error) {
	pool := exec.Default()
	exps := experiments(id, opt)
	curves := make([][]sweep.Curve, len(exps))
	errs := make([]error, len(exps))
	pool.Run("figure/"+id, len(exps), func(i int) int64 {
		r, err := exps[i].Resolve(pool)
		if err != nil {
			errs[i] = err
			return 0
		}
		var balanced paths.Policy
		for _, en := range r.Entries {
			u := en.Routing.(*routing.UGAL)
			if id == "fig18" && exps[i].VCs == 6 {
				u.Scheme = routing.HopCountVC
			}
			if opt.Scale == ScalePaper && strings.HasPrefix(u.Label, "T-") {
				if balanced == nil {
					lb := core.DefaultLBOptions()
					lb.Seed = opt.Seed
					balanced, _ = core.Rebalance(r.T, u.Policy, lb)
					paths.SetLabel(balanced, "T-VLB(strategic 2+3)")
				}
				u.Policy = balanced
			}
		}
		curves[i] = r.Run(pool).Curves
		for j := range curves[i] {
			curves[i][j].Name += strings.TrimPrefix(exps[i].Name, id) // "(setting)", or nothing
		}
		return 0
	})
	res := &Result{Header: []string{"scheme", "saturation-throughput", "latency@low-load"}}
	for i, cs := range curves {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, c := range cs {
			res.Series = append(res.Series, c)
			res.Rows = append(res.Rows, []string{
				c.Name,
				fmt.Sprintf("%.3f", c.SaturationThroughput()),
				fmt.Sprintf("%.1f", c.Points[0].Latency),
			})
		}
	}
	return res, nil
}
