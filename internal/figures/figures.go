// Package figures defines one runnable experiment per table and
// figure of the paper's evaluation (§4), each emitting the same rows
// or series the paper reports. The cmd/figures binary and the
// repository benchmarks are thin wrappers around this package.
//
// Every experiment supports two scales: ScalePaper uses the paper's
// simulation windows (3x10000 warmup, 10000 measurement) and full
// pattern suites; ScaleDemo shrinks windows and grids so the whole
// suite runs in minutes. Absolute numbers shift with scale; the
// paper's qualitative shape (who wins, roughly by how much, where
// T-UGAL converges with UGAL) is preserved and recorded in
// EXPERIMENTS.md.
package figures

import (
	"fmt"
	"sort"
	"sync"

	"tugal/internal/core"
	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/sweep"
	"tugal/internal/topo"
)

// Scale selects experiment fidelity.
type Scale int

// Scales.
const (
	// ScaleDemo runs minutes-scale reductions.
	ScaleDemo Scale = iota
	// ScalePaper runs the paper's full settings.
	ScalePaper
	// ScaleBench runs seconds-scale reductions for the benchmark
	// harness: shortest windows, two or three load points.
	ScaleBench
)

// Options configures a figure run.
type Options struct {
	Scale Scale
	Seed  uint64
	// Seeds is the number of simulation seeds averaged per point.
	Seeds int
	// Shards is the simulator's intra-run shard count for every run
	// of the figure (0/1 = one shard; see netsim.Config.Shards).
	// Results are bit-identical for any value.
	Shards int
}

// DefaultOptions returns demo-scale settings.
func DefaultOptions() Options { return Options{Scale: ScaleDemo, Seed: 1, Seeds: 1} }

func (o Options) windows(large bool) sweep.Windows {
	switch {
	case o.Scale == ScalePaper:
		return sweep.PaperWindows()
	case o.Scale == ScaleBench && large:
		return sweep.Windows{Warmup: 500, Measure: 300, Drain: 600}
	case o.Scale == ScaleBench:
		return sweep.Windows{Warmup: 1200, Measure: 800, Drain: 1600}
	case large:
		return sweep.Windows{Warmup: 1200, Measure: 800, Drain: 1600}
	default:
		return sweep.QuickWindows()
	}
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []sweep.Point
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Series []Series
}

// runner produces a Result.
type runner func(Options) (*Result, error)

var registry = map[string]struct {
	title string
	run   runner
}{
	"table1": {"Table 1: coarse-grain probe grid", runTable1},
	"table2": {"Table 2: topologies used in the experiments", runTable2},
	"table3": {"Table 3: default network parameters", runTable3},
	"fig4":   {"Figure 4: Step-1 modeled throughput, dfly(4,8,4,9)", runFig4},
	"fig5":   {"Figure 5: Step-1 modeled throughput, dfly(4,8,4,33)", runFig5},
	"fig6":   {"Figure 6: shift(2,0) latency, UGAL-L/PAR, dfly(4,8,4,9)", runFig6},
	"fig7":   {"Figure 7: shift(2,0) latency, UGAL-G, dfly(4,8,4,9)", runFig7},
	"fig8":   {"Figure 8: random permutation, UGAL-L/PAR, dfly(4,8,4,9)", runFig8},
	"fig9":   {"Figure 9: random permutation, UGAL-G, dfly(4,8,4,9)", runFig9},
	"fig10":  {"Figure 10: MIXED(75,25), UGAL-L/PAR, dfly(4,8,4,17)", runFig10},
	"fig11":  {"Figure 11: MIXED(25,75), UGAL-L/PAR, dfly(4,8,4,17)", runFig11},
	"fig12":  {"Figure 12: TMIXED(50,50), UGAL-L/PAR, dfly(4,8,4,17)", runFig12},
	"fig13":  {"Figure 13: shift(1,0), all schemes, dfly(13,26,13,27)", runFig13},
	"fig14":  {"Figure 14: MIXED(50,50), all schemes, dfly(13,26,13,27)", runFig14},
	"fig15":  {"Figure 15: link-latency sensitivity, UGAL-G, dfly(4,8,4,17)", runFig15},
	"fig16":  {"Figure 16: buffer-length sensitivity, UGAL-L, dfly(4,8,4,17)", runFig16},
	"fig17":  {"Figure 17: speedup sensitivity, PAR, dfly(4,8,4,17)", runFig17},
	"fig18":  {"Figure 18: VC-scheme sensitivity, UGAL-G, dfly(4,8,4,9)", runFig18},
}

// All lists the experiment ids in canonical order.
func All() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// tables first, then figures by number.
		ti, tj := ids[i][0] == 't', ids[j][0] == 't'
		if ti != tj {
			return ti
		}
		var ni, nj int
		fmt.Sscanf(ids[i], "table%d", &ni)
		fmt.Sscanf(ids[j], "table%d", &nj)
		if !ti {
			fmt.Sscanf(ids[i], "fig%d", &ni)
			fmt.Sscanf(ids[j], "fig%d", &nj)
		}
		return ni < nj
	})
	return ids
}

// Run executes one experiment by id.
func Run(id string, opt Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("figures: unknown experiment %q (have %v)", id, All())
	}
	if opt.Seeds < 1 {
		opt.Seeds = 1
	}
	res, err := r.run(opt)
	if err != nil {
		return nil, err
	}
	res.ID, res.Title = id, r.title
	return res, nil
}

// tvlbPolicy returns the T-VLB path policy used by the T- schemes in
// the simulation figures. The paper's Algorithm-1 outcome for these
// topologies is the strategic 2-hop+3-hop choice with load-balance
// adjustment; at demo/bench scale the adjustment (a whole-topology
// enumeration pass) is skipped, at paper scale it runs with the
// default options and is cached per topology. cmd/tvlb recomputes
// the full pipeline from scratch.
func tvlbPolicy(t *topo.Compiled, opt Options) paths.Policy {
	base := paths.Strategic{T: t, FirstLeg: 2}
	if opt.Scale != ScalePaper {
		return base
	}
	key := tvlbKey{params: t.Label(), seed: opt.Seed}
	tvlbCacheMu.Lock()
	defer tvlbCacheMu.Unlock()
	if pol, ok := tvlbCache[key]; ok {
		return pol
	}
	lb := core.DefaultLBOptions()
	lb.Seed = opt.Seed
	adj, _ := core.Rebalance(t, base, lb)
	adj = paths.SetLabel(adj, "T-VLB(strategic 2+3)")
	tvlbCache[key] = adj
	return adj
}

type tvlbKey struct {
	params string
	seed   uint64
}

var (
	tvlbCacheMu sync.Mutex
	tvlbCache   = map[tvlbKey]paths.Policy{}
)

// scheme bundles a routing function with its VC requirement.
type scheme struct {
	rf  netsim.RoutingFunc
	vcs int
}

// storeCache holds compiled path stores shared across figures: the
// same conventional set backs fig6-9 and fig18, and stores are
// immutable, so one compile per (topology, policy) serves every
// scheme and every worker. Keying by policy name is sound here
// because the only cached policies are Full and Strategic, whose
// names determine their sets given the topology.
var (
	storeCacheMu sync.Mutex
	storeCache   = map[storeKey]paths.Policy{}
)

type storeKey struct {
	params string
	name   string
}

// compiled returns the store-backed form of pol when it fits the
// compile budget (reporting build time and arena bytes to the pool
// observer on a fresh compile), or pol itself when it does not —
// the Figure 13/14 topology stays interpreted by design.
func compiled(t *topo.Compiled, pol paths.Policy) paths.Policy {
	if _, already := pol.(*paths.Store); already {
		return pol
	}
	key := storeKey{params: t.Label(), name: pol.Name()}
	storeCacheMu.Lock()
	defer storeCacheMu.Unlock()
	if st, ok := storeCache[key]; ok {
		return st
	}
	st, ok := paths.Compiled(exec.Default(), t, pol, nil)
	if !ok {
		return pol
	}
	storeCache[key] = st
	return st
}

// mkSchemes builds the requested conventional/T pairs. Both policies
// are compiled once (when within budget) and shared read-only by
// every scheme and cloned run on the pool.
func mkSchemes(t *topo.Compiled, opt Options, which ...string) []scheme {
	tp := compiled(t, tvlbPolicy(t, opt))
	full := compiled(t, paths.Full{T: t})
	out := make([]scheme, 0, len(which))
	for _, w := range which {
		switch w {
		case "UGAL-L":
			out = append(out, scheme{routing.NewUGALL(t, full), 4})
		case "T-UGAL-L":
			r := routing.NewUGALL(t, tp)
			r.Label = "T-UGAL-L"
			out = append(out, scheme{r, 4})
		case "UGAL-G":
			out = append(out, scheme{routing.NewUGALG(t, full), 4})
		case "T-UGAL-G":
			r := routing.NewUGALG(t, tp)
			r.Label = "T-UGAL-G"
			out = append(out, scheme{r, 4})
		case "PAR":
			out = append(out, scheme{routing.NewPAR(t, full), 5})
		case "T-PAR":
			r := routing.NewPAR(t, tp)
			r.Label = "T-PAR"
			out = append(out, scheme{r, 5})
		case "MIN":
			out = append(out, scheme{routing.NewMin(t), 4})
		default:
			panic("figures: unknown scheme " + w)
		}
	}
	return out
}

// latencyFigure sweeps each scheme over the rates for a pattern. The
// per-scheme curves run concurrently on the default pool and land in
// a slice by index, so series order (and content) matches the former
// sequential loop exactly.
func latencyFigure(t *topo.Compiled, opt Options, pf sweep.PatternFactory,
	rates []float64, large bool, which ...string) (*Result, error) {
	res := &Result{}
	w := opt.windows(large)
	schemes := mkSchemes(t, opt, which...)
	curves := make([]sweep.Curve, len(schemes))
	pool := exec.Default()
	pool.Run("figure/latency", len(schemes), func(i int) int64 {
		cfg := netsim.DefaultConfig()
		cfg.NumVCs = schemes[i].vcs
		cfg.Seed = opt.Seed
		cfg.Shards = opt.Shards
		curves[i] = sweep.LatencyCurveOn(pool, t, cfg, schemes[i].rf, pf, rates, w, opt.Seeds)
		return 0
	})
	for _, c := range curves {
		res.Series = append(res.Series, Series{Name: c.Name, Points: c.Points})
	}
	res.Header = []string{"scheme", "saturation-throughput", "latency@low-load"}
	for _, s := range res.Series {
		c := sweep.Curve{Name: s.Name, Points: s.Points}
		res.Rows = append(res.Rows, []string{
			s.Name,
			fmt.Sprintf("%.3f", c.SaturationThroughput()),
			fmt.Sprintf("%.1f", s.Points[0].Latency),
		})
	}
	return res, nil
}

// demoRates thins a rate grid at demo/bench scale.
func demoRates(opt Options, full []float64) []float64 {
	switch opt.Scale {
	case ScalePaper:
		return full
	case ScaleBench:
		return []float64{full[0], full[len(full)/2], full[len(full)-1]}
	default:
		out := make([]float64, 0, (len(full)+1)/2)
		for i := 0; i < len(full); i += 2 {
			out = append(out, full[i])
		}
		return out
	}
}
