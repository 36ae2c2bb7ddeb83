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

	"tugal/internal/spec"
	"tugal/internal/sweep"
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

// Result is a regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Series []sweep.Curve
}

// runner produces a Result.
type runner func(Options) (*Result, error)

// registry holds every table and figure: tables and the Step-1 curves
// have a runner; Figures 6-18 are a list of spec.Experiment values (see
// latency.go) that Run scales and runs.
var registry = map[string]struct {
	title string
	run   runner
	sim   []spec.Experiment
}{
	"table1": {title: "Table 1: coarse-grain probe grid", run: runTable1},
	"table2": {title: "Table 2: topologies used in the experiments", run: runTable2},
	"table3": {title: "Table 3: default network parameters", run: runTable3},
	"fig4":   {title: "Figure 4: Step-1 modeled throughput, dfly(4,8,4,9)", run: runFig4},
	"fig5":   {title: "Figure 5: Step-1 modeled throughput, dfly(4,8,4,33)", run: runFig5},
	"fig6":   {title: "Figure 6: shift(2,0) latency, UGAL-L/PAR, dfly(4,8,4,9)", sim: fig6},
	"fig7":   {title: "Figure 7: shift(2,0) latency, UGAL-G, dfly(4,8,4,9)", sim: fig7},
	"fig8":   {title: "Figure 8: random permutation, UGAL-L/PAR, dfly(4,8,4,9)", sim: fig8},
	"fig9":   {title: "Figure 9: random permutation, UGAL-G, dfly(4,8,4,9)", sim: fig9},
	"fig10":  {title: "Figure 10: MIXED(75,25), UGAL-L/PAR, dfly(4,8,4,17)", sim: fig10},
	"fig11":  {title: "Figure 11: MIXED(25,75), UGAL-L/PAR, dfly(4,8,4,17)", sim: fig11},
	"fig12":  {title: "Figure 12: TMIXED(50,50), UGAL-L/PAR, dfly(4,8,4,17)", sim: fig12},
	"fig13":  {title: "Figure 13: shift(1,0), all schemes, dfly(13,26,13,27)", sim: fig13},
	"fig14":  {title: "Figure 14: MIXED(50,50), all schemes, dfly(13,26,13,27)", sim: fig14},
	"fig15":  {title: "Figure 15: link-latency sensitivity, UGAL-G, dfly(4,8,4,17)", sim: fig15},
	"fig16":  {title: "Figure 16: buffer-length sensitivity, UGAL-L, dfly(4,8,4,17)", sim: fig16},
	"fig17":  {title: "Figure 17: speedup sensitivity, PAR, dfly(4,8,4,17)", sim: fig17},
	"fig18":  {title: "Figure 18: VC-scheme sensitivity, UGAL-G, dfly(4,8,4,9)", sim: fig18},
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
	var res *Result
	var err error
	if r.run != nil {
		res, err = r.run(opt)
	} else {
		res, err = runSim(id, opt)
	}
	if err != nil {
		return nil, err
	}
	res.ID, res.Title = id, r.title
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
