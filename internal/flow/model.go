package flow

import (
	"fmt"
	"time"

	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/stats"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// ModelOptions selects the estimator and solver for the throughput
// model.
type ModelOptions struct {
	// Loads controls per-demand load estimation.
	Loads LoadOptions
	// Exact switches from the symmetric single-split solver to the
	// per-demand-split LP (slower, tighter).
	Exact bool
	// Failures degrades the modeled network: dead channels get zero
	// capacity and candidate enumeration is restricted to surviving
	// paths.
	Failures *topo.FailureMask
}

// solve runs the solver opt selects on one pattern's loads; agg is the
// symmetric solver's scratch, refolded here.
func (opt ModelOptions) solve(agg *Aggregate, dl *DemandLoads) (Result, error) {
	if opt.Exact {
		return SolveLP(dl)
	}
	agg.From(dl)
	return agg.Solve(), nil
}

// DefaultModelOptions enumerates candidate sets exactly and uses the
// symmetric solver — the configuration used for the Table-1 probe on
// the paper's small/medium topologies.
func DefaultModelOptions() ModelOptions {
	return ModelOptions{Loads: LoadOptions{Enumerate: true}}
}

// ModelThroughput runs the behavioural UGAL throughput model for one
// deterministic pattern under a path policy and returns the modeled
// saturation throughput (packets/cycle/node).
func ModelThroughput(t *topo.Compiled, pol paths.Policy, pat traffic.Deterministic, opt ModelOptions) (Result, error) {
	net := NewDegradedNetwork(t, opt.Failures)
	demands := traffic.SwitchDemands(t, pat)
	if len(demands) == 0 {
		return idle(t), nil
	}
	return opt.solve(new(Aggregate), ComputeLoads(net, pol, demands, opt.Loads))
}

// idle is the model's answer for a pattern that crosses no switch:
// the terminal links are the only limit.
func idle(t *topo.Compiled) Result { return Result{Alpha: float64(t.P), SplitMin: 1} }

// AverageModeled returns the mean and standard error of the modeled
// throughput over a set of patterns — the per-data-point quantity of
// the paper's Figures 4 and 5 — building every demand's rows per
// pattern (ComputeLoads). The patterns fan out on the shared worker
// pool — token-aware like every other fan-out in the repository — with
// per-pattern results written by index, so the mean and standard error
// are bit-identical to the sequential loop at any worker count.
func AverageModeled(t *topo.Compiled, pol paths.Policy, pats []traffic.Deterministic, opt ModelOptions) (mean, stderr float64, err error) {
	pool := exec.Default()
	vals := make([]float64, len(pats))
	errs := make([]error, len(pats))
	pool.Run("model/"+pol.Name(), len(pats), func(i int) int64 {
		res, e := ModelThroughput(t, pol, pats[i], opt)
		vals[i], errs[i] = res.Alpha, e
		return 0
	})
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	m, se := stats.MeanErr(vals)
	return m, se, nil
}

// AverageModeledGrid is AverageModeled, with exact loads, for every
// policy of pols at once: means[k] and stderrs[k] are bit for bit what
// AverageModeled(t, pols[k], pats, opt) returns. pols are keyed filters
// over base (NewGridWalk); Step 1's Table-1 grid over the full VLB set
// is the caller. The work is turned inside out: one pool task per
// pattern, and in it one walk per demand pair serving every policy
// (GridWalk), then the policies' solves on those rows before the task
// moves on. Nothing pair-indexed outlives a task, because nothing would
// be read twice: a Step-1 suite puts its demands on nearly as many
// distinct pairs (1152 on 1099 for 16 patterns of dfly(4,8,4,9), 6048
// on 4608 for the paper's 84), while one pair's paths are read by every
// policy. Alphas land by (policy, pattern) index and each policy's
// mean and standard error are taken in pattern order.
//
// The pool observer sees, per pattern, its task grid/<base> and inside
// it loadgrid/<base> (wall spent listing and decoding the pairs),
// loadmatrix/<base> (wall spent deriving the policies' rows, and the
// rows' size) and one model/<policy> per solve.
func AverageModeledGrid(t *topo.Compiled, base paths.Policy, pols []paths.Policy, pats []traffic.Deterministic, opt ModelOptions) (means, stderrs []float64, err error) {
	pool := exec.Default()
	net := NewDegradedNetwork(t, opt.Failures)
	first, err := NewGridWalk(net, base, pols)
	if err != nil {
		return nil, nil, err
	}
	// A walk's scratch and row arena go from one pattern to the next a
	// worker takes, and no further: the free list dies with this call,
	// where a sync.Pool would keep the arenas reachable for two more
	// collections, whenever those come.
	walks := make(chan *GridWalk, pool.Workers())
	walks <- first
	np := len(pats)
	alphas := make([]float64, len(pols)*np) // policy-major
	errs := make([]error, len(alphas))
	pool.Run("grid/"+base.Name(), np, func(i int) int64 {
		demands := traffic.SwitchDemands(t, pats[i])
		if len(demands) == 0 {
			for k := range pols {
				alphas[k*np+i] = idle(t).Alpha
			}
			return 0
		}
		// At most Workers() tasks run at once, so at most that many
		// walks exist and the send finds room.
		var g *GridWalk
		select {
		case g = <-walks:
		default:
			g, _ = NewGridWalk(net, base, pols) // refused above if ever
		}
		defer func() { walks <- g }()
		loads := g.Loads(demands)
		pool.Report(exec.Stat{Label: "loadgrid/" + base.Name(), Index: i, Wall: g.Decode})
		pool.Report(exec.Stat{Label: "loadmatrix/" + base.Name(), Index: i, Wall: g.Derive, Bytes: g.RowBytes()})
		var agg Aggregate
		for k, dl := range loads {
			start := time.Now()
			res, e := opt.solve(&agg, dl)
			alphas[k*np+i], errs[k*np+i] = res.Alpha, e
			pool.Report(exec.Stat{Label: "model/" + pols[k].Name(), Index: i, Wall: time.Since(start)})
		}
		return 0
	})
	means, stderrs = make([]float64, len(pols)), make([]float64, len(pols))
	for k, pol := range pols {
		for i, e := range errs[k*np : (k+1)*np] {
			if e != nil {
				return nil, nil, fmt.Errorf("flow: %s under %s: %w", pats[i].Name(), pol.Name(), e)
			}
		}
		means[k], stderrs[k] = stats.MeanErr(alphas[k*np : (k+1)*np])
	}
	return means, stderrs, nil
}
