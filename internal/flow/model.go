package flow

import (
	"time"

	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/stats"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// ModelThroughput runs the behavioural UGAL throughput model for one
// deterministic pattern under a path policy and returns the modeled
// saturation throughput (packets/cycle/node): the pattern's loads
// folded by a one-policy walk (the policy's own paths under
// paths.Full) and solved under one shared MIN/VLB split. fail, when
// non-nil, degrades the modeled network: dead channels get zero
// capacity and only surviving paths are candidates (a compiled Store
// must already be degraded under it).
func ModelThroughput(t *topo.Compiled, pol paths.Policy, pat traffic.Deterministic, fail *topo.FailureMask) Result {
	demands := traffic.SwitchDemands(t, pat)
	if len(demands) == 0 {
		return idle(t)
	}
	g, _ := NewGridWalk(NewDegradedNetwork(t, fail), pol, []paths.Policy{paths.Full{T: t}}) // Full is stated by hop count
	return g.Fold(demands)[0].Solve()
}

// idle is the model's answer for a pattern that crosses no switch:
// the terminal links are the only limit.
func idle(t *topo.Compiled) Result { return Result{Alpha: float64(t.P), SplitMin: 1} }

// AverageModeledGrid returns, for every policy of pols, the mean and
// standard error of the modeled throughput over pats — the
// per-data-point quantity of the paper's Figures 4 and 5 — under the
// failure mask fail (nil for the pristine network). pols are stated by
// hop count over base (NewGridWalk); Step 1's Table-1 grid over the full
// VLB set is the caller. The work is turned inside out: one pool task
// per pattern, and in it one walk per demand pair folding every
// policy's sums (GridWalk), then the policies' solves on those sums
// before the task moves on. Nothing pair-indexed outlives a task,
// because nothing would be read twice: a Step-1 suite puts its demands
// on nearly as many distinct pairs (1152 on 1099 for 16 patterns of
// dfly(4,8,4,9), 6048 on 4608 for the paper's 84), while one pair's
// paths are read by every policy. Alphas land by (policy, pattern)
// index and each policy's mean and standard error are taken in pattern
// order, so both are bit-identical at any worker count.
//
// The pool observer sees, per pattern, its task grid/<base> and inside
// it loadgrid/<base> (wall spent reading the pairs from their MIN legs,
// MIN rows included), loadmatrix/<base> (wall spent folding them into
// the policies' sums) and one model/<policy> per solve.
func AverageModeledGrid(t *topo.Compiled, base paths.Policy, pols []paths.Policy, pats []traffic.Deterministic, fail *topo.FailureMask) (means, stderrs []float64, err error) {
	pool := exec.Default()
	net := NewDegradedNetwork(t, fail)
	first, err := NewGridWalk(net, base, pols)
	if err != nil {
		return nil, nil, err
	}
	// A walk's scratch and sums go from one pattern to the next a
	// worker takes, and no further: the free list dies with this call,
	// where a sync.Pool would keep them reachable for two more
	// collections, whenever those come.
	walks := make(chan *GridWalk, pool.Workers())
	walks <- first
	np := len(pats)
	alphas := make([]float64, len(pols)*np) // policy-major
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
		aggs := g.Fold(demands)
		pool.Report(exec.Stat{Label: "loadgrid/" + base.Name(), Index: i, Wall: g.Decode})
		pool.Report(exec.Stat{Label: "loadmatrix/" + base.Name(), Index: i, Wall: g.Derive})
		for k := range aggs {
			start := time.Now()
			alphas[k*np+i] = aggs[k].Solve().Alpha
			pool.Report(exec.Stat{Label: "model/" + pols[k].Name(), Index: i, Wall: time.Since(start)})
		}
		return 0
	})
	means, stderrs = make([]float64, len(pols)), make([]float64, len(pols))
	for k := range pols {
		means[k], stderrs[k] = stats.MeanErr(alphas[k*np : (k+1)*np])
	}
	return means, stderrs, nil
}
