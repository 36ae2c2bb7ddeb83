package flow

import (
	"slices"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/traffic"
)

// EdgeWeight is one entry of a sparse per-unit load vector.
type EdgeWeight struct {
	E Edge
	W float64
}

// SparseVec is a sparse expected-crossings-per-unit-of-traffic vector
// over edges, sorted by edge id.
type SparseVec []EdgeWeight

// LoadOptions controls how per-demand load vectors are estimated.
type LoadOptions struct {
	// Enumerate uses the exact candidate distribution via
	// Policy.Enumerate. When false, loads are Monte-Carlo estimated
	// with Samples draws per demand — the scalable mode for
	// topologies like dfly(13,26,13,27) where enumeration is
	// impractical.
	Enumerate bool
	// Samples per demand in Monte-Carlo mode (default 2048).
	Samples int
	// Seed for Monte-Carlo mode.
	Seed uint64
}

// DemandLoads holds, for every demand of a pattern, the expected
// per-unit edge crossings when routed MIN and when routed VLB under
// a given policy, plus average hop counts for reporting.
type DemandLoads struct {
	Net     *Network
	Demands []traffic.Demand
	Min     []SparseVec
	Vlb     []SparseVec
	// VlbOK[i] is false when the pair has no candidate VLB path
	// (its traffic is all-MIN regardless of the adaptive split).
	VlbOK []bool
	// MinHops and VlbHops are candidate-weighted average hop counts.
	MinHops []float64
	VlbHops []float64
}

// ComputeLoads builds the load vectors of all demands under pol.
func ComputeLoads(net *Network, pol paths.Policy, demands []traffic.Demand, opt LoadOptions) *DemandLoads {
	if opt.Samples <= 0 {
		opt.Samples = 2048
	}
	dl := &DemandLoads{
		Net:     net,
		Demands: demands,
		Min:     make([]SparseVec, len(demands)),
		Vlb:     make([]SparseVec, len(demands)),
		VlbOK:   make([]bool, len(demands)),
		MinHops: make([]float64, len(demands)),
		VlbHops: make([]float64, len(demands)),
	}
	r := rng.New(opt.Seed)
	re := newRowEnv(net, pol)
	for i, d := range demands {
		s, t := int(d.Src), int(d.Dst)
		// MIN candidates are always enumerated exactly: there are at
		// most K of them. A pair with none surviving yields an empty row
		// (the solvers treat such a demand as VLB-only or unservable).
		dl.Min[i], dl.MinHops[i] = re.minRow(s, t, nil)
		if opt.Enumerate {
			dl.Vlb[i], dl.VlbHops[i], dl.VlbOK[i] = re.vlbRow(s, t, nil)
		} else {
			dl.Vlb[i], dl.VlbHops[i], dl.VlbOK[i] = re.sampledRow(r, opt.Samples, s, t, nil)
		}
	}
	return dl
}

// AvgVLBHops returns the demand-weighted average VLB candidate path
// length — the quantity T-UGAL minimizes subject to path diversity
// (paper §3.1's "average length of VLB paths").
func (dl *DemandLoads) AvgVLBHops() float64 {
	sum, wsum := 0.0, 0.0
	for i, d := range dl.Demands {
		if dl.VlbOK[i] {
			sum += d.Rate * dl.VlbHops[i]
			wsum += d.Rate
		}
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// edgeAcc is a dense scratch accumulator over the edge space, reused
// from row to row. Accumulation order is the path enumeration order,
// so the per-edge sums are bit-identical to a map[Edge]float64 filled
// in that order (the tests' naiveLoads).
type edgeAcc struct {
	w       []float64
	mark    []int32
	gen     int32
	touched []Edge
}

func newEdgeAcc(numEdges int) *edgeAcc {
	return &edgeAcc{w: make([]float64, numEdges), mark: make([]int32, numEdges)}
}

// reset clears the accumulator in O(1) via a generation bump.
func (a *edgeAcc) reset() {
	a.gen++
	a.touched = a.touched[:0]
}

// add folds a weighted edge list into the accumulator.
func (a *edgeAcc) add(edges []Edge, w float64) {
	for _, e := range edges {
		if a.mark[e] != a.gen {
			a.mark[e] = a.gen
			a.w[e] = 0
			a.touched = append(a.touched, e)
		}
		a.w[e] += w
	}
}

// appendRow sorts the touched edges and appends the row to arena.
// Edge ids are unique within a row, so any sort yields the same row.
func (a *edgeAcc) appendRow(arena []EdgeWeight) []EdgeWeight {
	slices.Sort(a.touched)
	for _, e := range a.touched {
		arena = append(arena, EdgeWeight{E: e, W: a.w[e]})
	}
	return arena
}

// rowEnv is the per-demand builder of load rows: the policy, a walk of
// its path set and the scratch a row needs. ComputeLoads builds every
// row with it, in either mode; GridWalk takes its MIN rows and its walk
// from one and is held to its vlbRow bit for bit.
type rowEnv struct {
	net     *Network
	pol     paths.Policy
	walk    *paths.Walker
	acc     *edgeAcc
	scratch []Edge
	pbuf    paths.Path
}

func newRowEnv(net *Network, pol paths.Policy) *rowEnv {
	return &rowEnv{net: net, pol: pol, walk: paths.NewWalker(net.T, pol, net.Fail), acc: newEdgeAcc(net.NumEdges)}
}

// minRow appends the pair's MIN load row to arena and returns it with
// the candidate-weighted average hop count. Under a failure mask only
// surviving MIN paths are enumerated; a pair with none (endpoint or
// every minimal route dead) yields an empty row and zero hops — never
// a division by zero.
func (re *rowEnv) minRow(s, d int, arena []EdgeWeight) ([]EdgeWeight, float64) {
	minPaths := paths.EnumerateMinAlive(re.net.T, re.net.Fail, s, d)
	re.acc.reset()
	hops := 0.0
	if len(minPaths) > 0 {
		w := 1 / float64(len(minPaths))
		for _, p := range minPaths {
			re.scratch = re.net.PathEdges(re.scratch[:0], p)
			re.acc.add(re.scratch, w)
			hops += w * float64(p.Hops())
		}
	}
	return re.acc.appendRow(arena), hops
}

// vlbRow appends the pair's VLB load row to arena, returning it with
// the average hop count and availability. The walk yields a compiled
// store's own range or an interpreted policy's surviving paths, the
// same sequence either way, so either form yields the same row.
func (re *rowEnv) vlbRow(s, d int, arena []EdgeWeight) ([]EdgeWeight, float64, bool) {
	re.acc.reset()
	hops := 0.0
	vlbPaths := re.walk.Pair(s, d)
	if len(vlbPaths) > 0 {
		w := 1 / float64(len(vlbPaths))
		for _, p := range vlbPaths {
			re.scratch = re.net.PathEdges(re.scratch[:0], p)
			re.acc.add(re.scratch, w)
			hops += w * float64(p.Hops())
		}
	}
	return re.acc.appendRow(arena), hops, len(vlbPaths) > 0
}

// sampledRow is vlbRow estimated from up to samples draws of the
// policy's sampler — the Monte-Carlo mode for topologies too large to
// enumerate. Under a failure mask a dead draw is discarded and the row
// averages the survivors.
func (re *rowEnv) sampledRow(r *rng.Source, samples, s, d int, arena []EdgeWeight) ([]EdgeWeight, float64, bool) {
	re.acc.reset()
	hops := 0.0
	got := 0
	for k := 0; k < samples; k++ {
		if !re.pol.SampleVLBInto(r, s, d, &re.pbuf) {
			break
		}
		if !paths.Alive(re.net.Fail, re.pbuf) {
			continue // dead sample: draw again within the budget
		}
		got++
		re.scratch = re.net.PathEdges(re.scratch[:0], re.pbuf)
		re.acc.add(re.scratch, 1)
		hops += float64(re.pbuf.Hops())
	}
	if got > 0 {
		inv := 1 / float64(got)
		for _, e := range re.acc.touched {
			re.acc.w[e] *= inv
		}
		hops *= inv
	}
	return re.acc.appendRow(arena), hops, got > 0
}
