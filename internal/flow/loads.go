package flow

import (
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
	// Matrix, when set in Enumerate mode, serves each demand whose
	// pair it compiled as a row-gather from the shared arena instead
	// of re-enumerating the candidate set; demands outside the
	// matrix fall back to the per-demand path. Rows gathered this
	// way alias the matrix arena and must not be mutated.
	Matrix *LoadMatrix
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
	var re *rowEnv // made for the first demand the matrix does not hold
	for i, d := range demands {
		s, t := int(d.Src), int(d.Dst)

		// Compiled fast path: the matrix already holds this pair's
		// rows — gather them (aliasing the shared read-only arena)
		// instead of re-enumerating the candidate sets.
		if opt.Enumerate && opt.Matrix != nil && opt.Matrix.Has(s, t) {
			lm := opt.Matrix
			dl.Min[i], dl.MinHops[i] = lm.MinRow(s, t)
			dl.Vlb[i], dl.VlbHops[i], dl.VlbOK[i] = lm.VlbRow(s, t)
			continue
		}

		// MIN candidates are always enumerated exactly: there are at
		// most K of them. A pair with none surviving yields an empty row
		// (the solvers treat such a demand as VLB-only or unservable).
		if re == nil {
			re = newRowEnv(net, pol)
		}
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
