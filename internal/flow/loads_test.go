package flow

import (
	"math"
	"sort"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/stats"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// The oracle: the per-demand row builder Step 1 once ran, kept here to
// hold GridWalk's folded sums to. ComputeLoads builds each demand's
// MIN and VLB rows path by path, Aggregate.From folds the rows into the
// solver's sums, and modelOracle and AverageModeled solve them.

// SparseVec is a sparse expected-crossings-per-unit-of-traffic vector
// over edges, sorted by edge id.
type SparseVec []EdgeWeight

// DemandLoads holds, for every demand of a pattern, the expected
// per-unit edge crossings when routed MIN and when routed VLB under
// a given policy, plus average hop counts.
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

// ComputeLoads builds the load rows of all demands under pol.
func ComputeLoads(net *Network, pol paths.Policy, demands []traffic.Demand) *DemandLoads {
	dl := &DemandLoads{
		Net:     net,
		Demands: demands,
		Min:     make([]SparseVec, len(demands)),
		Vlb:     make([]SparseVec, len(demands)),
		VlbOK:   make([]bool, len(demands)),
		MinHops: make([]float64, len(demands)),
		VlbHops: make([]float64, len(demands)),
	}
	re := newRowEnv(net)
	for i, d := range demands {
		s, t := int(d.Src), int(d.Dst)
		dl.Min[i] = re.minRow(s, t, nil)
		dl.MinHops[i] = avgHops(paths.EnumerateMinAlive(net.T, net.Fail, s, t))
		dl.Vlb[i], dl.VlbHops[i], dl.VlbOK[i] = re.vlbRow(alivePaths(net, pol, s, t), nil)
	}
	return dl
}

// alivePaths is pol's VLB paths of pair (s, d) that survive net's mask,
// in enumeration order.
func alivePaths(net *Network, pol paths.Policy, s, d int) []paths.Path {
	var out []paths.Path
	for _, p := range pol.Enumerate(s, d) {
		if paths.Alive(net.Fail, p) {
			out = append(out, p)
		}
	}
	return out
}

// PathEdges appends the edges traversed by a switch path, including
// the endpoint injection and ejection edges, to dst and returns it.
func (n *Network) PathEdges(dst []Edge, p paths.Path) []Edge {
	dst = append(dst, n.InjectionEdge(p.Src()))
	for i, pt := range p.Ports {
		dst = append(dst, n.EdgeOf(int(p.Sw[i]), int(pt)))
	}
	dst = append(dst, n.EjectionEdge(p.Dst()))
	return dst
}

// avgHops is the hop count of ps averaged with weight 1/len(ps), summed
// in order.
func avgHops(ps []paths.Path) float64 {
	hops := 0.0
	for _, p := range ps {
		hops += 1 / float64(len(ps)) * float64(p.Hops())
	}
	return hops
}

// vlbRow appends the row of the pair's VLB paths vlbPaths to arena,
// returning it with the average hop count and availability. A compiled
// store's range and an interpreted policy's surviving paths are the same
// sequence, so either form yields the same row.
func (re *rowEnv) vlbRow(vlbPaths []paths.Path, arena []EdgeWeight) ([]EdgeWeight, float64, bool) {
	re.acc.reset()
	if len(vlbPaths) > 0 {
		w := 1 / float64(len(vlbPaths))
		for _, p := range vlbPaths {
			re.scratch = re.net.PathEdges(re.scratch[:0], p)
			re.acc.add(re.scratch, w)
		}
	}
	return re.acc.appendRow(arena), avgHops(vlbPaths), len(vlbPaths) > 0
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

// From folds dl's per-demand load vectors, weighted by demand rate,
// into the dense fixed/min/vlb load arrays, reusing them, and packs the
// active edges. Demands without VLB paths contribute their MIN loads to
// fixed (they cannot adapt).
func (a *Aggregate) From(dl *DemandLoads) {
	a.reset(dl.Net.NumEdges)
	for i, d := range dl.Demands {
		if !dl.VlbOK[i] {
			for _, ew := range dl.Min[i] {
				a.Fixed[ew.E] += d.Rate * ew.W
			}
			continue
		}
		if len(dl.Min[i]) == 0 {
			// Degraded pair with no surviving MIN path: it cannot
			// adapt, so its whole rate rides the VLB row regardless of
			// the split.
			for _, ew := range dl.Vlb[i] {
				a.Fixed[ew.E] += d.Rate * ew.W
			}
			continue
		}
		for _, ew := range dl.Min[i] {
			a.Mu[ew.E] += d.Rate * ew.W
		}
		for _, ew := range dl.Vlb[i] {
			a.Nu[ew.E] += d.Rate * ew.W
		}
	}
	a.pack(dl.Net.Cap)
}

// fold is the symmetric solver's input: dl folded into an Aggregate.
func fold(dl *DemandLoads) *Aggregate {
	a := new(Aggregate)
	a.From(dl)
	return a
}

// modelOracle is ModelThroughput over ComputeLoads' rows.
func modelOracle(t *topo.Compiled, pol paths.Policy, pat traffic.Deterministic, fail *topo.FailureMask) Result {
	demands := traffic.SwitchDemands(t, pat)
	if len(demands) == 0 {
		return idle(t)
	}
	return fold(ComputeLoads(NewDegradedNetwork(t, fail), pol, demands)).Solve()
}

// AverageModeled returns the mean and standard error of modelOracle
// over a set of patterns, one pool task a pattern, each result written
// by index.
func AverageModeled(t *topo.Compiled, pol paths.Policy, pats []traffic.Deterministic, fail *topo.FailureMask) (mean, stderr float64) {
	vals := make([]float64, len(pats))
	exec.Default().Run("model/"+pol.Name(), len(pats), func(i int) int64 {
		vals[i] = modelOracle(t, pol, pats[i], fail).Alpha
		return 0
	})
	return stats.MeanErr(vals)
}

// loadPolicies lists the policy shapes ComputeLoads must serve:
// interpreted (Full, LengthCapped with a fractional tier, Strategic)
// and compiled (Store) forms.
func loadPolicies(tp *topo.Compiled) map[string]paths.Policy {
	return map[string]paths.Policy{
		"full":         paths.Full{T: tp},
		"capped":       paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7},
		"strategic":    paths.Strategic{T: tp, FirstLeg: 2},
		"full-store":   paths.Compile(tp, paths.Full{T: tp}),
		"capped-store": paths.Compile(tp, paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7}),
		"empty-of-vlb": paths.LengthCapped{T: tp, MaxHops: 1, Seed: 1},
	}
}

// naiveLoads is the map-based per-demand row builder ComputeLoads
// once was: every candidate enumerated and Alive-filtered in order,
// each row summed in a fresh map[Edge]float64 and sorted at the end. It
// shares nothing with rowEnv, edgeAcc or GridWalk, so it is the
// independent reference for all of them.
func naiveLoads(net *Network, pol paths.Policy, demands []traffic.Demand) *DemandLoads {
	dl := &DemandLoads{
		Net:     net,
		Demands: demands,
		Min:     make([]SparseVec, len(demands)),
		Vlb:     make([]SparseVec, len(demands)),
		VlbOK:   make([]bool, len(demands)),
		MinHops: make([]float64, len(demands)),
		VlbHops: make([]float64, len(demands)),
	}
	// row spreads unit traffic evenly over ps, returning the sorted
	// per-edge sums and the average hop count.
	row := func(ps []paths.Path) (SparseVec, float64) {
		acc := make(map[Edge]float64)
		hops := 0.0
		for _, p := range ps {
			w := 1 / float64(len(ps))
			for _, e := range net.PathEdges(nil, p) {
				acc[e] += w
			}
			hops += w * float64(p.Hops())
		}
		v := make(SparseVec, 0, len(acc))
		for e, w := range acc {
			v = append(v, EdgeWeight{E: e, W: w})
		}
		sort.Slice(v, func(i, j int) bool { return v[i].E < v[j].E })
		return v, hops
	}
	for i, d := range demands {
		s, t := int(d.Src), int(d.Dst)
		dl.Min[i], dl.MinHops[i] = row(paths.EnumerateMinAlive(net.T, net.Fail, s, t))
		vlb := alivePaths(net, pol, s, t)
		dl.Vlb[i], dl.VlbHops[i] = row(vlb)
		dl.VlbOK[i] = len(vlb) > 0
	}
	return dl
}

// TestComputeLoadsMatchesNaive pins ComputeLoads — the per-demand
// rowEnv build — against the map-based naiveLoads, bit for bit, on
// interpreted and compiled policies, and the solver on both.
func TestComputeLoadsMatchesNaive(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	net := NewNetwork(tp)
	pats := []traffic.Deterministic{
		traffic.Shift{T: tp, DG: 1, DS: 0},
		traffic.Shift{T: tp, DG: 2, DS: 1},
		traffic.NewGroupPermutation(tp, 11),
	}
	for name, pol := range loadPolicies(tp) {
		for _, pat := range pats {
			demands := traffic.SwitchDemands(tp, pat)
			want := naiveLoads(net, pol, demands)
			got := ComputeLoads(net, pol, demands)
			requireBitIdenticalLoads(t, name+"/"+pat.Name(), want, got)

			// The solved results must therefore agree bit for bit.
			ws, gs := fold(want).Solve(), fold(got).Solve()
			if ws != gs {
				t.Fatalf("%s/%s: symmetric %v vs %v", name, pat.Name(), gs, ws)
			}
		}
	}
}

// TestAverageModeledWorkerDeterminism: the oracle's parallel pattern
// fan-out reproduces, at any worker count, the sequential loop over
// ModelThroughput — the one-policy walk — bit for bit.
func TestAverageModeledWorkerDeterminism(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 3}
	pats := append(traffic.Type1Set(tp)[:6], traffic.Type2Set(tp, 4, 99)...)

	vals := make([]float64, len(pats))
	for i, pat := range pats {
		vals[i] = ModelThroughput(tp, pol, pat, nil).Alpha
	}

	var means, errs [2]float64
	for i, workers := range []int{1, 16} {
		old := exec.SetDefault(exec.NewPool(workers))
		means[i], errs[i] = AverageModeled(tp, pol, pats, nil)
		exec.SetDefault(old)
	}
	if math.Float64bits(means[0]) != math.Float64bits(means[1]) ||
		math.Float64bits(errs[0]) != math.Float64bits(errs[1]) {
		t.Fatalf("worker-count dependent: %v/%v vs %v/%v", means[0], errs[0], means[1], errs[1])
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if want := sum / float64(len(vals)); math.Float64bits(means[0]) != math.Float64bits(want) {
		t.Fatalf("parallel mean %v differs from sequential %v", means[0], want)
	}
}

// BenchmarkAverageModeled measures the per-data-point quantity of a
// single-policy probe — the full pattern-suite average on g=9, one
// walk of the policy's own paths per pattern.
func BenchmarkAverageModeled(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 1}
	pats := append(traffic.Type1Set(tp), traffic.Type2Set(tp, 20, 1)...)
	one := []paths.Policy{paths.Full{T: tp}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AverageModeledGrid(tp, pol, one, pats, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pats))*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}
