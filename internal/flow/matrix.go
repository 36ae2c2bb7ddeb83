package flow

import (
	"slices"
	"time"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// DefaultMatrixBudget caps, in total sparse entries (16 bytes each),
// how large a LoadMatrix the analysis layers will compile before
// falling back to per-demand load computation. 32M entries is
// ~512 MiB of arena — far above every enumerable topology of the
// paper (dfly(4,8,4,9) full VLB is ~2.7M entries) while refusing
// degenerate requests.
const DefaultMatrixBudget int64 = 32 << 20

// LoadMatrix is the compiled, immutable form of the throughput
// model's per-pair load vectors on one (topology, policy): a CSR
// arena of sparse MIN and VLB expected-crossings-per-unit rows
// (edge ids + weights, sorted by edge), plus per-pair average hop
// counts and VLB availability. The vectors depend only on the pair
// and the policy — never on the traffic pattern — so one matrix,
// compiled once, serves every pattern evaluation of a Step-1 grid
// probe as a row-gather instead of a per-demand re-enumeration.
//
// A LoadMatrix is strictly read-only after compilation. That is the
// sharing contract with internal/exec (the same one paths.Store
// carries): one matrix is built per (topology, policy) and handed to
// every concurrent pattern evaluation on the worker pool with no
// synchronization; DemandLoads rows gathered from it alias the
// shared arena and must not be mutated.
type LoadMatrix struct {
	// Net is the edge space the rows are expressed in.
	Net *Network

	name string
	n    int // switches; the pair index is s*n+d

	// has[pi] reports whether the pair's rows were compiled. A
	// matrix restricted to the pairs of a pattern suite leaves the
	// rest un-compiled; ComputeLoads falls back per demand.
	has []bool
	// CSR row bounds over the arenas, len n*n+1; un-compiled pairs
	// hold empty ranges.
	minStart []int32
	vlbStart []int32
	minArena []EdgeWeight
	vlbArena []EdgeWeight
	// Per-pair candidate-weighted average hop counts and VLB
	// availability, len n*n.
	minHops []float64
	vlbHops []float64
	vlbOK   []bool

	pairs     int
	buildTime time.Duration
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
// Edge ids are unique within a row, so any sort yields the same row;
// slices.Sort beats sort.Slice several-fold here and appendRow is the
// hottest part of deriving a matrix from a cached grid.
func (a *edgeAcc) appendRow(arena []EdgeWeight) []EdgeWeight {
	slices.Sort(a.touched)
	for _, e := range a.touched {
		arena = append(arena, EdgeWeight{E: e, W: a.w[e]})
	}
	return arena
}

// allPairs lists every ordered pair s != d.
func allPairs(n int) [][2]int32 {
	out := make([][2]int32, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				out = append(out, [2]int32{int32(s), int32(d)})
			}
		}
	}
	return out
}

// PatternPairs returns the ascending union of ordered switch pairs
// demanded by a pattern suite — the row set a Step-1 probe needs, so
// a matrix restricted to it covers every pattern evaluation without
// compiling the full n^2 grid.
func PatternPairs(t *topo.Compiled, pats []traffic.Deterministic) [][2]int32 {
	n := t.NumSwitches()
	seen := make([]bool, n*n)
	for _, pat := range pats {
		for _, d := range traffic.SwitchDemands(t, pat) {
			seen[int(d.Src)*n+int(d.Dst)] = true
		}
	}
	var out [][2]int32
	for pi, ok := range seen {
		if ok {
			out = append(out, [2]int32{int32(pi / n), int32(pi % n)})
		}
	}
	return out
}

// CompileLoadMatrix builds the matrix rows for the given ordered
// pairs (nil compiles every pair): a paths.Walker reads a compiled
// paths.Store's arena and walks any other policy pair by pair. The
// rows are the ones ComputeLoads builds per demand, because both run
// rowEnv.
func CompileLoadMatrix(net *Network, pol paths.Policy, pairs [][2]int32) *LoadMatrix {
	start := time.Now()
	n := net.T.NumSwitches()
	if pairs == nil {
		pairs = allPairs(n)
	}
	lm := &LoadMatrix{
		Net:      net,
		name:     pol.Name(),
		n:        n,
		has:      make([]bool, n*n),
		minStart: make([]int32, n*n+1),
		vlbStart: make([]int32, n*n+1),
		minHops:  make([]float64, n*n),
		vlbHops:  make([]float64, n*n),
		vlbOK:    make([]bool, n*n),
	}
	// CSR fill requires ascending pair order; callers may hand pairs
	// in any order.
	order := sortPairs(pairs, n)
	re := newRowEnv(net, pol)
	prev := -1
	for _, pr := range order {
		s, d := int(pr[0]), int(pr[1])
		pi := s*n + d
		if pi == prev || s == d {
			continue // duplicate or diagonal
		}
		// Carry row bounds forward over the un-compiled gap.
		for q := prev + 1; q <= pi; q++ {
			lm.minStart[q] = int32(len(lm.minArena))
			lm.vlbStart[q] = int32(len(lm.vlbArena))
		}
		prev = pi
		lm.has[pi] = true
		lm.pairs++
		lm.minArena, lm.minHops[pi] = re.minRow(s, d, lm.minArena)
		lm.vlbArena, lm.vlbHops[pi], lm.vlbOK[pi] = re.vlbRow(s, d, lm.vlbArena)
	}
	for q := prev + 1; q <= n*n; q++ {
		lm.minStart[q] = int32(len(lm.minArena))
		lm.vlbStart[q] = int32(len(lm.vlbArena))
	}
	lm.buildTime = time.Since(start)
	return lm
}

// rowEnv is the one builder of per-pair load rows: the policy, a walk
// of its path set and the scratch a row needs. A matrix compile
// (CompileLoadMatrix) and a per-demand computation (ComputeLoads) both
// go through it, so they execute the same float operations in the same
// order and their rows are bit-identical by construction.
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

// EstimateMatrixEntries predicts the total sparse-entry count of a
// matrix over npairs pairs without compiling it, by enumerating a
// few representative inter-group pairs and scaling the largest
// observed row — a mild overestimate, the safe direction for a
// budget check (the same scheme as paths.EstimatePaths).
func EstimateMatrixEntries(net *Network, pol paths.Policy, npairs int) int64 {
	t := net.T
	acc := newEdgeAcc(net.NumEdges)
	var scratch []Edge
	perPair := int64(0)
	for _, gi := range []int{1, t.G / 2, t.G - 1} {
		if gi <= 0 {
			continue
		}
		s, d := t.SwitchID(0, 0), t.SwitchID(gi, t.A/2)
		acc.reset()
		for _, p := range paths.EnumerateMin(t, s, d) {
			scratch = net.PathEdges(scratch[:0], p)
			acc.add(scratch, 1)
		}
		for _, p := range pol.Enumerate(s, d) {
			scratch = net.PathEdges(scratch[:0], p)
			acc.add(scratch, 1)
		}
		if c := int64(len(acc.touched)); c > perPair {
			perPair = c
		}
	}
	if perPair == 0 {
		perPair = int64(2 + paths.MaxVLBHops)
	}
	return perPair * int64(npairs)
}

// TryCompileLoadMatrix compiles a matrix over the given pairs when
// its estimated arena fits the entry budget (<=0 means unlimited);
// ok=false leaves per-demand load computation in charge.
func TryCompileLoadMatrix(net *Network, pol paths.Policy, pairs [][2]int32, budget int64) (*LoadMatrix, bool) {
	npairs := len(pairs)
	if pairs == nil {
		n := net.T.NumSwitches()
		npairs = n * (n - 1)
	}
	if budget > 0 && EstimateMatrixEntries(net, pol, npairs) > budget {
		return nil, false
	}
	return CompileLoadMatrix(net, pol, pairs), true
}

// Name returns the compiled policy's name.
func (lm *LoadMatrix) Name() string { return lm.name }

// Pairs returns the number of compiled pairs.
func (lm *LoadMatrix) Pairs() int { return lm.pairs }

// Has reports whether the pair's rows were compiled.
func (lm *LoadMatrix) Has(s, d int) bool { return lm.has[s*lm.n+d] }

// MinRow returns the pair's MIN load row (aliasing the shared arena;
// callers must not mutate it) and average MIN hop count.
func (lm *LoadMatrix) MinRow(s, d int) (SparseVec, float64) {
	pi := s*lm.n + d
	return SparseVec(lm.minArena[lm.minStart[pi]:lm.minStart[pi+1]]), lm.minHops[pi]
}

// VlbRow returns the pair's VLB load row (aliasing the shared
// arena), average VLB hop count, and whether the pair has any
// candidate VLB path.
func (lm *LoadMatrix) VlbRow(s, d int) (SparseVec, float64, bool) {
	pi := s*lm.n + d
	return SparseVec(lm.vlbArena[lm.vlbStart[pi]:lm.vlbStart[pi+1]]), lm.vlbHops[pi], lm.vlbOK[pi]
}

// Bytes reports the resident size of the compiled arenas.
func (lm *LoadMatrix) Bytes() int64 {
	const entry = 16 // EdgeWeight: int32 + pad + float64
	b := entry * (int64(len(lm.minArena)) + int64(len(lm.vlbArena)))
	b += 4 * (int64(len(lm.minStart)) + int64(len(lm.vlbStart)))
	b += 8 * (int64(len(lm.minHops)) + int64(len(lm.vlbHops)))
	b += int64(len(lm.vlbOK)) + int64(len(lm.has))
	return b
}

// BuildTime reports how long compilation took.
func (lm *LoadMatrix) BuildTime() time.Duration { return lm.buildTime }
