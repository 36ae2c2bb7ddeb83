package flow

import (
	"slices"

	"tugal/internal/paths"
)

// EdgeWeight is one entry of a sparse per-unit load vector: the
// expected crossings of edge E by one unit of a pair's traffic.
type EdgeWeight struct {
	E Edge
	W float64
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

// rowEnv is a walk of one path set with the scratch a pair's load row
// needs. GridWalk takes its MIN rows and its walk from one.
type rowEnv struct {
	net     *Network
	walk    *paths.Walker
	acc     *edgeAcc
	scratch []Edge
}

func newRowEnv(net *Network, pol paths.Policy) *rowEnv {
	return &rowEnv{net: net, walk: paths.NewWalker(net.T, pol, net.Fail), acc: newEdgeAcc(net.NumEdges)}
}

// minRow appends the pair's MIN load row to arena. Under a failure
// mask only surviving MIN paths are enumerated; a pair with none
// (endpoint or every minimal route dead) yields an empty row — never a
// division by zero.
func (re *rowEnv) minRow(s, d int, arena []EdgeWeight) []EdgeWeight {
	minPaths := paths.EnumerateMinAlive(re.net.T, re.net.Fail, s, d)
	re.acc.reset()
	if len(minPaths) > 0 {
		w := 1 / float64(len(minPaths))
		for _, p := range minPaths {
			re.scratch = re.net.PathEdges(re.scratch[:0], p)
			re.acc.add(re.scratch, w)
		}
	}
	return re.acc.appendRow(arena)
}
