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

// rowEnv is the scratch a pair's MIN row needs. GridWalk takes its MIN
// rows from one.
type rowEnv struct {
	net     *Network
	acc     *edgeAcc
	legs    []paths.Leg
	scratch []Edge
}

func newRowEnv(net *Network) *rowEnv {
	return &rowEnv{net: net, acc: newEdgeAcc(net.NumEdges)}
}

// minRow appends the pair's MIN load row to arena: 1/n added along each
// of its n MIN legs that survive the mask, as a per-path build over
// EnumerateMinAlive adds it. A pair with none (endpoint or every
// minimal route dead) yields an empty row — never a division by zero.
func (re *rowEnv) minRow(s, d int, arena []EdgeWeight) []EdgeWeight {
	re.legs = paths.MinLegs(re.net.T, re.net.Fail, s, d, re.legs[:0])
	n := 0
	for i := range re.legs {
		if re.legs[i].Alive() {
			n++
		}
	}
	re.acc.reset()
	w := 1 / float64(n)
	for i := range re.legs {
		if l := &re.legs[i]; l.Alive() {
			re.scratch = append(re.scratch[:0], re.net.InjectionEdge(s))
			for h := range l.Hops() {
				re.scratch = append(re.scratch, re.net.EdgeOf(l.Hop(h)))
			}
			re.scratch = append(re.scratch, re.net.EjectionEdge(d))
			re.acc.add(re.scratch, w)
		}
	}
	return re.acc.appendRow(arena)
}
