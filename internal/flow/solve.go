package flow

import "math"

// Result is a throughput-model solution.
type Result struct {
	// Alpha is the modeled saturation throughput in packets/cycle per
	// node: each node injecting Alpha saturates the first channel.
	Alpha float64
	// SplitMin is the (aggregate) fraction of traffic the model
	// routes minimally at the optimum.
	SplitMin float64
}

// Aggregate is the folded load of one pattern under one policy:
// per-edge fixed/min/vlb load arrays (GridWalk.Fold adds every
// demand's rate-weighted rows into them) plus a packed list of the
// active edges (those any demand can load), which is the solver's
// scratch — the golden-section inner loop scans only the packed entries
// instead of three full dense arrays per evaluation.
type Aggregate struct {
	Fixed, Mu, Nu []float64
	// Packed active-edge view, one group a capacity.
	groups []capGroup
}

// capGroup holds the active edges of one capacity: their fixed, min and
// vlb loads as parallel arrays, in edge order.
type capGroup struct {
	cap     float64
	f, m, v []float64
}

// reset zeroes the sums over n edges, reusing their arrays.
func (a *Aggregate) reset(n int) {
	a.Fixed, a.Mu, a.Nu = resized(a.Fixed, n), resized(a.Mu, n), resized(a.Nu, n)
	clear(a.Fixed)
	clear(a.Mu)
	clear(a.Nu)
}

// pack groups the edges any load can touch by capacity (a network has
// three: 1, p and 0 on dead gear). A group this fold leaves empty
// costs alphaAt nothing, so groups are kept, arrays and all, from
// fold to fold. The per-evaluation zero check stays inside alphaAt
// (an edge can still carry zero load at the probed split, e.g. mu=0
// at x=1).
func (a *Aggregate) pack(caps []float64) {
	for i := range a.groups {
		g := &a.groups[i]
		g.f, g.m, g.v = g.f[:0], g.m[:0], g.v[:0]
	}
	for e, c := range caps {
		if a.Fixed[e] == 0 && a.Mu[e] == 0 && a.Nu[e] == 0 {
			continue
		}
		i := 0
		for i < len(a.groups) && a.groups[i].cap != c {
			i++
		}
		if i == len(a.groups) {
			a.groups = append(a.groups, capGroup{cap: c})
		}
		g := &a.groups[i]
		g.f = append(g.f, a.Fixed[e])
		g.m = append(g.m, a.Mu[e])
		g.v = append(g.v, a.Nu[e])
	}
}

// alphaAt returns the saturation alpha at MIN split x, scanning only
// the packed active edges: the least cap/load over the edges whose load
// exceeds 1e-12, or 0 when none does. It divides once per capacity, not
// once per edge: a correctly rounded c/x does not increase with x > 0,
// so over the loads of one capacity c above the cutoff the least c/load
// is c over the largest of them, bit for bit.
func (a *Aggregate) alphaAt(x float64) float64 {
	best := math.Inf(1)
	for i := range a.groups {
		g := &a.groups[i]
		m, v := g.m[:len(g.f)], g.v[:len(g.f)] // one bounds check a group, none an edge
		top := 0.0
		for i, f := range g.f {
			load := f + x*m[i] + (1-x)*v[i]
			if load > top { // not max(): it orders NaNs and zeros, three times the cost
				top = load
			}
		}
		if top <= 1e-12 {
			continue
		}
		if al := g.cap / top; al < best {
			best = al
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// Solve maximizes alpha over the folded loads under a single MIN/VLB
// split shared by all demands — exact for group-transitive patterns
// such as the TYPE_1 shifts, and in general a lower bound on the path
// LP over the same candidates. The inner problem is quasiconcave in the
// split x, solved by golden-section over a coarse grid bracket; the
// golden-section loop carries the surviving interior evaluation, so
// each iteration costs one alphaAt call instead of two.
func (a *Aggregate) Solve() Result { return maximize(a.alphaAt) }

// maximize is Solve over any alpha(x).
func maximize(alphaAt func(x float64) float64) Result {
	// Coarse grid bracket, then golden-section refinement.
	bestX, bestA := 0.0, alphaAt(0)
	const grid = 64
	for i := 1; i <= grid; i++ {
		x := float64(i) / grid
		if al := alphaAt(x); al > bestA {
			bestA, bestX = al, x
		}
	}
	lo := math.Max(0, bestX-1.0/grid)
	hi := math.Min(1, bestX+1.0/grid)
	const phi = 0.6180339887498949
	m1 := hi - phi*(hi-lo)
	m2 := lo + phi*(hi-lo)
	f1, f2 := alphaAt(m1), alphaAt(m2)
	for it := 0; it < 48; it++ {
		if f1 < f2 {
			lo = m1
			m1, f1 = m2, f2
			m2 = lo + phi*(hi-lo)
			f2 = alphaAt(m2)
		} else {
			hi = m2
			m2, f2 = m1, f1
			m1 = hi - phi*(hi-lo)
			f1 = alphaAt(m1)
		}
	}
	x := (lo + hi) / 2
	al := alphaAt(x)
	if bestA > al {
		al, x = bestA, bestX
	}
	return Result{Alpha: al, SplitMin: x}
}
