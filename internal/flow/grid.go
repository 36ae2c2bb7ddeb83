package flow

import (
	"slices"
	"sort"
	"time"

	"tugal/internal/paths"
)

// gridStride is the per-path slot width of the grid's edge cache: a
// VLB path of h hops crosses h+2 edges (injection, the switch hops,
// ejection).
const gridStride = paths.MaxVLBHops + 2

// MatrixGrid derives the LoadMatrix of every policy in a Step-1 grid
// from one shared superset store. Building the grid caches, for each
// stored path of the probed pairs, its edge list and identity hash;
// each policy's matrix is then one filtered accumulation pass over
// cached int32 edge ids — no materialization, no per-hop topology
// walk, no re-hashing. The MIN rows are policy-independent, so they
// are compiled once at grid build and every derived matrix aliases
// them.
//
// Compile only serves policies that implement paths.KeyedFilter
// (membership from hop count + identity hash alone — the whole
// Table-1 family); the caller compiles any other directly
// (CompileLoadMatrix).
// Like the matrices it emits, a built grid is read-only: Compile
// makes its scratch per call, so a Step-1 grid derives its points
// concurrently from one shared grid.
type MatrixGrid struct {
	net   *Network
	base  *paths.Store
	pairs [][2]int32 // ascending, deduped, diagonal-free
	n     int

	// off[pi] is the pair's offset into the compact per-path arrays;
	// the pair's k-th stored path lives at compact index off[pi]+k.
	// Pairs outside the grid hold -1.
	off   []int32
	edges []Edge   // stride gridStride per compact path
	hops  []uint8  // cached so admission never touches the store
	keys  []uint64 // identity hash per compact path

	// Sorted union of every stored path's edges, per pair: CSR over
	// the j-th entry of pairs. Any policy's VLB row is a subset, so a
	// derived row is emitted by scanning the pair's union in order and
	// keeping the generation-marked edges — no per-row sort — and
	// len(unionArena) bounds any derived arena exactly, so Compile
	// never regrows one.
	unionStart []int32
	unionArena []Edge

	// Shared MIN CSR, compiled once; derived matrices alias it.
	minStart []int32
	minArena []EdgeWeight
	minHops  []float64

	npaths    int
	buildTime time.Duration
}

// NewMatrixGrid builds the grid cache for the given pairs (nil means
// every ordered pair) over base, which must be a superset store of
// every policy later passed to Compile (typically the full VLB set).
func NewMatrixGrid(net *Network, base *paths.Store, pairs [][2]int32) *MatrixGrid {
	start := time.Now()
	n := net.T.NumSwitches()
	if pairs == nil {
		pairs = allPairs(n)
	}
	g := &MatrixGrid{
		net:      net,
		base:     base,
		pairs:    dedupPairs(sortPairs(pairs, n), n),
		n:        n,
		off:      make([]int32, n*n),
		minStart: make([]int32, n*n+1),
		minHops:  make([]float64, n*n),
	}
	re := newRowEnv(net, base) // the MIN row builder, and the walk's scratch
	acc := re.acc
	for pi := range g.off {
		g.off[pi] = -1
	}
	total := 0
	for _, pr := range g.pairs {
		_, count := base.PairRange(int(pr[0]), int(pr[1]))
		total += count
	}
	g.npaths = total
	g.edges = make([]Edge, total*gridStride)
	g.keys = make([]uint64, total)
	g.hops = make([]uint8, total)
	g.unionStart = make([]int32, len(g.pairs)+1)

	ci := int32(0)
	prev := -1
	for j, pr := range g.pairs {
		s, d := int(pr[0]), int(pr[1])
		pi := s*n + d
		for q := prev + 1; q <= pi; q++ {
			g.minStart[q] = int32(len(g.minArena))
		}
		prev = pi
		g.minArena, g.minHops[pi] = re.minRow(s, d, g.minArena)

		// Per-path edge lists and keys: one materialization walk,
		// paid once for the whole grid. The same pass collects the
		// pair's edge union.
		g.off[pi] = ci
		g.unionStart[j] = int32(len(g.unionArena))
		acc.reset()
		first, count := base.PairRange(s, d)
		for k := 0; k < count; k++ {
			base.MaterializeInto(s, first+paths.PathID(k), &re.pbuf)
			eb := int(ci) * gridStride
			row := net.PathEdges(g.edges[eb:eb:eb+gridStride], re.pbuf)
			g.hops[ci] = uint8(len(row) - 2)
			g.keys[ci] = re.pbuf.Key()
			acc.add(row, 1)
			ci++
		}
		slices.Sort(acc.touched)
		g.unionArena = append(g.unionArena, acc.touched...)
	}
	g.unionStart[len(g.pairs)] = int32(len(g.unionArena))
	for q := prev + 1; q <= n*n; q++ {
		g.minStart[q] = int32(len(g.minArena))
	}
	g.buildTime = time.Since(start)
	return g
}

// sortPairs copies pairs into ascending pair-index order.
func sortPairs(pairs [][2]int32, n int) [][2]int32 {
	order := make([][2]int32, len(pairs))
	copy(order, pairs)
	sort.Slice(order, func(i, j int) bool {
		return int(order[i][0])*n+int(order[i][1]) < int(order[j][0])*n+int(order[j][1])
	})
	return order
}

// dedupPairs drops duplicates and diagonal entries from an ascending
// pair list, in place.
func dedupPairs(order [][2]int32, n int) [][2]int32 {
	out := order[:0]
	prev := -1
	for _, pr := range order {
		pi := int(pr[0])*n + int(pr[1])
		if pi == prev || pr[0] == pr[1] {
			continue
		}
		prev = pi
		out = append(out, pr)
	}
	return out
}

// TryNewMatrixGrid builds the grid when its cache fits the same
// 16-byte-entry budget TryCompileLoadMatrix uses (<=0 unlimited).
// Unlike the matrix estimate this gate is exact: the store already
// knows every pair's path count.
func TryNewMatrixGrid(net *Network, base *paths.Store, pairs [][2]int32, budget int64) (*MatrixGrid, bool) {
	if budget > 0 {
		n := net.T.NumSwitches()
		if pairs == nil {
			pairs = allPairs(n)
		}
		total := int64(0)
		for _, pr := range pairs {
			_, count := base.PairRange(int(pr[0]), int(pr[1]))
			total += int64(count)
		}
		// Per cached path: gridStride int32 edges + uint64 key + hop.
		if total*(gridStride*4+9) > budget*16 {
			return nil, false
		}
	}
	return NewMatrixGrid(net, base, pairs), true
}

// Compile derives pol's LoadMatrix from the cache. The admitted
// sequence per pair is the stored order filtered by AllowsKeyed —
// exactly pol.Enumerate's order — and the accumulation replays
// rowEnv.vlbRow's float operations verbatim, so the rows are
// bit-identical to every other compilation path. ok=false when pol
// does not implement paths.KeyedFilter.
func (g *MatrixGrid) Compile(pol paths.Policy) (*LoadMatrix, bool) {
	kf, ok := pol.(paths.KeyedFilter)
	if !ok {
		return nil, false
	}
	start := time.Now()
	n := g.n
	lm := &LoadMatrix{
		Net:      g.net,
		name:     pol.Name(),
		n:        n,
		has:      make([]bool, n*n),
		minStart: g.minStart,
		minArena: g.minArena,
		minHops:  g.minHops,
		vlbStart: make([]int32, n*n+1),
		vlbHops:  make([]float64, n*n),
		vlbOK:    make([]bool, n*n),
	}
	// Any derived arena is a subset of the pair-union arena, so this
	// capacity is exact for a full-coverage policy and the append
	// below never regrows.
	lm.vlbArena = make([]EdgeWeight, 0, len(g.unionArena))
	acc := newEdgeAcc(g.net.NumEdges)
	var admitted []int32
	prev := -1
	for j, pr := range g.pairs {
		s, d := int(pr[0]), int(pr[1])
		pi := s*n + d
		for q := prev + 1; q <= pi; q++ {
			lm.vlbStart[q] = int32(len(lm.vlbArena))
		}
		prev = pi
		lm.has[pi] = true
		lm.pairs++

		ci0 := g.off[pi]
		_, count := g.base.PairRange(s, d)
		admitted = admitted[:0]
		for k := 0; k < count; k++ {
			ci := ci0 + int32(k)
			if kf.AllowsKeyed(int(g.hops[ci]), g.keys[ci]) {
				admitted = append(admitted, ci)
			}
		}
		acc.reset()
		if nk := len(admitted); nk > 0 {
			lm.vlbOK[pi] = true
			w := 1 / float64(nk)
			for _, ci := range admitted {
				h := int(g.hops[ci])
				eb := int(ci) * gridStride
				// Accumulate generation-marked, without touched-list
				// bookkeeping: the union scan below recovers the
				// row's edges in sorted order.
				for _, e := range g.edges[eb : eb+h+2] {
					if acc.mark[e] != acc.gen {
						acc.mark[e] = acc.gen
						acc.w[e] = 0
					}
					acc.w[e] += w
				}
				lm.vlbHops[pi] += w * float64(h)
			}
			for _, e := range g.unionArena[g.unionStart[j]:g.unionStart[j+1]] {
				if acc.mark[e] == acc.gen {
					lm.vlbArena = append(lm.vlbArena, EdgeWeight{E: e, W: acc.w[e]})
				}
			}
		}
	}
	for q := prev + 1; q <= n*n; q++ {
		lm.vlbStart[q] = int32(len(lm.vlbArena))
	}
	lm.buildTime = time.Since(start)
	return lm, true
}

// Paths returns the number of cached paths.
func (g *MatrixGrid) Paths() int { return g.npaths }

// Bytes reports the resident size of the grid's caches (the shared
// MIN arena included; derived matrices alias rather than copy it).
func (g *MatrixGrid) Bytes() int64 {
	b := 4*int64(len(g.edges)) + 8*int64(len(g.keys)) + int64(len(g.hops))
	b += 4*int64(len(g.unionArena)) + 4*int64(len(g.unionStart))
	b += 16*int64(len(g.minArena)) + 4*int64(len(g.minStart)) + 8*int64(len(g.minHops))
	b += 4 * int64(len(g.off))
	return b
}

// BuildTime reports how long the grid build took.
func (g *MatrixGrid) BuildTime() time.Duration { return g.buildTime }
