package traffic

import (
	"fmt"
	"math/bits"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// Classic interconnection-network benchmark patterns beyond the
// paper's five (§4.1.3), in the BookSim tradition: tornado,
// transpose, bit-complement, bit-reverse, nearest-group neighbor,
// hotspot, uniform all-to-all phases and a 3D stencil exchange.
// They widen the evaluation surface of the library; the paper's
// experiments do not use them.

// Tornado sends each node halfway around the group ring: group g to
// group (g + ceil(g/2)-ish) — the classic worst case for rings,
// adversarial on Dragonfly's group level too.
type Tornado struct {
	T *topo.Compiled
}

// Name implements Pattern.
func (t Tornado) Name() string { return "tornado" }

// DestOf implements Deterministic.
func (t Tornado) DestOf(src int) int {
	tp := t.T
	g := tp.GroupOfNode(src)
	shift := (tp.G - 1) / 2
	if shift == 0 {
		shift = 1
	}
	dg := (g + shift) % tp.G
	sw := tp.SwitchOfNode(src) % tp.A
	return tp.NodeID(tp.SwitchID(dg, sw), tp.NodeIndex(src))
}

// Dest implements Pattern.
func (t Tornado) Dest(_ *rng.Source, src int) (int, bool) {
	d := t.DestOf(src)
	return d, d != src
}

// Transpose treats the node id as a 2D coordinate in an n x n square
// (n = floor(sqrt(N))) and swaps the coordinates; nodes outside the
// square are silent. A standard matrix-transpose exchange.
type Transpose struct {
	T    *topo.Compiled
	side int
}

// NewTranspose builds the pattern for a topology.
func NewTranspose(t *topo.Compiled) *Transpose {
	side := 1
	for (side+1)*(side+1) <= t.NumNodes() {
		side++
	}
	return &Transpose{T: t, side: side}
}

// Name implements Pattern.
func (t *Transpose) Name() string { return "transpose" }

// DestOf implements Deterministic.
func (t *Transpose) DestOf(src int) int {
	if src >= t.side*t.side {
		return src // silent
	}
	r, c := src/t.side, src%t.side
	return c*t.side + r
}

// Dest implements Pattern.
func (t *Transpose) Dest(_ *rng.Source, src int) (int, bool) {
	d := t.DestOf(src)
	return d, d != src
}

// BitComplement sends node i to node (N-1-i): with power-of-two
// populations this is the address-bit complement; the mirrored form
// generalizes to any N.
type BitComplement struct {
	T *topo.Compiled
}

// Name implements Pattern.
func (b BitComplement) Name() string { return "bitcomp" }

// DestOf implements Deterministic.
func (b BitComplement) DestOf(src int) int { return b.T.NumNodes() - 1 - src }

// Dest implements Pattern.
func (b BitComplement) Dest(_ *rng.Source, src int) (int, bool) {
	d := b.DestOf(src)
	return d, d != src
}

// BitReverse reverses the low bits of the node id within the largest
// power-of-two population; leftover nodes are silent.
type BitReverse struct {
	T    *topo.Compiled
	nbit uint
}

// NewBitReverse builds the pattern for a topology.
func NewBitReverse(t *topo.Compiled) *BitReverse {
	n := t.NumNodes()
	nbit := uint(bits.Len(uint(n))) - 1
	return &BitReverse{T: t, nbit: nbit}
}

// Name implements Pattern.
func (b *BitReverse) Name() string { return "bitrev" }

// DestOf implements Deterministic.
func (b *BitReverse) DestOf(src int) int {
	if src >= 1<<b.nbit {
		return src
	}
	return int(bits.Reverse64(uint64(src)) >> (64 - b.nbit))
}

// Dest implements Pattern.
func (b *BitReverse) Dest(_ *rng.Source, src int) (int, bool) {
	d := b.DestOf(src)
	return d, d != src
}

// Hotspot sends a fraction of every node's packets to a small set of
// hot destinations and the rest uniformly — an incast approximation.
type Hotspot struct {
	T       *topo.Compiled
	Hot     []int32
	HotPct  int
	uniform Uniform
}

// NewHotspot picks nHot random hot nodes receiving hotPct% of
// traffic.
func NewHotspot(t *topo.Compiled, nHot, hotPct int, seed uint64) *Hotspot {
	if nHot < 1 || nHot > t.NumNodes() || hotPct < 0 || hotPct > 100 {
		panic("traffic: bad hotspot parameters")
	}
	r := rng.New(seed)
	perm := r.Perm(t.NumNodes())[:nHot]
	hot := make([]int32, nHot)
	for i, v := range perm {
		hot[i] = int32(v)
	}
	return &Hotspot{T: t, Hot: hot, HotPct: hotPct, uniform: Uniform{T: t}}
}

// Name implements Pattern.
func (h *Hotspot) Name() string {
	return fmt.Sprintf("hotspot(%d,%d%%)", len(h.Hot), h.HotPct)
}

// Dest implements Pattern.
func (h *Hotspot) Dest(r *rng.Source, src int) (int, bool) {
	if r.Intn(100) < h.HotPct {
		d := int(h.Hot[r.Intn(len(h.Hot))])
		if d != src {
			return d, true
		}
	}
	return h.uniform.Dest(r, src)
}

// Stencil3D is a halo exchange on a 3D process grid: each rank sends
// to its six axis neighbors (periodic), one chosen uniformly per
// packet. Ranks are laid out linearly over nodes; the grid is the
// most-cubic factorization of N.
type Stencil3D struct {
	T          *topo.Compiled
	nx, ny, nz int
}

// NewStencil3D builds the pattern; it uses all N nodes.
func NewStencil3D(t *topo.Compiled) *Stencil3D {
	n := t.NumNodes()
	nx, ny, nz := mostCubic(n)
	return &Stencil3D{T: t, nx: nx, ny: ny, nz: nz}
}

// mostCubic factors n into three factors as close as possible.
func mostCubic(n int) (int, int, int) {
	bestX, bestY, bestZ := 1, 1, n
	bestSpread := n
	for x := 1; x*x*x <= n; x++ {
		if n%x != 0 {
			continue
		}
		m := n / x
		for y := x; y*y <= m; y++ {
			if m%y != 0 {
				continue
			}
			z := m / y
			if spread := z - x; spread < bestSpread {
				bestSpread = spread
				bestX, bestY, bestZ = x, y, z
			}
		}
	}
	return bestX, bestY, bestZ
}

// Name implements Pattern.
func (s *Stencil3D) Name() string {
	return fmt.Sprintf("stencil3d(%dx%dx%d)", s.nx, s.ny, s.nz)
}

// Dest implements Pattern.
func (s *Stencil3D) Dest(r *rng.Source, src int) (int, bool) {
	x := src % s.nx
	y := (src / s.nx) % s.ny
	z := src / (s.nx * s.ny)
	switch r.Intn(6) {
	case 0:
		x = (x + 1) % s.nx
	case 1:
		x = (x - 1 + s.nx) % s.nx
	case 2:
		y = (y + 1) % s.ny
	case 3:
		y = (y - 1 + s.ny) % s.ny
	case 4:
		z = (z + 1) % s.nz
	default:
		z = (z - 1 + s.nz) % s.nz
	}
	d := z*s.nx*s.ny + y*s.nx + x
	return d, d != src
}

// AllToAll cycles each node through every other destination in a
// node-specific order, approximating a personalized all-to-all
// (each packet goes to the next destination in the rotation). It
// keeps per-source schedule state and therefore implements Cloner:
// sweep.Fixed hands every concurrently running simulation its own
// clone with a fresh schedule.
type AllToAll struct {
	T    *topo.Compiled
	next []int32
}

// NewAllToAll builds the pattern.
func NewAllToAll(t *topo.Compiled) *AllToAll {
	return &AllToAll{T: t, next: make([]int32, t.NumNodes())}
}

// Name implements Pattern.
func (a *AllToAll) Name() string { return "alltoall" }

// ClonePattern implements Cloner: the clone starts its rotation from
// the beginning, independent of the receiver.
func (a *AllToAll) ClonePattern() Pattern { return NewAllToAll(a.T) }

// Dest implements Pattern.
func (a *AllToAll) Dest(_ *rng.Source, src int) (int, bool) {
	n := a.T.NumNodes()
	// Rank-rotated schedule: step k sends to (src + 1 + k) mod n,
	// skipping self.
	k := a.next[src]
	a.next[src] = (k + 1) % int32(n-1)
	d := (src + 1 + int(k)) % n
	return d, d != src
}
