package traffic

import (
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

func TestTornado(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	tor := Tornado{T: tp}
	seen := map[int]bool{}
	for n := 0; n < tp.NumNodes(); n++ {
		d := tor.DestOf(n)
		if d == n {
			t.Fatalf("tornado fixed point at %d", n)
		}
		if tp.GroupOfNode(d) == tp.GroupOfNode(n) {
			t.Fatalf("tornado stays in group for %d", n)
		}
		if seen[d] {
			t.Fatalf("tornado collision at %d", d)
		}
		seen[d] = true
		// All nodes of a group go to the same group: adversarial.
		want := (tp.GroupOfNode(n) + (tp.G-1)/2) % tp.G
		if tp.GroupOfNode(d) != want {
			t.Fatalf("tornado group %d want %d", tp.GroupOfNode(d), want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9) // 72 nodes -> 8x8 square
	tr := NewTranspose(tp)
	if tr.side != 8 {
		t.Fatalf("side %d want 8", tr.side)
	}
	for n := 0; n < tp.NumNodes(); n++ {
		d := tr.DestOf(n)
		if n < 64 {
			if tr.DestOf(d) != n {
				t.Fatalf("transpose not involutive at %d", n)
			}
		} else if d != n {
			t.Fatalf("out-of-square node %d not silent", n)
		}
	}
}

func TestBitComplementInvolution(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	b := BitComplement{T: tp}
	for n := 0; n < tp.NumNodes(); n++ {
		if b.DestOf(b.DestOf(n)) != n {
			t.Fatalf("bitcomp not involutive at %d", n)
		}
	}
}

func TestBitReverse(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9) // 72 nodes -> 64 active
	b := NewBitReverse(tp)
	if b.nbit != 6 {
		t.Fatalf("nbit %d want 6", b.nbit)
	}
	if d := b.DestOf(1); d != 32 {
		t.Fatalf("bitrev(1) = %d want 32", d)
	}
	for n := 0; n < 64; n++ {
		if b.DestOf(b.DestOf(n)) != n {
			t.Fatalf("bitrev not involutive at %d", n)
		}
	}
	if b.DestOf(70) != 70 {
		t.Fatal("overflow node not silent")
	}
}

func TestHotspotConcentration(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	h := NewHotspot(tp, 2, 60, 5)
	r := rng.New(1)
	hot := map[int]bool{int(h.Hot[0]): true, int(h.Hot[1]): true}
	hits := 0
	const trials = 20000
	src := 0
	for i := 0; i < trials; i++ {
		d, ok := h.Dest(r, src)
		if !ok {
			t.Fatal("not ok")
		}
		if hot[d] {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.5 || frac > 0.72 {
		t.Fatalf("hot fraction %.3f want ~0.6", frac)
	}
}

func TestStencil3D(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9) // 72 = 3x4x6... most cubic
	s := NewStencil3D(tp)
	if s.nx*s.ny*s.nz != tp.NumNodes() {
		t.Fatalf("grid %dx%dx%d != %d", s.nx, s.ny, s.nz, tp.NumNodes())
	}
	r := rng.New(2)
	src := 37
	seen := map[int]bool{}
	for i := 0; i < 600; i++ {
		d, ok := s.Dest(r, src)
		if !ok || d == src {
			t.Fatal("bad stencil destination")
		}
		seen[d] = true
	}
	// With periodic boundaries a node has exactly 6 distinct
	// neighbors (fewer only if a dimension has length <= 2).
	max := 6
	if s.nx <= 2 {
		max--
	}
	if s.ny <= 2 {
		max--
	}
	if s.nz <= 2 {
		max--
	}
	if len(seen) > 6 || len(seen) < 3 {
		t.Fatalf("stencil produced %d distinct neighbors", len(seen))
	}
	_ = max
}

func TestMostCubic(t *testing.T) {
	cases := map[int][3]int{
		8:   {2, 2, 2},
		64:  {4, 4, 4},
		72:  {3, 4, 6},
		288: {6, 6, 8},
	}
	for n, want := range cases {
		x, y, z := mostCubic(n)
		if x*y*z != n {
			t.Fatalf("mostCubic(%d) = %dx%dx%d", n, x, y, z)
		}
		if [3]int{x, y, z} != want {
			t.Errorf("mostCubic(%d) = %v want %v", n, [3]int{x, y, z}, want)
		}
	}
}

func TestAllToAllCoverage(t *testing.T) {
	tp := topo.MustNew(1, 2, 1, 3)
	a := NewAllToAll(tp)
	n := tp.NumNodes()
	r := rng.New(1)
	seen := map[int]int{}
	for i := 0; i < n-1; i++ {
		d, ok := a.Dest(r, 0)
		if !ok {
			t.Fatal("not ok")
		}
		seen[d]++
	}
	if len(seen) != n-1 {
		t.Fatalf("all-to-all covered %d of %d destinations", len(seen), n-1)
	}
	for d, c := range seen {
		if c != 1 {
			t.Fatalf("destination %d hit %d times in one round", d, c)
		}
	}
}

// Neighbor is nearest-group traffic: shift(1, 0) — provided as a
// named convenience because MIN handles it as badly as any shift.
func Neighbor(t *topo.Compiled) Shift { return Shift{T: t, DG: 1, DS: 0} }

func TestNeighborAlias(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	nb := Neighbor(tp)
	if nb.DG != 1 || nb.DS != 0 {
		t.Fatal("Neighbor is not shift(1,0)")
	}
}
