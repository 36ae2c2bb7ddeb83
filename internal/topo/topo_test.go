package topo

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		p, a, h, g int
		wantErr    bool
	}{
		{4, 8, 4, 33, false},
		{4, 8, 4, 17, false},
		{4, 8, 4, 9, false},
		{4, 8, 4, 5, false},
		{4, 8, 4, 3, false},
		{4, 8, 4, 2, false},
		{13, 26, 13, 27, false},
		{2, 4, 2, 9, false},
		{2, 4, 2, 3, false},
		{0, 8, 4, 9, true},  // p < 1
		{4, 1, 4, 9, true},  // a < 2
		{4, 8, 0, 9, true},  // h < 1
		{4, 8, 4, 1, true},  // g < 2
		{4, 8, 4, 34, true}, // g > a*h+1
		{4, 8, 4, 12, true}, // 32 % 11 != 0
		{1, 2, 1, 3, false}, // minimal topology
	}
	for _, c := range cases {
		_, err := New(c.p, c.a, c.h, c.g)
		if (err != nil) != c.wantErr {
			t.Errorf("New(%d,%d,%d,%d): err=%v, wantErr=%v", c.p, c.a, c.h, c.g, err, c.wantErr)
		}
	}
}

// TestCompileLimits: parameters every family check accepts but the
// compiled arenas or a route word cannot hold are an ErrBadParams naming
// the limit, refused before Compile allocates anything (the first used
// to die on a 160 GB make); instances on the limits still compile.
func TestCompileLimits(t *testing.T) {
	over := []struct {
		p, a, h, g int
		limit      string
	}{
		{1, 100000, 100000, 2, "radix"}, // a past swIdx's int16 too
		{1, 40000, 1, 40001, "radix"},
		{120, 4, 6, 3, "radix"}, // 129 ports
		{1, 64, 32, 2049, "G <="},
		{1, 93, 11, 1024, "switches"},  // 95 232 of them
		{1, 73, 42, 512, "peer-table"}, // 37 376 switches x 114 ports
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range over {
		_, err := New(c.p, c.a, c.h, c.g)
		if !errors.Is(err, ErrBadParams) || !strings.Contains(err.Error(), c.limit) {
			t.Errorf("New(%d,%d,%d,%d): err=%v, want ErrBadParams naming the %s limit", c.p, c.a, c.h, c.g, err, c.limit)
		}
	}
	if _, err := NewD3(254, 2, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("NewD3(254,2): err=%v, want ErrBadParams", err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<16 {
		t.Errorf("refusing %d schemas allocated %d bytes", len(over)+1, d)
	}

	for _, c := range [][4]int{
		{13, 26, 13, 27}, // the largest shipped instance
		{1, 64, 64, 2},   // radix exactly MaxRadix
	} {
		if _, err := New(c[0], c[1], c[2], c[3]); err != nil {
			t.Errorf("New(%v): %v", c, err)
		}
	}
	if _, err := NewD3(127, 127, 0); err != nil { // d3's radix is K+1
		t.Errorf("NewD3(127,127): %v", err)
	}
}

func TestTable2(t *testing.T) {
	// The paper's Table 2 (its 135-switch entry for g=17 is a typo:
	// 17 groups x 8 switches = 136).
	cases := []struct {
		p, a, h, g                  int
		pes, switches, linksPerPair int
	}{
		{4, 8, 4, 33, 1056, 264, 1},
		{4, 8, 4, 17, 544, 136, 2},
		{4, 8, 4, 9, 288, 72, 4},
		{13, 26, 13, 27, 9126, 702, 13},
	}
	for _, c := range cases {
		tp := MustNew(c.p, c.a, c.h, c.g)
		row := tp.Table2()
		if row.PEs != c.pes || row.Switches != c.switches || row.LinksPerGroupPair != c.linksPerPair {
			t.Errorf("%v: got %+v, want PEs=%d switches=%d k=%d",
				tp.Label(), row, c.pes, c.switches, c.linksPerPair)
		}
	}
}

func TestValidateAll(t *testing.T) {
	for _, c := range [][4]int{
		{4, 8, 4, 33}, {4, 8, 4, 17}, {4, 8, 4, 9}, {4, 8, 4, 5},
		{4, 8, 4, 3}, {4, 8, 4, 2}, {2, 4, 2, 9}, {2, 4, 2, 3},
		{1, 2, 1, 3}, {3, 6, 3, 19}, {13, 26, 13, 27},
	} {
		tp := MustNew(c[0], c[1], c[2], c[3])
		if err := tp.Validate(); err != nil {
			t.Errorf("%v: %v", tp.Label(), err)
		}
	}
}

// TestArrangementProperty exercises the arrangement invariants across
// pseudo-random parameter draws.
func TestArrangementProperty(t *testing.T) {
	f := func(pSeed, aSeed, hSeed, gSeed uint8) bool {
		p := 1 + int(pSeed)%4
		a := 2 + int(aSeed)%8
		h := 1 + int(hSeed)%4
		// Choose g among divisors: g-1 must divide a*h.
		ah := a * h
		var gs []int
		for g := 2; g <= ah+1; g++ {
			if ah%(g-1) == 0 {
				gs = append(gs, g)
			}
		}
		g := gs[int(gSeed)%len(gs)]
		tp, err := New(p, a, h, g)
		if err != nil {
			return false
		}
		return tp.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPortHelpers(t *testing.T) {
	tp := MustNew(4, 8, 4, 9)
	if tp.Radix() != 4+7+4 {
		t.Fatalf("radix = %d", tp.Radix())
	}
	// LocalPort and PeerOfPort are inverses.
	for u := 0; u < tp.NumSwitches(); u++ {
		for idx := 0; idx < tp.A; idx++ {
			v := (u/tp.A)*tp.A + idx
			if v == u {
				continue
			}
			pt := tp.LocalPort(u, v)
			if tp.KindOfPort(pt) != Local {
				t.Fatalf("port %d of %d not local", pt, u)
			}
			if got := tp.PeerOfPort(u, pt); got != v {
				t.Fatalf("PeerOfPort(%d,%d)=%d want %d", u, pt, got, v)
			}
		}
		for gp := 0; gp < tp.H; gp++ {
			pt := tp.GlobalPort(gp)
			if tp.KindOfPort(pt) != Global {
				t.Fatalf("port %d not global", pt)
			}
			if peer, _ := globalPeer(tp, u, gp); tp.PeerOfPort(u, pt) != peer {
				t.Fatalf("global peer mismatch")
			}
		}
	}
}

func TestLinksBetweenGroups(t *testing.T) {
	for _, c := range [][4]int{{4, 8, 4, 9}, {4, 8, 4, 17}, {4, 8, 4, 33}, {2, 4, 2, 3}} {
		tp := MustNew(c[0], c[1], c[2], c[3])
		for gi := 0; gi < tp.G; gi++ {
			for gj := 0; gj < tp.G; gj++ {
				if gi == gj {
					continue
				}
				links := tp.LinksBetweenGroups(gi, gj)
				if len(links) != tp.K {
					t.Fatalf("%v groups(%d,%d): %d links want %d", tp.Label(), gi, gj, len(links), tp.K)
				}
				for _, l := range links {
					if tp.GroupOf(int(l.From)) != gi || tp.GroupOf(int(l.To)) != gj {
						t.Fatalf("link endpoints in wrong groups")
					}
					if peer, _ := globalPeer(tp, int(l.From), int(l.FromPort)); peer != int(l.To) {
						t.Fatalf("link port inconsistent")
					}
				}
			}
		}
	}
}

// TestLinkSpread checks that parallel group-pair links are
// interleaved across switches (the "minor variation" property): for
// dfly(4,8,4,9) the 4 links between any pair depart from 4 distinct
// switches.
func TestLinkSpread(t *testing.T) {
	tp := MustNew(4, 8, 4, 9)
	for gj := 1; gj < tp.G; gj++ {
		links := tp.LinksBetweenGroups(0, gj)
		seen := map[int32]bool{}
		for _, l := range links {
			if seen[l.From] {
				t.Fatalf("links to group %d concentrated on switch %d", gj, l.From)
			}
			seen[l.From] = true
		}
	}
}

func TestNodeHelpers(t *testing.T) {
	tp := MustNew(4, 8, 4, 9)
	for node := 0; node < tp.NumNodes(); node++ {
		sw := tp.SwitchOfNode(node)
		if tp.NodeID(sw, tp.NodeIndex(node)) != node {
			t.Fatalf("node round-trip failed for %d", node)
		}
		if tp.GroupOfNode(node) != tp.GroupOf(sw) {
			t.Fatalf("group mismatch for node %d", node)
		}
	}
}

func TestRelativeArrangement(t *testing.T) {
	for _, c := range [][4]int{{4, 8, 4, 9}, {4, 8, 4, 17}, {4, 8, 4, 33}, {2, 4, 2, 5}} {
		tp, err := NewArranged(c[0], c[1], c[2], c[3], Relative)
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("%v relative: %v", tp.Label(), err)
		}
		// The relative wiring must differ from the absolute one
		// (unless the topology is so small they coincide).
		ta := MustNew(c[0], c[1], c[2], c[3])
		differ := false
		for sw := 0; sw < tp.NumSwitches() && !differ; sw++ {
			for gp := 0; gp < tp.H; gp++ {
				p1, _ := globalPeer(tp, sw, gp)
				p2, _ := globalPeer(ta, sw, gp)
				if p1 != p2 {
					differ = true
				}
			}
		}
		if !differ && c[3] > 3 {
			t.Errorf("%v: relative identical to absolute", tp.Label())
		}
	}
	if _, err := NewArranged(2, 4, 2, 5, Arrangement(9)); err == nil {
		t.Error("unknown arrangement accepted")
	}
}

func TestMetrics(t *testing.T) {
	for _, c := range [][4]int{{4, 8, 4, 9}, {4, 8, 4, 17}, {4, 8, 4, 33}, {2, 4, 2, 5}} {
		tp := MustNew(c[0], c[1], c[2], c[3])
		m := tp.ComputeMetrics()
		if m.Diameter != 3 {
			t.Fatalf("%v: diameter %d want 3", tp.Label(), m.Diameter)
		}
		if m.AvgShortestPath <= 1 || m.AvgShortestPath >= 3 {
			t.Fatalf("%v: avg shortest path %v", tp.Label(), m.AvgShortestPath)
		}
		want := tp.K * (tp.G / 2) * ((tp.G + 1) / 2)
		if m.GroupBisectionLinks != want {
			t.Fatalf("%v: bisection %d want %d", tp.Label(), m.GroupBisectionLinks, want)
		}
	}
	// Relative arrangement has the same metric structure.
	tr, _ := NewArranged(4, 8, 4, 9, Relative)
	if m := tr.ComputeMetrics(); m.Diameter != 3 {
		t.Fatalf("relative diameter %d", m.Diameter)
	}
}

// TestBisectionCountMatchesEnumeration cross-checks the closed form
// against direct link counting over a concrete bisection.
func TestBisectionCountMatchesEnumeration(t *testing.T) {
	tp := MustNew(2, 4, 2, 9)
	half := tp.G / 2
	count := 0
	for gi := 0; gi < half; gi++ {
		for gj := half; gj < tp.G; gj++ {
			count += len(tp.LinksBetweenGroups(gi, gj))
		}
	}
	if m := tp.ComputeMetrics(); m.GroupBisectionLinks != count {
		t.Fatalf("closed form %d vs enumerated %d", m.GroupBisectionLinks, count)
	}
}

func TestArrangementString(t *testing.T) {
	if Absolute.String() != "absolute" || Relative.String() != "relative" {
		t.Fatal("arrangement names")
	}
}

func TestBalanced(t *testing.T) {
	if !(Params{P: 4, A: 8, H: 4, G: 9}).Balanced() {
		t.Error("dfly(4,8,4,9) should be balanced")
	}
	if (Params{P: 4, A: 8, H: 3, G: 9}).Balanced() {
		t.Error("a != 2h should not be balanced")
	}
}
