package topo

import (
	"fmt"
	"testing"
)

// conformanceInstances is the cross-family test matrix: every
// invariant below must hold for every instance, dragonfly and swapped
// dragonfly alike. Kept small enough that the whole suite runs in
// well under a second.
func conformanceInstances(t *testing.T) []*Compiled {
	t.Helper()
	return []*Compiled{
		MustNew(2, 4, 2, 5),
		MustNew(4, 8, 4, 9),
		must(Compile(must(NewDragonfly(2, 4, 2, 5, Relative)))),
		MustNewD3(4, 2, 0),
		MustNewD3(8, 4, 0),
		MustNewD3(12, 4, 2),
		MustNewD3(6, 6, 0), // M == K edge: one position block
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// globalPeer is GlobalPeerOK on a port the caller knows is wired.
func globalPeer(c *Compiled, sw, gp int) (peer, peerGp int) {
	peer, peerGp, ok := c.GlobalPeerOK(sw, gp)
	if !ok {
		panic(fmt.Sprintf("topo: global port (%d,%d) unwired", sw, gp))
	}
	return peer, peerGp
}

// peerPort is the far-end port number of channel (sw, pt), read
// straight from the arena; -1 when the port is unwired.
func peerPort(c *Compiled, sw, pt int) int {
	return int(c.peerPort[sw*(c.A-1+c.H)+pt-c.P])
}

// TestConformanceValidate: the compiled arena's own structural audit
// passes for every family instance.
func TestConformanceValidate(t *testing.T) {
	for _, c := range conformanceInstances(t) {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Label(), err)
		}
	}
}

// TestConformancePortSymmetry: every wired non-terminal port is one
// end of a symmetric channel — the peer's peer port points straight
// back — and unwired slots answer ok=false from every query.
func TestConformancePortSymmetry(t *testing.T) {
	for _, c := range conformanceInstances(t) {
		for sw := 0; sw < c.NumSwitches(); sw++ {
			for pt := c.P; pt < c.Radix(); pt++ {
				peer, ok := c.PeerOfPortOK(sw, pt)
				peerPt := peerPort(c, sw, pt)
				if !ok {
					if peerPt >= 0 {
						t.Fatalf("%s: PeerOfPortOK(%d,%d) says unwired but the arena has far port %d",
							c.Label(), sw, pt, peerPt)
					}
					continue
				}
				back, ok2 := c.PeerOfPortOK(peer, peerPt)
				backPt := peerPort(c, peer, peerPt)
				if !ok2 || back != sw || backPt != pt {
					t.Fatalf("%s: channel (%d,%d)->(%d,%d) not symmetric: reverse is (%d,%d,%v)",
						c.Label(), sw, pt, peer, peerPt, back, backPt, ok2)
				}
				if sw == peer {
					t.Fatalf("%s: self-link at (%d,%d)", c.Label(), sw, pt)
				}
			}
		}
	}
}

// TestConformanceKindRadix: port kinds tile the radix exactly — p
// terminals, a-1 locals, h globals.
func TestConformanceKindRadix(t *testing.T) {
	for _, c := range conformanceInstances(t) {
		if got := c.Radix(); got != c.P+c.A-1+c.H {
			t.Fatalf("%s: radix %d != p+a-1+h = %d", c.Label(), got, c.P+c.A-1+c.H)
		}
		var nT, nL, nG int
		for pt := 0; pt < c.Radix(); pt++ {
			switch c.KindOfPort(pt) {
			case Terminal:
				nT++
			case Local:
				nL++
			case Global:
				nG++
			}
		}
		if nT != c.P || nL != c.A-1 || nG != c.H {
			t.Fatalf("%s: port kinds (%d,%d,%d) != (%d,%d,%d)", c.Label(), nT, nL, nG, c.P, c.A-1, c.H)
		}
	}
}

// TestConformanceLinkCounts: every ordered group pair carries exactly
// K parallel links, each link's endpoints live in the right groups,
// and the pair lists jointly account for every wired global channel.
func TestConformanceLinkCounts(t *testing.T) {
	for _, c := range conformanceInstances(t) {
		wired := 0
		for sw := 0; sw < c.NumSwitches(); sw++ {
			for gp := 0; gp < c.H; gp++ {
				if _, _, ok := c.GlobalPeerOK(sw, gp); ok {
					wired++
				}
			}
		}
		listed := 0
		for gi := 0; gi < c.G; gi++ {
			for gj := 0; gj < c.G; gj++ {
				if gi == gj {
					continue
				}
				links := c.LinksBetweenGroups(gi, gj)
				if len(links) != c.K {
					t.Fatalf("%s: pair (%d,%d) has %d links, want K=%d", c.Label(), gi, gj, len(links), c.K)
				}
				listed += len(links)
				for _, l := range links {
					if c.GroupOf(int(l.From)) != gi || c.GroupOf(int(l.To)) != gj {
						t.Fatalf("%s: link %+v listed under pair (%d,%d)", c.Label(), l, gi, gj)
					}
				}
			}
		}
		if wired != listed {
			t.Fatalf("%s: %d wired global channels but %d listed in pair cache", c.Label(), wired, listed)
		}
	}
}

// TestConformanceIDRoundTrips: switch and node id decompositions
// invert exactly over the whole instance.
func TestConformanceIDRoundTrips(t *testing.T) {
	for _, c := range conformanceInstances(t) {
		for sw := 0; sw < c.NumSwitches(); sw++ {
			if got := c.SwitchID(c.GroupOf(sw), c.SwitchIndexInGroup(sw)); got != sw {
				t.Fatalf("%s: switch %d round-trips to %d", c.Label(), sw, got)
			}
		}
		for n := 0; n < c.NumNodes(); n++ {
			if got := c.NodeID(c.SwitchOfNode(n), c.NodeIndex(n)); got != n {
				t.Fatalf("%s: node %d round-trips to %d", c.Label(), n, got)
			}
			if c.GroupOfNode(n) != c.GroupOf(c.SwitchOfNode(n)) {
				t.Fatalf("%s: node %d group mismatch", c.Label(), n)
			}
		}
	}
}

// TestConformanceFailureDeltas: Fail* calls return the newly dead
// channels exactly once — repeating a failure yields an empty delta
// and unchanged counts — and failing a switch skips unwired slots
// instead of erroring.
func TestConformanceFailureDeltas(t *testing.T) {
	for _, c := range conformanceInstances(t) {
		m := NewFailureMask(c)

		// First wired global port of switch 0's group peer structure.
		sw, gp := -1, -1
		for s := 0; s < c.NumSwitches() && sw < 0; s++ {
			for g := 0; g < c.H; g++ {
				if _, _, ok := c.GlobalPeerOK(s, g); ok {
					sw, gp = s, g
					break
				}
			}
		}
		if sw < 0 {
			t.Fatalf("%s: no wired global port at all", c.Label())
		}
		delta, err := m.FailGlobalLink(sw, gp)
		if err != nil || len(delta) != 2 {
			t.Fatalf("%s: FailGlobalLink delta=%v err=%v", c.Label(), delta, err)
		}
		again, err := m.FailGlobalLink(sw, gp)
		if err != nil || len(again) != 0 {
			t.Fatalf("%s: repeated FailGlobalLink delta=%v err=%v", c.Label(), again, err)
		}

		// An unwired slot must be a proper error, not a panic.
		for s := 0; s < c.NumSwitches(); s++ {
			for g := 0; g < c.H; g++ {
				if _, _, ok := c.GlobalPeerOK(s, g); !ok {
					if _, err := m.FailGlobalLink(s, g); err == nil {
						t.Fatalf("%s: FailGlobalLink(%d,%d) on unwired slot did not error", c.Label(), s, g)
					}
				}
			}
		}

		u, v := c.SwitchID(0, 0), c.SwitchID(0, 1)
		delta, err = m.FailLocalLink(u, v)
		if err != nil || len(delta) != 2 {
			t.Fatalf("%s: FailLocalLink delta=%v err=%v", c.Label(), delta, err)
		}
		if d2, _ := m.FailLocalLink(v, u); len(d2) != 0 {
			t.Fatalf("%s: reversed FailLocalLink not idempotent: %v", c.Label(), d2)
		}

		// Failing a whole switch (which may own unwired slots) succeeds
		// and kills each surviving channel exactly once.
		target := c.SwitchID(c.G-1, c.A-1)
		delta, err = m.FailSwitch(target)
		if err != nil {
			t.Fatalf("%s: FailSwitch: %v", c.Label(), err)
		}
		for _, ch := range delta {
			if !m.ChannelDead(int(ch.Sw), int(ch.Port)) {
				t.Fatalf("%s: delta channel %+v not dead", c.Label(), ch)
			}
		}
		if d2, _ := m.FailSwitch(target); len(d2) != 0 {
			t.Fatalf("%s: repeated FailSwitch delta=%v", c.Label(), d2)
		}
		seen := map[Channel]bool{}
		for _, ch := range m.DeadChannels() {
			if seen[ch] {
				t.Fatalf("%s: channel %+v killed twice", c.Label(), ch)
			}
			seen[ch] = true
		}
	}
}

// TestConformanceAdversarialShifts: the family's shift set is
// non-empty, in-range, and duplicate-free; the dragonfly's matches
// the paper's TYPE_1_SET size (g-1)·a.
func TestConformanceAdversarialShifts(t *testing.T) {
	for _, c := range conformanceInstances(t) {
		shifts := c.Net.AdversarialShifts()
		if len(shifts) == 0 {
			t.Fatalf("%s: empty adversarial set", c.Label())
		}
		if c.Family() == "dfly" && len(shifts) != (c.G-1)*c.A {
			t.Fatalf("%s: %d shifts, want (g-1)a = %d", c.Label(), len(shifts), (c.G-1)*c.A)
		}
		seen := map[[2]int]bool{}
		for _, s := range shifts {
			if s[0] < 1 || s[0] >= c.G || s[1] < 0 || s[1] >= c.A {
				t.Fatalf("%s: shift %v out of range", c.Label(), s)
			}
			if seen[s] {
				t.Fatalf("%s: duplicate shift %v", c.Label(), s)
			}
			seen[s] = true
		}
	}
}

// TestD3Wiring pins the swap construction itself: the global link of
// position k = q*M+r in group m lands on position q*M+m of group r,
// fixed points are unwired, and the wired-slot count is K*(M-1) per
// group... times M groups, M|K enforced at construction.
func TestD3Wiring(t *testing.T) {
	c := MustNewD3(8, 4, 0)
	unwired := 0
	for sw := 0; sw < c.NumSwitches(); sw++ {
		m, k := sw/8, sw%8
		q, r := k/4, k%4
		peer, pgp, ok := c.GlobalPeerOK(sw, 0)
		if r == m {
			if ok {
				t.Fatalf("fixed point (%d,%d) wired to %d", m, k, peer)
			}
			unwired++
			continue
		}
		want := r*8 + q*4 + m
		if !ok || peer != want || pgp != 0 {
			t.Fatalf("switch (%d,%d): peer=(%d,%d,%v), want (%d,0,true)", m, k, peer, pgp, ok, want)
		}
	}
	if unwired != 8 { // one fixed point per position block per group: (K/M)*M
		t.Fatalf("unwired slots = %d, want 8", unwired)
	}
	for _, bad := range [][2]int{{3, 4}, {4, 3}, {5, 4}, {0, 0}, {1, 1}} {
		if _, err := NewD3(bad[0], bad[1], 0); err == nil {
			t.Errorf("NewD3(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

// TestDragonflyInterfaceIdentity: the dragonfly rebuilt through the
// Network interface is structurally identical to itself under both
// query paths — every wired port agrees between GlobalPeerOK and the
// port-number accessors.
func TestDragonflyInterfaceIdentity(t *testing.T) {
	c := MustNew(4, 8, 4, 9)
	for sw := 0; sw < c.NumSwitches(); sw++ {
		for gp := 0; gp < c.H; gp++ {
			peer, pgp, ok := c.GlobalPeerOK(sw, gp)
			if !ok {
				t.Fatalf("dragonfly slot (%d,%d) unwired", sw, gp)
			}
			if got := c.PeerOfPort(sw, c.GlobalPort(gp)); got != peer {
				t.Fatalf("PeerOfPort(%d,%d)=%d, GlobalPeerOK says %d", sw, c.GlobalPort(gp), got, peer)
			}
			if got := peerPort(c, sw, c.GlobalPort(gp)); got != c.GlobalPort(pgp) {
				t.Fatalf("far port of (%d,%d) is %d, GlobalPeerOK says global port %d", sw, gp, got, pgp)
			}
		}
	}
	// Family wiring must be independent of compile order: two compiles
	// of the same instance produce identical link caches.
	c2 := MustNew(4, 8, 4, 9)
	for gi := 0; gi < c.G; gi++ {
		for gj := 0; gj < c.G; gj++ {
			if gi == gj {
				continue
			}
			a, b := c.LinksBetweenGroups(gi, gj), c2.LinksBetweenGroups(gi, gj)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("pair (%d,%d): %v != %v", gi, gj, a, b)
			}
		}
	}
}
