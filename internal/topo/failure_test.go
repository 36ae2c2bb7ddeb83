package topo

import "testing"

// TestPortQueryOKVariants pins the ok-returning forms against the
// panicking originals on valid inputs and checks that the edge cases
// that panic in the originals return ok=false instead.
func TestPortQueryOKVariants(t *testing.T) {
	tp := MustNew(2, 4, 2, 9)
	n := tp.NumSwitches()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			port, ok := tp.LocalPortOK(u, v)
			if want := u != v && tp.SameGroup(u, v); ok != want {
				t.Fatalf("LocalPortOK(%d,%d) ok=%v, want %v", u, v, ok, want)
			}
			if ok && port != tp.LocalPort(u, v) {
				t.Fatalf("LocalPortOK(%d,%d)=%d, LocalPort=%d", u, v, port, tp.LocalPort(u, v))
			}
		}
	}
	for sw := 0; sw < n; sw++ {
		for pt := -1; pt <= tp.Radix(); pt++ {
			peer, ok := tp.PeerOfPortOK(sw, pt)
			want := pt >= tp.P && pt < tp.Radix()
			if ok != want {
				t.Fatalf("PeerOfPortOK(%d,%d) ok=%v, want %v", sw, pt, ok, want)
			}
			if ok && peer != tp.PeerOfPort(sw, pt) {
				t.Fatalf("PeerOfPortOK(%d,%d)=%d, PeerOfPort=%d", sw, pt, peer, tp.PeerOfPort(sw, pt))
			}
		}
	}
	// Out-of-range switches must not panic either.
	if _, ok := tp.PeerOfPortOK(-1, tp.P); ok {
		t.Error("PeerOfPortOK(-1, local) = ok")
	}
	if _, ok := tp.PeerOfPortOK(n, tp.P); ok {
		t.Error("PeerOfPortOK(n, local) = ok")
	}
	if _, ok := tp.LocalPortOK(-1, 0); ok {
		t.Error("LocalPortOK(-1, 0) = ok")
	}
	if _, ok := tp.LocalPortOK(0, n); ok {
		t.Error("LocalPortOK(0, n) = ok")
	}
}

// TestFailGlobalLink checks that failing one global link kills
// exactly its two channels, filters the group-pair link lists on both
// sides, and is idempotent.
func TestFailGlobalLink(t *testing.T) {
	tp := MustNew(4, 8, 4, 9)
	m := NewFailureMask(tp)
	sw, gp := 5, 2
	peer, ppt := tp.GlobalPeer(sw, gp), tp.GlobalPeerPort(sw, gp)

	dead, err := m.FailGlobalLink(sw, gp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 2 {
		t.Fatalf("got %d newly dead channels, want 2", len(dead))
	}
	if !m.ChannelDead(sw, tp.GlobalPort(gp)) || !m.ChannelDead(peer, tp.GlobalPort(ppt)) {
		t.Fatal("failed link's channels not dead")
	}
	gi, gj := tp.GroupOf(sw), tp.GroupOf(peer)
	if got, want := len(m.LinksBetweenGroups(gi, gj)), tp.K-1; got != want {
		t.Fatalf("forward link list has %d links, want %d", got, want)
	}
	if got, want := len(m.LinksBetweenGroups(gj, gi)), tp.K-1; got != want {
		t.Fatalf("reverse link list has %d links, want %d", got, want)
	}
	// Unrelated pairs keep the pristine shared list.
	if got := len(m.LinksBetweenGroups((gi+1)%tp.G, (gj+2)%tp.G)); got != tp.K {
		t.Fatalf("unrelated link list has %d links, want %d", got, tp.K)
	}
	// Idempotent: refailing returns no delta and counts once.
	dead, err = m.FailGlobalLink(sw, gp)
	if err != nil || len(dead) != 0 {
		t.Fatalf("refail: dead=%v err=%v", dead, err)
	}
	if g, l, s := m.Counts(); g != 1 || l != 0 || s != 0 {
		t.Fatalf("Counts() = %d,%d,%d, want 1,0,0", g, l, s)
	}
	if _, err := m.FailGlobalLink(-1, 0); err == nil {
		t.Error("FailGlobalLink(-1,0) accepted")
	}
	if _, err := m.FailGlobalLink(0, tp.H); err == nil {
		t.Error("FailGlobalLink(0,H) accepted")
	}
}

// TestFailLocalLinkAndSwitch checks bidirectional local kills and the
// whole-switch case.
func TestFailLocalLinkAndSwitch(t *testing.T) {
	tp := MustNew(4, 8, 4, 9)
	m := NewFailureMask(tp)
	u, v := 1, 3
	if _, err := m.FailLocalLink(u, v); err != nil {
		t.Fatal(err)
	}
	if !m.ChannelDead(u, tp.LocalPort(u, v)) || !m.ChannelDead(v, tp.LocalPort(v, u)) {
		t.Fatal("local link channels not dead in both directions")
	}
	if _, err := m.FailLocalLink(0, tp.A); err == nil {
		t.Error("cross-group FailLocalLink accepted")
	}
	if _, err := m.FailLocalLink(2, 2); err == nil {
		t.Error("self FailLocalLink accepted")
	}

	sw := 10
	dead, err := m.FailSwitch(sw)
	if err != nil {
		t.Fatal(err)
	}
	// Every channel out of and into sw must be dead.
	wantDead := 2*(tp.A-1) + 2*tp.H
	if len(dead) != wantDead {
		t.Fatalf("FailSwitch killed %d channels, want %d", len(dead), wantDead)
	}
	if !m.SwitchDead(sw) {
		t.Fatal("switch not dead")
	}
	// Terminal-port query reports the switch state.
	if !m.ChannelDead(sw, 0) || m.ChannelDead(0, 0) {
		t.Fatal("terminal-port ChannelDead does not track switch state")
	}
	g := tp.GroupOf(sw)
	for i := 0; i < tp.A; i++ {
		o := tp.SwitchID(g, i)
		if o == sw {
			continue
		}
		if !m.ChannelDead(o, tp.LocalPort(o, sw)) {
			t.Fatalf("channel into dead switch from %d still alive", o)
		}
	}
	for gp := 0; gp < tp.H; gp++ {
		peer, ppt := tp.GlobalPeer(sw, gp), tp.GlobalPeerPort(sw, gp)
		if !m.ChannelDead(peer, tp.GlobalPort(ppt)) {
			t.Fatalf("global channel into dead switch from %d still alive", peer)
		}
	}
	// Refailing the switch is a no-op.
	if dead, _ := m.FailSwitch(sw); len(dead) != 0 {
		t.Fatalf("refail switch returned %d channels", len(dead))
	}
	if len(m.DeadChannels()) != 2+wantDead {
		t.Fatalf("DeadChannels has %d entries, want %d", len(m.DeadChannels()), 2+wantDead)
	}
}

// TestFailureMaskClone: a clone and its original fail independently —
// channels, switches, counts, dead-channel list and filtered link lists.
func TestFailureMaskClone(t *testing.T) {
	tp := MustNew(2, 4, 2, 9)
	m := NewFailureMask(tp)
	if _, err := m.FailGlobalLink(0, 0); err != nil {
		t.Fatal(err)
	}
	peer := tp.GlobalPeer(0, 0)
	gi, gj := tp.GroupOf(0), tp.GroupOf(peer)
	before := m.String()

	c := m.Clone()
	if _, err := c.FailSwitch(peer); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailLocalLink(tp.SwitchID(gi, 1), tp.SwitchID(gi, 2)); err != nil {
		t.Fatal(err)
	}
	if m.String() != before || m.SwitchDead(peer) || m.NumDeadChannels() != 2 ||
		m.ChannelDead(tp.SwitchID(gi, 1), tp.LocalPort(tp.SwitchID(gi, 1), tp.SwitchID(gi, 2))) {
		t.Fatalf("failures on the clone reached the original: %v", m)
	}
	if !c.ChannelDead(0, tp.GlobalPort(0)) || c.NumDeadChannels() <= 2 {
		t.Fatalf("clone lost the original's failure: %v", c)
	}
	// The other way round, through the link lists both started sharing.
	if _, err := m.FailGlobalLink(tp.SwitchID(gi, 1), 0); err != nil {
		t.Fatal(err)
	}
	far := tp.GroupOf(tp.GlobalPeer(tp.SwitchID(gi, 1), 0))
	if got := len(c.LinksBetweenGroups(gi, far)); far != gj && got != tp.K {
		t.Fatalf("a failure on the original filtered the clone's link list to %d links", got)
	}
}
