package paths

import (
	"fmt"
	"slices"
	"testing"

	"tugal/internal/topo"
)

// linkMask is a mask with exactly the links of chs failed, on a fresh
// topology: a failure kills both directions of a link together, so a
// path crosses a channel of a failure's delta exactly when it does not
// survive this mask.
func linkMask(tp *topo.Compiled, chs []topo.Channel) *topo.FailureMask {
	m := topo.NewFailureMask(tp)
	for _, c := range chs {
		sw, pt := int(c.Sw), int(c.Port)
		peer, _ := tp.PeerOfPortOK(sw, pt)
		var err error
		if tp.KindOfPort(pt) == topo.Global {
			_, err = m.FailGlobalLink(sw, pt-tp.GlobalPort(0))
		} else {
			_, err = m.FailLocalLink(sw, peer)
		}
		if err != nil {
			panic(err)
		}
	}
	return m
}

// deltaSteps are TestDeltaIDsMatchDecode's failures, applied in turn to
// one mask: a global link, a local link, a switch, a switch whose links
// died first (its last step has no new channel) and the global link
// again (already dead).
func deltaSteps(tp *topo.Compiled) []failScenario {
	sw := tp.SwitchID(tp.G-2, 1)
	links := func(_ *topo.Compiled, m *topo.FailureMask) (delta []topo.Channel) {
		for i := 0; i < tp.A; i++ {
			if v := tp.SwitchID(tp.GroupOf(sw), i); v != sw {
				d, _ := m.FailLocalLink(sw, v)
				delta = append(delta, d...)
			}
		}
		for gp := 0; gp < tp.H; gp++ {
			d, _ := m.FailGlobalLink(sw, gp) // an unwired slot kills nothing
			delta = append(delta, d...)
		}
		return delta
	}
	last := func(_ *topo.Compiled, m *topo.FailureMask) []topo.Channel {
		d, err := m.FailSwitch(sw)
		if err != nil || len(d) != 0 {
			panic(fmt.Sprintf("switch %d died with %d new channels: %v", sw, len(d), err))
		}
		return d
	}
	steps := failSteps()
	return append(steps, failScenario{"links-of-switch", links}, failScenario{"switch-after-links", last}, failScenario{"dead-global-link", steps[0].step})
}

// TestDeltaIDsMatchDecode holds Delta, on every ordered pair, to a
// brute force that decodes each stored path (Store.Ports) and scans it
// (crossesScan) over the dense masks of the delta's links alone, of the
// old and of the new mask: a path alive before is listed by AppendIDs
// exactly when it is dead after, a listed path is dead after, and Kills
// is true on exactly the listed paths. Kills is held to the same scan
// on every MIN leg (MinLegs), where a zero-hop leg dies with its newly
// dead switch: the switch-after-links step kills one with no new
// channel. On dfly(2,4,2,5) in both arrangements and d3(12,4,2), over
// the full set, a strategic store and the full set compiled degraded,
// through deltaSteps' failures.
func TestDeltaIDsMatchDecode(t *testing.T) {
	absolute := topo.MustNew(2, 4, 2, 5)
	relative, err := topo.NewArranged(2, 4, 2, 5, topo.Relative)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Compiled{absolute, relative, topo.MustNewD3(12, 4, 2)} {
		start := topo.NewFailureMask(tp)
		if _, err := start.FailLocalLink(tp.SwitchID(0, 0), tp.SwitchID(0, 2)); err != nil {
			t.Fatal(err)
		}
		stores := []*Store{
			Compile(tp, Full{T: tp}),
			Compile(tp, Strategic{T: tp, FirstLeg: 2}),
			CompileDegraded(tp, Full{T: tp}, start),
		}
		for _, st := range stores {
			t.Run(fmt.Sprintf("%s/%s/%v", tp.Label(), st.Name(), st.Mask()), func(t *testing.T) {
				n := tp.NumSwitches()
				mask := topo.NewFailureMask(tp)
				if st.Mask() != nil {
					mask = st.Mask().Clone()
				}
				listed, zeroHop := 0, 0
				var was, now []Leg
				for _, sc := range deltaSteps(tp) {
					old := mask.Clone()
					delta := sc.step(tp, mask)
					kills := NewDelta(old, mask, delta)
					crossed := linkMask(tp, delta).DeadDense()
					for pi := range n * n {
						s, d := pi/n, pi%n
						first, count := st.PairRange(s, d)
						var want []PathID
						for id := first; id < first+PathID(count); id++ {
							ports := st.Ports(s, d, id)
							hit := portsCross(tp, s, ports, crossed)
							before, after := !portsCross(tp, s, ports, old.DeadDense()), !portsCross(tp, s, ports, mask.DeadDense())
							if hit {
								want = append(want, id)
							}
							if before && !after != (before && hit) || hit && after {
								t.Fatalf("%s pair (%d,%d) path %d: crosses the delta %v, alive %v before and %v after",
									sc.name, s, d, id, hit, before, after)
							}
							if kills.Kills(s, ports) != hit {
								t.Fatalf("%s pair (%d,%d) path %d: crosses the delta %v, Kills %v", sc.name, s, d, id, hit, !hit)
							}
						}
						got := kills.AppendIDs(st, s, d, []PathID{-1})
						if got[0] != -1 || !slices.Equal(got[1:], want) {
							t.Fatalf("%s pair (%d,%d): AppendIDs %v, decoded %v", sc.name, s, d, got, want)
						}
						listed += len(want)
						was, now = MinLegs(tp, old, s, d, was[:0]), MinLegs(tp, mask, s, d, now[:0])
						for i := range was {
							ports := was[i].Ports()
							hit := portsCross(tp, s, ports, crossed)
							if ports == 0 {
								hit = mask.SwitchDead(s) && !old.SwitchDead(s)
								if hit {
									zeroHop++
								}
							}
							if b, a := was[i].Alive(), now[i].Alive(); b && !a != (b && hit) || hit && a {
								t.Fatalf("%s pair (%d,%d) MIN leg %d: dies %v, alive %v before and %v after", sc.name, s, d, i, hit, b, a)
							}
							if kills.Kills(s, ports) != hit {
								t.Fatalf("%s pair (%d,%d) MIN leg %d: dies %v, Kills %v", sc.name, s, d, i, hit, !hit)
							}
						}
					}
				}
				if listed == 0 || zeroHop == 0 {
					t.Fatalf("%d stored paths and %d zero-hop legs killed: the enumeration was not exercised", listed, zeroHop)
				}
			})
		}
	}
}
