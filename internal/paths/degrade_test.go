package paths

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/topo"
)

// failScenario applies one failure step to a mask, returning the
// newly dead channels.
type failScenario struct {
	name string
	step func(t *topo.Compiled, m *topo.FailureMask) []topo.Channel
}

func failSteps() []failScenario {
	return []failScenario{
		{"global-link", func(t *topo.Compiled, m *topo.FailureMask) []topo.Channel {
			d, err := m.FailGlobalLink(t.A/2, t.H-1)
			if err != nil {
				panic(err)
			}
			return d
		}},
		{"local-link", func(t *topo.Compiled, m *topo.FailureMask) []topo.Channel {
			d, err := m.FailLocalLink(t.SwitchID(1, 0), t.SwitchID(1, 1))
			if err != nil {
				panic(err)
			}
			return d
		}},
		{"switch", func(t *topo.Compiled, m *topo.FailureMask) []topo.Channel {
			d, err := m.FailSwitch(t.SwitchID(t.G-1, 0))
			if err != nil {
				panic(err)
			}
			return d
		}},
	}
}

// TestCompileDegradedComposes grows a failure mask step by step,
// degrading the previous step's store under a clone of the mask each
// time, and checks after every step, at 1, 2 and 8 workers, that the
// chained store holds the bits of the policy's own compile under the
// mask and the naive reference's paths (pair index, hops, ports), and that it still carries the policy's name, conventional
// flag, the label and the mask it was handed.
func TestCompileDegradedComposes(t *testing.T) {
	for _, tp := range []*topo.Compiled{
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 4, 3), // parallel global links (h > g-1)
		topo.MustNewD3(12, 4, 2),
	} {
		for _, pol := range []Policy{Full{T: tp}, Strategic{T: tp, FirstLeg: 2}} {
			t.Run(fmt.Sprintf("%s/%s", tp.Label(), pol.Name()), func(t *testing.T) {
				refs := make([]naiveRef, len(failSteps())) // by step, from the first worker count's masks
				for _, workers := range []int{1, 2, 8} {
					old := exec.SetDefault(exec.NewPool(workers))
					t.Cleanup(func() { exec.SetDefault(old) })
					mask := topo.NewFailureMask(tp)
					cur := Compile(tp, pol)
					cur.Label = "chained"
					for k, sc := range failSteps() {
						sc.step(tp, mask)
						prev, m := cur, mask.Clone()
						cur = CompileDegraded(tp, prev, m)
						if cur == prev || cur.Mask() != m {
							t.Fatalf("%s: a grown mask did not derive a new store under it", sc.name)
						}
						want := CompileDegraded(tp, pol, mask)
						if refs[k].pairStart == nil {
							refs[k] = naiveCompileAll(tp, []Policy{pol}, mask)[0]
						}
						pairStart, hops, ports := refs[k].pairStart, refs[k].hops, refs[k].ports
						if !sameStore(cur, want) {
							t.Fatalf("%s, %d workers: chained store differs from the policy's masked compile", sc.name, workers)
						}
						curHops, curPorts := readStore(cur)
						if !slices.Equal(cur.pairStart, pairStart) || !slices.Equal(curHops, hops) ||
							!slices.Equal(curPorts, ports) {
							t.Fatalf("%s, %d workers: chained store differs from the naive reference", sc.name, workers)
						}
						if cur.Name() != "chained" || cur.name != pol.Name() || IsConventional(cur) != IsConventional(pol) {
							t.Fatalf("%s: chained store is %q (%q), conventional %v", sc.name, cur.Name(), cur.name, IsConventional(cur))
						}
					}
				}
			})
		}
	}
}

// crossers is the brute-force dirty set of each channel over the paths
// enum lists: hit[c][pi] reports whether a path of pair pi crosses
// chs[c].
func crossers(tp *topo.Compiled, chs []topo.Channel, enum func(s, d int) []Path) (hit [][]bool) {
	n := tp.NumSwitches()
	at := make(map[topo.Channel]int, len(chs))
	hit = make([][]bool, len(chs))
	for c, ch := range chs {
		at[ch] = c
		hit[c] = make([]bool, n*n)
	}
	for pi := 0; pi < n*n; pi++ {
		for _, p := range enum(pi/n, pi%n) {
			for h, pt := range p.Ports {
				if c, ok := at[topo.Channel{Sw: p.Sw[h], Port: pt}]; ok {
					hit[c][pi] = true
				}
			}
		}
	}
	return hit
}

// TestLegEndsCover is why route.Tables.ApplyDelta can find a failure's
// rows without an index over the store: for every non-terminal directed
// channel, every pair with a stored path across it, on a full and on a
// strategic store, is a row Delta.Touches, that is, a killed leg or
// in-group hop starts at its source or ends at its destination; on
// every pair with a MIN path across it Touches says its MIN candidates
// can die (both ends are marked), and Delta.Kills is true on exactly
// its MIN paths that cross the channel. A switch that dies after all
// its links did touches its own rows and nothing else, the MIN
// candidates of its own pair alone, and kills its zero-hop route
// alone. A terminal-port channel, one of a
// switch that does not exist and one of a port past the radix touch no
// row.
func TestLegEndsCover(t *testing.T) {
	for _, tp := range legEndTopos() {
		n := tp.NumSwitches()
		pristine := topo.NewFailureMask(tp)
		var chs []topo.Channel
		for sw := 0; sw < n; sw++ {
			for pt := tp.P; pt < tp.Radix(); pt++ {
				if _, ok := tp.PeerOfPortOK(sw, pt); ok {
					chs = append(chs, topo.Channel{Sw: int32(sw), Port: int8(pt)})
				}
			}
		}
		deltas := make([]*Delta, len(chs))
		for c := range chs {
			deltas[c] = NewDelta(nil, pristine, chs[c:c+1])
		}
		for pi := 0; pi < n*n; pi++ {
			s, d := pi/n, pi%n
			for _, p := range EnumerateMin(tp, s, d) {
				for c, ch := range chs {
					crossed := false
					for h, pt := range p.Ports {
						crossed = crossed || (topo.Channel{Sw: p.Sw[h], Port: pt}) == ch
					}
					if _, min := deltas[c].Touches(s, d); crossed && !min {
						t.Fatalf("%s channel %v: pair (%d,%d) has a MIN path across it, yet no MIN candidate of it is touched", tp.Label(), ch, s, d)
					}
					if got := deltas[c].Kills(s, Packed(p.Ports)); got != crossed {
						t.Fatalf("%s channel %v: pair (%d,%d) MIN path %v crosses it %v, Kills %v", tp.Label(), ch, s, d, p, crossed, got)
					}
				}
			}
		}
		for _, pol := range []Policy{Full{T: tp}, Strategic{T: tp, FirstLeg: 2}} {
			t.Run(fmt.Sprintf("%s/%s", tp.Label(), pol.Name()), func(t *testing.T) {
				hit := crossers(tp, chs, Compile(tp, pol).Enumerate)
				for c, ch := range chs {
					for pi, crossed := range hit[c] {
						if row, _ := deltas[c].Touches(pi/n, pi%n); crossed && !row {
							t.Fatalf("channel %v: pair (%d,%d) has a path across it, yet is not touched", ch, pi/n, pi%n)
						}
					}
				}
			})
		}
		sw := tp.SwitchID(1, 0)
		before := topo.NewFailureMask(tp)
		for i := 0; i < tp.A; i++ {
			if v := tp.SwitchID(1, i); v != sw {
				before.FailLocalLink(sw, v)
			}
		}
		for gp := 0; gp < tp.H; gp++ {
			before.FailGlobalLink(sw, gp) // an unwired slot is an error and kills nothing
		}
		after := before.Clone()
		if delta, err := after.FailSwitch(sw); err != nil || len(delta) != 0 {
			t.Fatalf("%s: switch %d died with %d new channels: %v", tp.Label(), sw, len(delta), err)
		}
		last := NewDelta(before, after, nil)
		for x := 0; x < n; x++ {
			if last.Kills(x, 0) != (x == sw) {
				t.Fatalf("%s: switch %d died with no new channel; zero-hop route at %d dies %v", tp.Label(), sw, x, last.Kills(x, 0))
			}
			for y := 0; y < n; y++ {
				if row, min := last.Touches(x, y); row != (x == sw || y == sw) || min != (x == sw && y == sw) {
					t.Fatalf("%s: switch %d died with no new channel; pair (%d,%d) touched %v, its MIN candidates %v", tp.Label(), sw, x, y, row, min)
				}
			}
		}
		// Port 0 of switch 1 is a terminal port.
		for _, ch := range []topo.Channel{{Sw: 1, Port: 0}, {Sw: int32(n), Port: int8(tp.P)}, {Sw: -1, Port: int8(tp.P)}, {Sw: 0, Port: int8(tp.Radix())}} {
			dl := NewDelta(nil, pristine, []topo.Channel{ch})
			for pi := 0; pi < n*n; pi++ {
				if row, _ := dl.Touches(pi/n, pi%n); row {
					t.Fatalf("%s: channel %v is no stored path's, yet touches pair (%d,%d)", tp.Label(), ch, pi/n, pi%n)
				}
			}
		}
	}
}

// TestDegradedTwinsAndRemoval is the twin-consistency property: on a
// store degraded step by step, duplicate concrete paths (twins: equal
// Ports of one pair) must
// still be twinned, and removal-by-PathID (Without) must agree with
// Contains — removing a concrete path and all its twins makes
// Contains reject it, while every kept path stays accepted.
func TestDegradedTwinsAndRemoval(t *testing.T) {
	for _, pr := range []topo.Params{
		{P: 2, A: 4, H: 2, G: 9},
		{P: 2, A: 4, H: 4, G: 3},
	} {
		tp := topo.MustNew(pr.P, pr.A, pr.H, pr.G)
		n := tp.NumSwitches()
		mask := topo.NewFailureMask(tp)
		st := Compile(tp, Full{T: tp})
		for _, sc := range failSteps() {
			sc.step(tp, mask)
			st = CompileDegraded(tp, st, mask.Clone())
		}

		// Twins survive together: filtering is per concrete path, so
		// equal port sequences must still be either all present or all
		// absent — verified implicitly by removing every other path WITH
		// its twins and checking Contains afterwards.
		removed := NewIDSet(st.NumPaths())
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				first, count := st.PairRange(s, d)
				for k := 0; k < count; k++ {
					id := first + PathID(k)
					if k%2 != 1 || removed.Has(id) {
						continue
					}
					removed.Add(id)
					for j := 0; j < count; j++ {
						jd := first + PathID(j)
						if jd != id && !removed.Has(jd) && st.Ports(s, d, id) == st.Ports(s, d, jd) {
							removed.Add(jd)
						}
					}
				}
			}
		}
		out := st.Without(removed)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				first, count := st.PairRange(s, d)
				for k := 0; k < count; k++ {
					id := first + PathID(k)
					p := materializeID(st, s, d, id)
					if got, want := out.Contains(s, d, p), !removed.Has(id); got != want {
						t.Fatalf("%s: pair (%d,%d) path %v: Contains=%v, removed=%v",
							tp.Label(), s, d, p, got, !want)
					}
				}
			}
		}
	}
}

// TestDegradedStoreChecksItsMask: a store filtered under a mask that
// lacks one of the failures it was compiled under panics, naming both
// masks, whether the mask misses a dead channel or only a dead switch
// (every channel of which it kills); a mask that includes them all
// derives the store under it.
func TestDegradedStoreChecksItsMask(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	x := tp.SwitchID(2, 1)
	dead := topo.NewFailureMask(tp)
	if _, err := dead.FailSwitch(x); err != nil {
		t.Fatal(err)
	}
	links := topo.NewFailureMask(tp)
	for y := 0; y < tp.A; y++ {
		if y != tp.SwitchIndexInGroup(x) {
			links.FailLocalLink(x, tp.SwitchID(tp.GroupOf(x), y))
		}
	}
	for gp := 0; gp < tp.H; gp++ {
		links.FailGlobalLink(x, gp)
	}
	other := topo.NewFailureMask(tp)
	if _, err := other.FailGlobalLink(0, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		under, then *topo.FailureMask
	}{{"channel", degradedMask(tp), other}, {"switch", dead, links}} {
		st := CompileDegraded(tp, Strategic{T: tp, FirstLeg: 2}, c.under)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.under.String()) || !strings.Contains(msg, c.then.String()) {
					t.Fatalf("%s: the filter under a mask lacking a failure panicked with %q", c.name, msg)
				}
			}()
			CompileDegraded(tp, st, c.then)
		}()
		grown := c.under.Clone()
		if _, err := grown.FailGlobalLink(tp.NumSwitches()-1, 0); err != nil {
			t.Fatal(err)
		}
		if got := CompileDegraded(tp, st, grown); got.Mask() != grown {
			t.Fatalf("%s: a grown mask did not derive the store under it", c.name)
		}
	}
}
