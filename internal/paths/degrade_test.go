package paths

import (
	"fmt"
	"slices"
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
// chained store is byte-identical — pair index, hop array, port arena —
// to the policy's own compile under the mask and to the naive
// reference, and that it still carries the policy's name, conventional
// flag, the label and the mask it was handed.
func TestCompileDegradedComposes(t *testing.T) {
	for _, tp := range []*topo.Compiled{
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 4, 3), // parallel global links (h > g-1)
		topo.MustNewD3(12, 4, 2),
	} {
		for _, pol := range []Policy{Full{T: tp}, Strategic{T: tp, FirstLeg: 2}} {
			t.Run(fmt.Sprintf("%s/%s", tp.Label(), pol.Name()), func(t *testing.T) {
				for _, workers := range []int{1, 2, 8} {
					old := exec.SetDefault(exec.NewPool(workers))
					t.Cleanup(func() { exec.SetDefault(old) })
					mask := topo.NewFailureMask(tp)
					cur := Compile(tp, pol)
					cur.Label = "chained"
					for _, sc := range failSteps() {
						sc.step(tp, mask)
						prev, m := cur, mask.Clone()
						cur = CompileDegraded(tp, prev, m)
						if cur == prev || cur.Mask() != m {
							t.Fatalf("%s: a grown mask did not derive a new store under it", sc.name)
						}
						want := CompileDegraded(tp, pol, mask)
						pairStart, hops, ports := naiveCompile(tp, pol, mask)
						if !slices.Equal(cur.pairStart, want.pairStart) || !slices.Equal(cur.hops, want.hops) ||
							!slices.Equal(cur.ports, want.ports) {
							t.Fatalf("%s, %d workers: chained store differs from the policy's masked compile", sc.name, workers)
						}
						if !slices.Equal(cur.pairStart, pairStart) || !slices.Equal(cur.hops, hops) ||
							!slices.Equal(cur.ports, ports) {
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

// crossers is the brute-force VLB-dirty set of each channel:
// hit[c][pi] reports whether a stored path of pair pi crosses chs[c].
func crossers(st *Store, chs []topo.Channel) (hit [][]bool) {
	n := st.T.NumSwitches()
	at := make(map[topo.Channel]int, len(chs))
	hit = make([][]bool, len(chs))
	for c, ch := range chs {
		at[ch] = c
		hit[c] = make([]bool, n*n)
	}
	for pi := 0; pi < n*n; pi++ {
		for _, p := range st.Enumerate(pi/n, pi%n) {
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
// strategic store, has its source among LegEnds' srcs or its
// destination among its dsts. A terminal-port channel, one of a switch
// that does not exist and one of a port past the radix give empty sets.
func TestLegEndsCover(t *testing.T) {
	for _, tp := range legEndTopos() {
		n := tp.NumSwitches()
		var chs []topo.Channel
		for sw := 0; sw < n; sw++ {
			for pt := tp.P; pt < tp.Radix(); pt++ {
				if _, ok := tp.PeerOfPortOK(sw, pt); ok {
					chs = append(chs, topo.Channel{Sw: int32(sw), Port: int8(pt)})
				}
			}
		}
		for _, pol := range []Policy{Full{T: tp}, Strategic{T: tp, FirstLeg: 2}} {
			t.Run(fmt.Sprintf("%s/%s", tp.Label(), pol.Name()), func(t *testing.T) {
				hit := crossers(Compile(tp, pol), chs)
				for c, ch := range chs {
					srcs, dsts := LegEnds(tp, chs[c:c+1])
					for pi, crossed := range hit[c] {
						if crossed && !srcs[pi/n] && !dsts[pi%n] {
							t.Fatalf("channel %v: pair (%d,%d) has a path across it, yet neither end is a leg end", ch, pi/n, pi%n)
						}
					}
				}
			})
		}
		// Port 0 of switch 1 is a terminal port.
		for _, ch := range []topo.Channel{{Sw: 1, Port: 0}, {Sw: int32(n), Port: int8(tp.P)}, {Sw: -1, Port: int8(tp.P)}, {Sw: 0, Port: int8(tp.Radix())}} {
			srcs, dsts := LegEnds(tp, []topo.Channel{ch})
			if slices.Contains(srcs, true) || slices.Contains(dsts, true) {
				t.Fatalf("%s: channel %v is no stored path's, yet has leg ends", tp.Label(), ch)
			}
		}
	}
}

// TestDegradedTwinsAndRemoval is the twin-consistency property: on a
// store degraded step by step, duplicate concrete paths (EqualIDs twins) must
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
		removed := make([]bool, st.NumPaths())
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				first, count := st.PairRange(s, d)
				for k := 0; k < count; k++ {
					id := first + PathID(k)
					if k%2 != 1 || removed[id] {
						continue
					}
					removed[id] = true
					for j := 0; j < count; j++ {
						jd := first + PathID(j)
						if jd != id && !removed[jd] && st.EqualIDs(id, jd) {
							removed[jd] = true
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
					var p Path
					st.MaterializeInto(s, id, &p)
					if got, want := out.Contains(s, d, p), !removed[id]; got != want {
						t.Fatalf("%s: pair (%d,%d) path %v: Contains=%v, removed=%v",
							tp.Label(), s, d, p, got, removed[id])
					}
				}
			}
		}
	}
}
