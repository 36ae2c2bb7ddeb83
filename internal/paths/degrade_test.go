package paths

import (
	"fmt"
	"slices"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/rng"
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

// TestEdgeIndexWorkers pins the chunk-parallel index build, at 1, 2
// and 8 workers, byte-equal to per-channel lists appended in one
// sequential walk over the enumerated paths.
func TestEdgeIndexWorkers(t *testing.T) {
	for _, tp := range oracleTopos() {
		for _, pol := range []Policy{Full{T: tp}, Strategic{T: tp, FirstLeg: 2}} {
			t.Run(fmt.Sprintf("%s/%s", tp.Label(), pol.Name()), func(t *testing.T) {
				base := Compile(tp, pol)
				n, nonTerm := tp.NumSwitches(), tp.A-1+tp.H
				lists := make([][]int32, n*nonTerm)
				for pi := 0; pi < n*n; pi++ {
					for _, p := range base.Enumerate(pi/n, pi%n) {
						for h, pt := range p.Ports {
							ch := int(p.Sw[h])*nonTerm + int(pt) - tp.P
							if l := lists[ch]; len(l) == 0 || l[len(l)-1] != int32(pi) {
								lists[ch] = append(lists[ch], int32(pi))
							}
						}
					}
				}
				start := []int32{0}
				var pairs []int32
				for _, l := range lists {
					pairs = append(pairs, l...)
					start = append(start, int32(len(pairs)))
				}
				for _, workers := range []int{1, 2, 8} {
					st := *base // the same arenas, no index yet
					old := exec.SetDefault(exec.NewPool(workers))
					st.BuildEdgeIndex()
					exec.SetDefault(old)
					if !slices.Equal(st.idx.start, start) {
						t.Fatalf("%d workers: channel offsets differ from the sequential lists", workers)
					}
					if !slices.Equal(st.idx.pairs, pairs) {
						t.Fatalf("%d workers: pair lists differ from the sequential lists", workers)
					}
				}
			})
		}
	}
}

// crossers is the brute-force DirtyPairs: for each channel in turn,
// the pairs in ascending order with a stored path across it, each pair
// listed once.
func crossers(st *Store, chs []topo.Channel) [][2]int32 {
	n := st.T.NumSwitches()
	hit := make([][]bool, len(chs)) // hit[c][pi]: a path of pair pi crosses chs[c]
	for c := range hit {
		hit[c] = make([]bool, n*n)
	}
	for pi := 0; pi < n*n; pi++ {
		for _, p := range st.Enumerate(pi/n, pi%n) {
			for h, pt := range p.Ports {
				if c := slices.Index(chs, topo.Channel{Sw: p.Sw[h], Port: pt}); c >= 0 {
					hit[c][pi] = true
				}
			}
		}
	}
	var out [][2]int32
	seen := make([]bool, n*n)
	for c := range chs {
		for pi, crossed := range hit[c] {
			if crossed && !seen[pi] {
				seen[pi] = true
				out = append(out, [2]int32{int32(pi / n), int32(pi % n)})
			}
		}
	}
	return out
}

// TestStoreDirtyPairsMatchesApplyFailures is why route.Service can keep
// the base store and never recompile it: over randomized sequences of
// failures applied to a growing mask, DirtyPairs for each delta (what
// spec.ApplyFailures hands Service.Fail) is — same pairs, same order —
// the brute-force list of pairs with a stored path across a newly dead
// channel, on the base store and on the compact store degraded under
// every failure before it (whose index is its own). A terminal-port
// channel or one of a switch that does not exist dirties nothing.
func TestStoreDirtyPairsMatchesApplyFailures(t *testing.T) {
	for _, tp := range []*topo.Compiled{topo.MustNew(2, 4, 2, 9), topo.MustNew(2, 4, 4, 3), topo.MustNewD3(12, 4, 2)} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tp.Label(), seed), func(t *testing.T) {
				r := rng.New(seed)
				base := Compile(tp, Full{T: tp})
				cur, mask := base, topo.NewFailureMask(tp)
				for step := 0; step < 8; step++ {
					var dead []topo.Channel
					switch sw := r.Intn(tp.NumSwitches()); r.Intn(3) {
					case 0:
						dead, _ = mask.FailGlobalLink(sw, r.Intn(tp.H)) // an unwired port kills nothing
					case 1:
						dead, _ = mask.FailLocalLink(sw, tp.SwitchID(tp.GroupOf(sw), r.Intn(tp.A)))
					default:
						dead, _ = mask.FailSwitch(sw)
					}
					for kind, st := range map[string]*Store{"base": base, "degraded": cur} {
						if got, want := st.DirtyPairs(dead), crossers(st, dead); !slices.Equal(got, want) {
							t.Fatalf("step %d (%v), %s store: DirtyPairs has %d pairs, brute force %d",
								step, mask, kind, len(got), len(want))
						}
					}
					cur = CompileDegraded(tp, cur, mask.Clone())
				}
				// Port 0 of switch 1 is a terminal port; before the guard its
				// channel id aliased switch 0's last channel.
				for _, ch := range []topo.Channel{{Sw: 1, Port: 0}, {Sw: int32(tp.NumSwitches()), Port: int8(tp.P)}, {Sw: -1, Port: int8(tp.P)}} {
					if got := base.DirtyPairs([]topo.Channel{ch}); len(got) != 0 {
						t.Fatalf("channel %v is no stored path's, yet dirtied %d pairs", ch, len(got))
					}
				}
			})
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
