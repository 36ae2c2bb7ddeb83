package paths

import (
	"fmt"
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// crossesScan is the per-hop walk the store filter, the route table's
// row filter and the edge index each carried before the lockstep walk
// replaced them, kept as the oracle it is held to: path id out of src,
// hop by hop over the peer arena, reports whether it crosses a channel
// dead (indexed like FailureMask.DeadDense) marks.
func crossesScan(st *Store, src int, id PathID, dead []bool) bool {
	peer := st.T.PeerDense()
	nonTerm, p := st.T.A-1+st.T.H, st.T.P
	cur := src
	for _, pt := range st.Ports(id) {
		ch := cur*nonTerm + int(pt) - p
		if dead[ch] {
			return true
		}
		cur = int(peer[ch])
	}
	return false
}

// randomMask fails k random global links, local links and switches.
func randomMask(tp *topo.Compiled, r *rng.Source, k int) *topo.FailureMask {
	m := topo.NewFailureMask(tp)
	for i := 0; i < k; i++ {
		switch sw := r.Intn(tp.NumSwitches()); r.Intn(3) {
		case 0:
			m.FailGlobalLink(sw, r.Intn(tp.H)) // an unwired port kills nothing
		case 1:
			m.FailLocalLink(sw, tp.SwitchID(tp.GroupOf(sw), r.Intn(tp.A)))
		default:
			m.FailSwitch(sw)
		}
	}
	return m
}

// TestLockstepWalkMatchesScan holds the four-path walk to the per-hop
// scan on both families under random masks: over PathID ranges of
// length 0 to 9 — random ones, and ones that end at the arena's last
// path, where a four-path step runs past the end — every lane's
// channels are its materialized path's followed by its destination's
// switch slot, MarkDead's verdicts and count are crossesScan's, and
// Alive on a path's ports (or on none, a zero-hop route) agrees.
func TestLockstepWalkMatchesScan(t *testing.T) {
	for _, tp := range []*topo.Compiled{topo.MustNew(2, 4, 2, 9), topo.MustNew(2, 4, 4, 3), topo.MustNewD3(12, 4, 2)} {
		st := Compile(tp, Full{T: tp})
		n, nonTerm := tp.NumSwitches(), tp.A-1+tp.H
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tp.Label(), seed), func(t *testing.T) {
				r := rng.New(seed)
				mask := randomMask(tp, r, 1+int(seed)%4)
				w := NewMaskWalk(tp, mask)
				for sw := 0; sw < n; sw++ {
					if w.Alive(sw, nil) == mask.SwitchDead(sw) {
						t.Fatalf("zero-hop route at switch %d: Alive %v, switch dead %v", sw, w.Alive(sw, nil), mask.SwitchDead(sw))
					}
				}
				type span struct{ src, first, count int }
				var spans []span
				lastSrc := n - 1
				for lastSrc > 0 && st.pairStart[lastSrc*n] == st.pairStart[n*n] {
					lastSrc--
				}
				for count := 0; count <= 9; count++ {
					spans = append(spans, span{lastSrc, st.NumPaths() - count, count})
					s := r.Intn(n)
					lo, hi := int(st.pairStart[s*n]), int(st.pairStart[(s+1)*n])
					if hi-lo >= count {
						spans = append(spans, span{s, lo + r.Intn(hi-lo-count+1), count})
					}
				}
				var p Path
				var c [4][MaxVLBHops]int32
				for _, sp := range spans {
					if sp.first < int(st.pairStart[sp.src*n]) {
						t.Fatalf("span %+v starts before source %d's paths", sp, sp.src)
					}
					dead := make([]bool, sp.count)
					for k := range dead {
						dead[k] = k%2 == 0
					}
					want := 0
					got := w.MarkDead(st, sp.src, PathID(sp.first), sp.count, dead)
					for k := 0; k < sp.count; k++ {
						id := PathID(sp.first + k)
						x := crossesScan(st, sp.src, id, mask.DeadDense())
						if x {
							want++
						}
						if dead[k] != x || w.Alive(sp.src, st.Ports(id)) == x {
							t.Fatalf("span %+v path %d: MarkDead %v, Alive %v, scan crosses %v", sp, id, dead[k], w.Alive(sp.src, st.Ports(id)), x)
						}
					}
					if got != want {
						t.Fatalf("span %+v: MarkDead counted %d dead, scan %d", sp, got, want)
					}
					for i := 0; i < sp.count; i += 4 {
						w.h.step(st.ports, sp.src, sp.first+i, sp.first+sp.count-1, &c)
						for k := range c {
							id := PathID(min(sp.first+i+k, sp.first+sp.count-1))
							st.MaterializeInto(sp.src, id, &p)
							for j, ch := range c[k] {
								wantCh := int32(w.h.nch + p.Dst())
								if j < p.Hops() {
									wantCh = p.Sw[j]*int32(nonTerm) + int32(p.Ports[j]) - int32(tp.P)
								}
								if ch != wantCh {
									t.Fatalf("span %+v lane %d (path %d) hop %d: channel %d, want %d", sp, k, id, j, ch, wantCh)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestPortSlotsPadTerminal pins the precondition of a branch-free
// channel walk: port 0 is a terminal port on every instance of the
// family conformance set (P >= 1), and every store — compiled, compiled
// under a mask, filtered by one, cut by Without and cut to a policy by
// DropMask then Without — holds zero in each path's unused port slots,
// so a short path's padding is a terminal port.
func TestPortSlotsPadTerminal(t *testing.T) {
	relative, err := topo.NewDragonfly(2, 4, 2, 5, topo.Relative)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5),
		topo.MustNew(4, 8, 4, 9),
		topo.MustCompile(relative),
		topo.MustNewD3(4, 2, 0),
		topo.MustNewD3(8, 4, 0),
		topo.MustNewD3(12, 4, 2),
		topo.MustNewD3(6, 6, 0),
	} {
		if tp.P < 1 || tp.KindOfPort(0) != topo.Terminal {
			t.Fatalf("%s: port 0 is a %v port (P = %d)", tp.Label(), tp.KindOfPort(0), tp.P)
		}
	}
	for _, tp := range oracleTopos() {
		full := Compile(tp, Full{T: tp})
		mask := degradedMask(tp)
		removed := make([]bool, full.NumPaths())
		for id := range removed {
			removed[id] = id%3 == 1
		}
		for name, st := range map[string]*Store{
			"compile":         full,
			"masked compile":  CompileDegraded(tp, Strategic{T: tp, FirstLeg: 2}, mask),
			"store filter":    CompileDegraded(tp, full, mask),
			"without":         full.Without(removed),
			"drop mask":       full.Without(full.DropMask(LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7})),
			"filter of a cut": CompileDegraded(tp, full.Without(removed), mask),
		} {
			t.Run(fmt.Sprintf("%s/%s", tp.Label(), name), func(t *testing.T) {
				for id, h := range st.hops {
					for k, pt := range st.portsOf(PathID(id))[h:] {
						if pt != 0 {
							t.Fatalf("path %d (%d hops): unused port slot %d holds %d", id, h, int(h)+k, pt)
						}
					}
				}
			})
		}
	}
}
