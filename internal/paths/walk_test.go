package paths

import (
	"fmt"
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// crossesScan is the per-hop walk the store filter, the route table's
// row filter and the edge index each carried before Delta replaced
// them, kept as the oracle it is held to: path id out of src, hop by
// hop over the peer arena, reports whether it crosses a channel dead
// (indexed like FailureMask.DeadDense) marks.
func crossesScan(st *Store, src, dst int, id PathID, dead []bool) bool {
	return portsCross(st.T, src, st.Ports(src, dst, id), dead)
}

// portsCross is crossesScan on the route out of src over packed ports.
func portsCross(tp *topo.Compiled, src int, ports uint64, dead []bool) bool {
	peer := tp.PeerDense()
	nonTerm, p := tp.A-1+tp.H, tp.P
	cur := src
	for _, pt := range unpack(ports) {
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

// TestLockstepWalkMatchesScan holds Delta.Kills, the hop-by-hop walk of
// packed ports, to the per-hop scan on both families under random masks,
// one and several links per group pair, taken as one failure from
// pristine: on every path of three random source rows of the full set,
// Kills on its ports is crossesScan, and on no ports (a zero-hop route)
// it is its switch's death.
func TestLockstepWalkMatchesScan(t *testing.T) {
	for _, tp := range []*topo.Compiled{topo.MustNew(2, 4, 2, 9), topo.MustNew(2, 4, 4, 3), topo.MustNewD3(12, 4, 2)} {
		st := Compile(tp, Full{T: tp})
		n := tp.NumSwitches()
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tp.Label(), seed), func(t *testing.T) {
				r := rng.New(seed)
				mask := randomMask(tp, r, 1+int(seed)%4)
				kills := NewDelta(nil, mask, mask.DeadChannels())
				for sw := 0; sw < n; sw++ {
					if kills.Kills(sw, 0) != mask.SwitchDead(sw) {
						t.Fatalf("zero-hop route at switch %d: Kills %v, switch dead %v", sw, kills.Kills(sw, 0), mask.SwitchDead(sw))
					}
				}
				for range 3 {
					s := r.Intn(n)
					for d := 0; d < n; d++ {
						st.PairPorts(s, d, func(id PathID, ports uint64) {
							if x := crossesScan(st, s, d, id, mask.DeadDense()); kills.Kills(s, ports) != x {
								t.Fatalf("pair (%d,%d) path %d: Kills %v, scan crosses %v", s, d, id, !x, x)
							}
						})
					}
				}
			})
		}
	}
}

// TestPortSlotsPadTerminal pins the precondition of the walk of packed
// ports (Delta.Kills), which ends at the first zero byte: port 0 is a
// terminal port on every instance of the family conformance set
// (P >= 1), and every store — the full set's walk compile, a compile
// under a mask, the pristine full set filtered by one, cut by Without
// and cut to a policy by DropMask then Without, and a cut filtered —
// reads each path's ports with no zero byte before its last hop and
// zeros after it, and materializes to its hop count.
func TestPortSlotsPadTerminal(t *testing.T) {
	network, err := topo.NewDragonfly(2, 4, 2, 5, topo.Relative)
	if err != nil {
		t.Fatal(err)
	}
	relative, err := topo.Compile(network)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5),
		topo.MustNew(4, 8, 4, 9),
		relative,
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
		walked, _ := compileStore(tp, Full{T: tp}, nil, pathIDSpace)
		mask := degradedMask(tp)
		removed := NewIDSet(full.NumPaths())
		for id := range PathID(full.NumPaths()) {
			if id%3 == 1 {
				removed.Add(id)
			}
		}
		n := tp.NumSwitches()
		for name, st := range map[string]*Store{
			"compile":         walked,
			"masked compile":  CompileDegraded(tp, Strategic{T: tp, FirstLeg: 2}, mask),
			"store filter":    CompileDegraded(tp, full, mask),
			"without":         full.Without(removed),
			"drop mask":       full.Without(full.DropMask(LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7})),
			"filter of a cut": CompileDegraded(tp, full.Without(removed), mask),
		} {
			t.Run(fmt.Sprintf("%s/%s", tp.Label(), name), func(t *testing.T) {
				var p Path
				for s := range n {
					for d := 0; d < n; d++ {
						st.PairPorts(s, d, func(id PathID, ports uint64) {
							h := PackedHops(ports)
							for k := range h {
								if ports>>(8*k)&0xff == 0 {
									t.Fatalf("pair (%d,%d) path %d (%d hops): port slot %d is the terminal port", s, d, id, h, k)
								}
							}
							if st.materialize(s, ports, &p); p.Hops() != h || p.Dst() != d {
								t.Fatalf("pair (%d,%d) path %d: %d packed hops, materialized %v", s, d, id, h, p)
							}
						})
					}
				}
			})
		}
	}
}
