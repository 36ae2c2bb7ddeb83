package paths

import (
	"fmt"
	"slices"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// table1 is the paper's Table 1 grid as policies: <=3-hop to all VLB in
// tenths of the next length, 31 points (core.ProbeGrid).
func table1(tp *topo.Compiled) []Policy {
	var pols []Policy
	for h := 3; h <= 5; h++ {
		for f := 0; f <= 9; f++ {
			pols = append(pols, LengthCapped{T: tp, MaxHops: h, Frac: float64(f) / 10, Seed: rng.Hash64(1, uint64(h), uint64(f))})
		}
	}
	return append(pols, Full{T: tp})
}

// pairPorts lists a pair's stored paths through Store.PairPorts.
func pairPorts(st *Store, s, d int) (ids []PathID, ports []uint64) {
	st.PairPorts(s, d, func(id PathID, x uint64) {
		ids, ports = append(ids, id), append(ports, x)
	})
	return ids, ports
}

// TestFullStoreIsArithmetic holds the pristine full store, which keeps
// no arena, to the walk compile of the same set (compileStore), its
// oracle. Every pair's count, pair read and first ports, and every
// PathID's hops, ports, KeyOf and materialized path agree, and so do
// the hop histogram and EqualIDs between neighbours, on one link per
// group pair, one link between groups (K = 1), parallel links, two D3
// instances and — one source row under -short — the paper's g9
// machine. On the four smaller ones every bulk reader reads what it
// reads off the arena: DropMask for the 31 Table-1 points, both
// strategic sets and two Explicits, Without, the Walker and the LegWalk
// over the store and over an Explicit on it, and, under random masks
// with a delta, MarkDead, MarkDelta and the store degraded under the
// mask.
func TestFullStoreIsArithmetic(t *testing.T) {
	topos := []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5),
		topo.MustNew(1, 4, 2, 9), // K = 1
		topo.MustNew(2, 4, 4, 3), // parallel global links (h > g-1)
		topo.MustNewD3(6, 3, 1),
		topo.MustNewD3(12, 4, 2),
		topo.MustNew(4, 8, 4, 9),
	}
	for _, tp := range topos {
		t.Run(tp.Label(), func(t *testing.T) {
			got := Compile(tp, Full{T: tp})
			want, _ := compileStore(tp, Full{T: tp}, nil, pathIDSpace)
			if got.legs == nil || got.hops != nil || got.ports != nil {
				t.Fatal("the pristine full store keeps an arena")
			}
			if !slices.Equal(got.pairStart, want.pairStart) || got.NumPaths() != want.NumPaths() {
				t.Fatal("pair counts differ from the walk compile")
			}
			if got.Name() != want.Name() || !IsConventional(got) || got.Mask() != nil {
				t.Fatalf("store %q conventional %v mask %v", got.Name(), IsConventional(got), got.Mask())
			}
			if got.Bytes() <= 0 || got.BuildTime() <= 0 || got.Bytes() >= want.Bytes()/4 {
				t.Fatalf("Bytes %d (arena %d), BuildTime %v", got.Bytes(), want.Bytes(), got.BuildTime())
			}
			n := tp.NumSwitches()
			rows := n
			if testing.Short() && n > 48 {
				rows = 1
			}
			exec.Default().RunRows("test/points", rows, func(s int) {
				if err := samePoints(got, want, s); err != nil {
					t.Error(err)
				}
			})
			if t.Failed() {
				return
			}
			if rows < n {
				return
			}
			if gs, ws := got.Stats(), want.Stats(); gs.HopHist != ws.HopHist || gs.Pairs != ws.Pairs || gs.Paths != ws.Paths {
				t.Fatalf("stats %+v, arena %+v", gs, ws)
			}
			if n >= 48 {
				return // the bulk readers on the four small instances
			}
			pols := append(table1(tp), Strategic{T: tp, FirstLeg: 2}, Strategic{T: tp, FirstLeg: 3},
				thinned(tp, Full{T: tp}), thinned(tp, LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7}))
			for _, pol := range pols {
				if !slices.Equal(got.DropMask(pol), want.DropMask(pol)) {
					t.Fatalf("%s: DropMask differs from the arena's", pol.Name())
				}
			}
			r := rng.New(uint64(n))
			removed := make([]bool, got.NumPaths())
			for id := range removed {
				removed[id] = r.Intn(3) == 0
			}
			if !sameArena(got.Without(removed), want.Without(removed)) {
				t.Fatal("Without differs from the arena's")
			}
			ex, exWant := thinned(tp, got), NewExplicit(want)
			exWant.Removed = ex.Removed
			for _, pair := range [][2]Policy{{got, want}, {ex, exWant}} {
				wa, wb := NewWalker(tp, pair[0], nil), NewWalker(tp, pair[1], nil)
				la, lb := NewLegWalk(tp, pair[0], nil, 1<<5), NewLegWalk(tp, pair[1], nil, 1<<5)
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						if a, b := wa.Pair(s, d), wb.Pair(s, d); !slices.EqualFunc(a, b, Path.Equal) {
							t.Fatalf("%s pair (%d,%d): the Walker lists %d paths, over the arena %d", pair[0].Name(), s, d, len(a), len(b))
						}
						var a, b [][]uint64
						record := func(into *[][]uint64) func([]Leg, []Leg, []bool, []uint64) {
							return func(first, second []Leg, in []bool, keys []uint64) {
								row := make([]uint64, len(in))
								for k, x := range in {
									if x {
										row[k] = 1
									}
									if x && first[k/len(second)].Hops()+second[k%len(second)].Hops() == 5 {
										row[k] = keys[k] | 1
									}
								}
								*into = append(*into, row)
							}
						}
						la.Pair(s, d, record(&a))
						lb.Pair(s, d, record(&b))
						if !slices.EqualFunc(a, b, slices.Equal[[]uint64]) {
							t.Fatalf("%s pair (%d,%d): the LegWalk differs from the arena's merge", pair[0].Name(), s, d)
						}
					}
				}
			}
			for seed := uint64(1); seed <= 4; seed++ {
				mask := randomMask(tp, r, int(seed))
				var delta []topo.Channel
				for len(delta) == 0 {
					switch sw := r.Intn(n); r.Intn(3) {
					case 0:
						delta, _ = mask.FailGlobalLink(sw, r.Intn(tp.H))
					case 1:
						delta, _ = mask.FailLocalLink(sw, tp.SwitchID(tp.GroupOf(sw), r.Intn(tp.A)))
					default:
						delta, _ = mask.FailSwitch(sw)
					}
				}
				w := NewDeltaWalk(tp, mask, delta)
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						_, count := got.PairRange(s, d)
						a, b := make([]bool, count), make([]bool, count)
						na, ca := w.MarkDelta(got, s, d, a)
						nb, cb := w.MarkDelta(want, s, d, b)
						if na != nb || ca != cb || !slices.Equal(a, b) || w.MarkDead(got, s, d, a) != nb {
							t.Fatalf("mask %v pair (%d,%d): MarkDelta (%d, %v), arena (%d, %v)", mask, s, d, na, ca, nb, cb)
						}
					}
				}
				got.Label = "labelled"
				dg, dw := CompileDegraded(tp, got, mask), CompileDegraded(tp, want, mask)
				got.Label = ""
				if !sameArena(dg, dw) || dg.Mask() != mask || dg.Name() != "labelled" || !IsConventional(dg) {
					t.Fatalf("mask %v: the store degraded under it differs from the arena's (%q)", mask, dg.Name())
				}
			}
		})
	}
}

// firstPorts lists Store.FirstPorts of a pair, port and count.
func firstPorts(st *Store, s, d int) (out [][2]int) {
	st.FirstPorts(s, d, func(p int8, n int) { out = append(out, [2]int{int(p), n}) })
	return out
}

// samePoints compares the point reads of source s's paths on the
// pristine full store got with the walk compile's arena want: the pair
// read and its first ports, and per PathID its ports (by pair and by ID alone), hop count,
// KeyOf, materialized path and EqualIDs with the next path of its pair.
func samePoints(got, want *Store, s int) error {
	var p, q Path
	for d := 0; d < got.n; d++ {
		first, count := got.PairRange(s, d)
		gi, gp := pairPorts(got, s, d)
		wi, wp := pairPorts(want, s, d)
		if !slices.Equal(gi, wi) || !slices.Equal(gp, wp) {
			return fmt.Errorf("pair (%d,%d): the pair read differs from the arena's", s, d)
		}
		if a, b := firstPorts(got, s, d), firstPorts(want, s, d); !slices.Equal(a, b) {
			return fmt.Errorf("pair (%d,%d): first ports %v, arena %v", s, d, a, b)
		}
		for k, id := range wi {
			if x := got.Ports(s, d, id); x != wp[k] || got.portsOf(id) != x {
				return fmt.Errorf("pair (%d,%d) path %d: ports %x (by ID alone %x), arena %x", s, d, id, x, got.portsOf(id), wp[k])
			}
			if got.Hops(id) != want.Hops(id) || got.KeyOf(s, id) != want.KeyOf(s, id) {
				return fmt.Errorf("pair (%d,%d) path %d: hops %d key %x, arena %d %x", s, d, id, got.Hops(id), got.KeyOf(s, id), want.Hops(id), want.KeyOf(s, id))
			}
			got.MaterializeInto(s, id, &p)
			want.MaterializeInto(s, id, &q)
			if !p.Equal(q) {
				return fmt.Errorf("pair (%d,%d) path %d: %v, arena %v", s, d, id, p, q)
			}
			if next := id + 1; next < first+PathID(count) && got.EqualIDs(id, next) != (wp[k] == wp[k+1]) {
				return fmt.Errorf("pair (%d,%d) paths %d, %d: EqualIDs differs from the arena's", s, d, id, next)
			}
		}
	}
	return nil
}

// TestFullStoreWideLinks decodes the pristine full store of a topology
// with more global links between two groups than a byte counts
// (dfly(1,16,34,3): K = 272, ~1.8e9 paths, too many for an arena
// oracle): one inter-group pair's paths, read in bulk and by PathID,
// are the walk's, and so are every 97th one's path and key.
func TestFullStoreWideLinks(t *testing.T) {
	tp := topo.MustNew(1, 16, 34, 3)
	if tp.K <= 255 {
		t.Fatalf("K = %d fits a byte", tp.K)
	}
	st := Compile(tp, Full{T: tp})
	s, d := tp.SwitchID(0, 3), tp.SwitchID(2, 11)
	first, count := st.PairRange(s, d)
	if count != tp.A*tp.K*tp.K {
		t.Fatalf("pair holds %d paths, want %d", count, tp.A*tp.K*tp.K)
	}
	w := newPolicyWalk(tp, Full{T: tp}, nil, s, nil)
	want := make([]uint64, 0, count)
	var p Path
	w.visit(d, func(a, b *Leg) {
		id := first + PathID(len(want))
		x := a.packed() | b.packed()<<(8*a.n)
		if got := st.Ports(s, d, id); got != x {
			t.Fatalf("path %d: ports %x, walk %x", id, got, x)
		}
		if len(want)%97 == 0 {
			st.MaterializeInto(s, id, &p)
			if q := w.v.path(a, b); !p.Equal(q) || st.KeyOf(s, id) != q.Key() {
				t.Fatalf("path %d: %v, walk %v", id, p, q)
			}
		}
		want = append(want, x)
	})
	k := 0
	st.PairPorts(s, d, func(id PathID, x uint64) {
		if id != first+PathID(k) || k >= len(want) || x != want[k] {
			t.Fatalf("pair read %d: path %d ports %x", k, id, x)
		}
		k++
	})
	if k != count || len(want) != count {
		t.Fatalf("pair read %d paths, walk %d, store %d", k, len(want), count)
	}
}

// BenchmarkMaterializeStore materializes random PathIDs of the full set
// on dfly(4,8,4,17), the topology cmd/routed serves, from the walk
// compile's arena and from the pristine full store's arithmetic: the
// point read a VLB lookup or a simulated packet pays.
func BenchmarkMaterializeStore(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 17)
	arena, _ := compileStore(tp, Full{T: tp}, nil, pathIDSpace)
	perRow := arena.NumPaths() / tp.NumSwitches() // every source's row holds as many
	for _, c := range []struct {
		name string
		st   *Store
	}{{"arena", arena}, {"implicit", Compile(tp, Full{T: tp})}} {
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(1)
			ids := make([]PathID, 1<<16)
			for i := range ids {
				ids[i] = PathID(r.Intn(c.st.NumPaths()))
			}
			var p Path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i&(len(ids)-1)]
				c.st.MaterializeInto(int(id)/perRow, id, &p)
			}
		})
	}
}
