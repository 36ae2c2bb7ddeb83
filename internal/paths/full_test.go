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

// naiveRow is the oracle of every offset: for source s of tp, each
// pair's full VLB set in the naive enumeration's order, which is the
// walk's (TestVisitorMatchesNaiveEnumeration), so a path's index in its
// pair's list is its offset.
func naiveRow(tp *topo.Compiled, s int) [][]Path {
	row := make([][]Path, tp.NumSwitches())
	for d := range row {
		row[d] = naiveEnumerateVLBMax(tp, s, d, MaxVLBHops)
	}
	return row
}

// checkRow holds the pairs of source s of st to the naive oracle row:
// the stored paths of pair (s, d) are those of row[d] that keep admits,
// in order, each at its index in row[d] as its offset — so the offsets
// ascend and stay below the pair's full count. Per pair it checks the
// count, the pair read and the first ports; per PathID its offset,
// ports (zero bytes past the hops), hop count and materialized path,
// and whether its ports equal the next stored path's exactly when the
// oracle's paths are equal. It returns the row's hop histogram.
func checkRow(st *Store, s int, row [][]Path, keep func(d, o int) bool) (hist [MaxVLBHops + 1]int, err error) {
	for d, full := range row {
		var offs []int
		var first [][2]int
		for o, p := range full {
			if !keep(d, o) {
				continue
			}
			offs = append(offs, o)
			i := slices.IndexFunc(first, func(fp [2]int) bool { return fp[0] == int(p.Ports[0]) })
			if i < 0 {
				i, first = len(first), append(first, [2]int{int(p.Ports[0]), 0})
			}
			first[i][1]++
			hist[p.Hops()]++
		}
		id0, count := st.PairRange(s, d)
		ids, ports := pairPorts(st, s, d)
		if count != len(offs) || len(ids) != count {
			return hist, fmt.Errorf("pair (%d,%d): %d paths, pair read %d, oracle %d", s, d, count, len(ids), len(offs))
		}
		if fp := firstPorts(st, s, d); !slices.Equal(fp, first) {
			return hist, fmt.Errorf("pair (%d,%d): first ports %v, oracle %v", s, d, fp, first)
		}
		for k, o := range offs {
			id, p := id0+PathID(k), full[o]
			x := Packed(p.Ports)
			if got := st.offset(s, d, id); got != o {
				return hist, fmt.Errorf("pair (%d,%d) path %d: offset %d, oracle %d", s, d, id, got, o)
			}
			if ids[k] != id || ports[k] != x || st.Ports(s, d, id) != x || PackedHops(x) != p.Hops() {
				return hist, fmt.Errorf("pair (%d,%d) path %d: ports %x (pair read %x), oracle %v", s, d, id, st.Ports(s, d, id), ports[k], p)
			}
			if q := materializeID(st, s, d, id); !q.Equal(p) {
				return hist, fmt.Errorf("pair (%d,%d) path %d: %v, oracle %v", s, d, id, q, p)
			}
			if k+1 < len(offs) && (st.Ports(s, d, id) == st.Ports(s, d, id+1)) != p.Equal(full[offs[k+1]]) {
				return hist, fmt.Errorf("pair (%d,%d) paths %d, %d: equal ports differ from the oracle's equal paths", s, d, id, id+1)
			}
		}
	}
	return hist, nil
}

// all keeps every path of the oracle row.
func all(int, int) bool { return true }

// deltaDense marks the non-terminal channels of delta as
// FailureMask.DeadDense numbers them: crossesScan's input.
func deltaDense(tp *topo.Compiled, delta []topo.Channel) []bool {
	nonTerm := tp.A - 1 + tp.H
	dense := make([]bool, tp.NumSwitches()*nonTerm)
	for _, ch := range delta {
		if pt := int(ch.Port) - tp.P; pt >= 0 {
			dense[int(ch.Sw)*nonTerm+pt] = true
		}
	}
	return dense
}

// checkMarks holds the Delta enumeration on the pairs of source s of st
// to crossesScan, over the channels of delta and over every channel
// mask kills (the store filter's use): mask's last failure was delta.
func checkMarks(st *Store, s int, mask *topo.FailureMask, delta []topo.Channel) error {
	tp := st.T
	for _, c := range []struct {
		name  string
		kills *Delta
		dense []bool
	}{{"delta", NewDelta(nil, mask, delta), deltaDense(tp, delta)}, {"mask", NewDelta(nil, mask, mask.DeadChannels()), mask.DeadDense()}} {
		for d := 0; d < st.n; d++ {
			first, count := st.PairRange(s, d)
			var want []PathID
			for k := range count {
				if crossesScan(st, s, d, first+PathID(k), c.dense) {
					want = append(want, first+PathID(k))
				}
			}
			if got := c.kills.AppendIDs(st, s, d, nil); !slices.Equal(got, want) {
				return fmt.Errorf("%s of mask %v pair (%d,%d): Delta lists %v, scan %v", c.name, mask, s, d, got, want)
			}
		}
	}
	return nil
}

// randomDelta fails one more random link or switch of mask and returns
// the newly dead channels.
func randomDelta(tp *topo.Compiled, r *rng.Source, mask *topo.FailureMask) []topo.Channel {
	var delta []topo.Channel
	for len(delta) == 0 {
		switch sw := r.Intn(tp.NumSwitches()); r.Intn(3) {
		case 0:
			delta, _ = mask.FailGlobalLink(sw, r.Intn(tp.H))
		case 1:
			delta, _ = mask.FailLocalLink(sw, tp.SwitchID(tp.GroupOf(sw), r.Intn(tp.A)))
		default:
			delta, _ = mask.FailSwitch(sw)
		}
	}
	return delta
}

// legWalkRecord lists what a LegWalk hands out for pair (s, d): per
// intermediate, each join's verdict, and a 5-hop member's key.
func legWalkRecord(lw *LegWalk, s, d int) (rows [][]uint64) {
	lw.Pair(s, d, func(first, second []Leg, in []bool, keys []uint64) {
		row := make([]uint64, len(in))
		for k, x := range in {
			if x {
				row[k] = 1
			}
			if x && first[k/len(second)].Hops()+second[k%len(second)].Hops() == 5 {
				row[k] = keys[k] | 1
			}
		}
		rows = append(rows, row)
	})
	return rows
}

// TestFullStoreIsArithmetic holds the pristine full store, which keeps
// no bits, to the naive enumeration (naiveRow, checkRow): pair
// counts, and per PathID its ports, hops, materialized path and equal
// ports, with the pair read, first ports and hop histogram, on one
// link per group pair, one link between groups (K = 1), parallel links,
// two D3 instances and — one source row under -short — the paper's g9
// machine. On the four smaller ones every bulk reader agrees too:
// DropMask with Contains for the 31 Table-1 points, both strategic sets
// and two Explicits; Without with the oracle less its removals;
// Enumerate and the LegWalk over the store, and over an Explicit on it,
// with those over the interpreted set; and, under random masks with a
// delta, the Delta enumeration over the delta and over the mask with
// crossesScan, and the store degraded
// under the mask with the oracle's live paths.
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
			if got.keep != nil || int64(got.NumPaths()) != fullPaths(tp) {
				t.Fatalf("the pristine full store keeps %d words of bits for %d paths", len(got.keep), got.NumPaths())
			}
			if got.Name() != (Full{}).Name() || !IsConventional(got) || got.Mask() != nil {
				t.Fatalf("store %q conventional %v mask %v", got.Name(), IsConventional(got), got.Mask())
			}
			if got.Bytes() <= 0 || got.BuildTime() <= 0 || got.Bytes() >= int64(got.NumPaths()) {
				t.Fatalf("Bytes %d for %d paths, BuildTime %v", got.Bytes(), got.NumPaths(), got.BuildTime())
			}
			n := tp.NumSwitches()
			rows := n
			if testing.Short() && n > 48 {
				rows = 1
			}
			hists := make([][MaxVLBHops + 1]int, rows)
			exec.Default().RunRows("test/points", rows, func(s int) {
				var err error
				if hists[s], err = checkRow(got, s, naiveRow(tp, s), all); err != nil {
					t.Error(err)
				}
			})
			if t.Failed() || rows < n {
				return
			}
			var hist [MaxVLBHops + 1]int
			for _, h := range hists {
				for k, c := range h {
					hist[k] += c
				}
			}
			if gs := got.Stats(); gs.HopHist != hist || gs.Paths != got.NumPaths() {
				t.Fatalf("stats %+v, oracle histogram %v", gs, hist)
			}
			if n >= 48 {
				return // the bulk readers on the four small instances
			}
			oracle := make([][][]Path, n)
			for s := range oracle {
				oracle[s] = naiveRow(tp, s)
			}
			pols := append(table1(tp), Strategic{T: tp, FirstLeg: 2}, Strategic{T: tp, FirstLeg: 3},
				thinned(tp, Full{T: tp}), thinned(tp, LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7}))
			for _, pol := range pols {
				drop := got.DropMask(pol)
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						first, _ := got.PairRange(s, d)
						for o, p := range oracle[s][d] {
							if drop.Has(first+PathID(o)) == pol.Contains(s, d, p) {
								t.Fatalf("%s pair (%d,%d) path %d: DropMask disagrees with Contains", pol.Name(), s, d, o)
							}
						}
					}
				}
			}
			r := rng.New(uint64(n))
			removed := NewIDSet(got.NumPaths())
			for id := range PathID(got.NumPaths()) {
				if r.Intn(3) == 0 {
					removed.Add(id)
				}
			}
			cut := got.Without(removed)
			for s := 0; s < n; s++ {
				if _, err := checkRow(cut, s, oracle[s], func(d, o int) bool {
					first, _ := got.PairRange(s, d)
					return !removed.Has(first + PathID(o))
				}); err != nil {
					t.Fatalf("Without: %v", err)
				}
			}
			ex := thinned(tp, got)
			exFull := NewExplicit(Full{T: tp})
			exFull.Removed = ex.Removed
			for _, pair := range [][2]Policy{{got, Full{T: tp}}, {ex, exFull}} {
				la, lb := NewLegWalk(tp, pair[0], nil, 1<<5), NewLegWalk(tp, pair[1], nil, 1<<5)
				for s := 0; s < n; s++ {
					for d := 0; d < n; d++ {
						if a, b := pair[0].Enumerate(s, d), pair[1].Enumerate(s, d); !slices.EqualFunc(a, b, Path.Equal) {
							t.Fatalf("%s pair (%d,%d): Enumerate lists %d paths, over the interpreted set %d", pair[0].Name(), s, d, len(a), len(b))
						}
						if !slices.EqualFunc(legWalkRecord(la, s, d), legWalkRecord(lb, s, d), slices.Equal[[]uint64]) {
							t.Fatalf("%s pair (%d,%d): the LegWalk differs from the interpreted set's", pair[0].Name(), s, d)
						}
					}
				}
			}
			for seed := 1; seed <= 4; seed++ {
				mask := randomMask(tp, r, seed)
				delta := randomDelta(tp, r, mask)
				got.Label = "labelled"
				dg := CompileDegraded(tp, got, mask)
				got.Label = ""
				if dg.Mask() != mask || dg.Name() != "labelled" || !IsConventional(dg) {
					t.Fatalf("mask %v: the store degraded under it is %q, mask %v", mask, dg.Name(), dg.Mask())
				}
				for s := 0; s < n; s++ {
					if err := checkMarks(got, s, mask, delta); err != nil {
						t.Fatal(err)
					}
					if _, err := checkRow(dg, s, oracle[s], func(d, o int) bool { return Alive(mask, oracle[s][d][o]) }); err != nil {
						t.Fatalf("degraded under %v: %v", mask, err)
					}
				}
			}
		})
	}
}

// TestStoreOffsetsMatchWalk holds every store that keeps bits to the
// naive enumeration: the 31 Table-1 points, both strategic sets and
// a rebalanced Explicit (a strategic set less every third path of every
// fifth pair), each compiled pristine and under one of three random
// masks, on one link per group pair, one link between groups (K = 1),
// parallel links, two D3 instances and, outside -short, the paper's g9
// machine (a strategic set and the Explicit under one mask there). For
// each store, on a random source row, checkRow holds the count, offsets, ports
// and materialized paths to the oracle's live paths the policy's
// Contains admits, the Delta enumeration over a further mask and
// its last failure agrees with crossesScan, and the LegWalk over the store hands out
// what the one over the interpreted policy does; and the policy cut out
// of the full store under the same mask, Without(DropMask(pol)), has
// the compile's bits.
func TestStoreOffsetsMatchWalk(t *testing.T) {
	topos := []*topo.Compiled{
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(1, 4, 2, 9), // K = 1
		topo.MustNew(2, 4, 4, 3), // parallel global links (h > g-1)
		topo.MustNewD3(6, 3, 1),
		topo.MustNewD3(12, 4, 2),
	}
	if !testing.Short() {
		topos = append(topos, topo.MustNew(4, 8, 4, 9))
	}
	for _, tp := range topos {
		t.Run(tp.Label(), func(t *testing.T) {
			n := tp.NumSwitches()
			r := rng.New(uint64(n))
			pols := append(table1(tp), Strategic{T: tp, FirstLeg: 2}, Strategic{T: tp, FirstLeg: 3})
			masks := []*topo.FailureMask{nil, randomMask(tp, r, 1), randomMask(tp, r, 2), randomMask(tp, r, 4)}
			if n > 48 {
				pols, masks = []Policy{Strategic{T: tp, FirstLeg: 3}}, masks[:2]
			}
			pols = append(pols, thinned(tp, Strategic{T: tp, FirstLeg: 2}))
			oracle := make([][][]Path, n)
			fulls := make([]*Store, len(masks))
			for k, mask := range masks {
				fulls[k] = CompileDegraded(tp, Full{T: tp}, mask)
			}
			for i, pol := range pols {
				for _, k := range []int{0, 1 + i%(len(masks)-1)} {
					mask, full := masks[k], fulls[k]
					st := CompileDegraded(tp, pol, mask)
					if !sameStore(full.Without(full.DropMask(pol)), st) {
						t.Fatalf("%s under %v: the cut of the full store has other bits than the compile", pol.Name(), mask)
					}
					walk := randomMask(tp, r, 2)
					delta := randomDelta(tp, r, walk)
					lw, lwPol := NewLegWalk(tp, st, nil, 1<<5), NewLegWalk(tp, pol, mask, 1<<5)
					s := r.Intn(n)
					if oracle[s] == nil {
						oracle[s] = naiveRow(tp, s)
					}
					if _, err := checkRow(st, s, oracle[s], func(d, o int) bool {
						p := oracle[s][d][o]
						return Alive(mask, p) && pol.Contains(s, d, p)
					}); err != nil {
						t.Fatalf("%s under %v: %v", pol.Name(), mask, err)
					}
					if err := checkMarks(st, s, walk, delta); err != nil {
						t.Fatalf("%s under %v: %v", pol.Name(), mask, err)
					}
					for d := 0; d < n; d++ {
						if !slices.EqualFunc(legWalkRecord(lw, s, d), legWalkRecord(lwPol, s, d), slices.Equal[[]uint64]) {
							t.Fatalf("%s under %v pair (%d,%d): the LegWalk over the store differs from the policy's", pol.Name(), mask, s, d)
						}
					}
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

// TestFullStoreWideLinks decodes the pristine full store of a topology
// with more global links between two groups than a byte counts
// (dfly(1,16,34,3): K = 272, ~1.8e9 paths, too many for a naive
// oracle): one inter-group pair's paths, read in bulk and by PathID,
// are the walk's, and so is every 97th one's materialized path.
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
	w.visit(d, func(a, b *Leg) {
		id := first + PathID(len(want))
		x := Packed(w.v.path(a, b).Ports)
		if got := st.Ports(s, d, id); got != x {
			t.Fatalf("path %d: ports %x, walk %x", id, got, x)
		}
		if len(want)%97 == 0 {
			if p, q := materializeID(st, s, d, id), w.v.path(a, b); !p.Equal(q) {
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

// BenchmarkMaterializeStore materializes random paths of random pairs
// on dfly(4,8,4,17), the topology cmd/routed serves, as a draw does
// (SampleVLBInto): the pair's Ports at a PathID, then the path. It reads
// the pristine full store, whose offsets are arithmetic, and strategic
// 2+3's store, which selects each PathID's bit in its pair first: the
// point read a VLB lookup or a simulated packet pays.
func BenchmarkMaterializeStore(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 17)
	for _, c := range []struct {
		name string
		st   *Store
	}{{"implicit", Compile(tp, Full{T: tp})}, {"bits", Compile(tp, Strategic{T: tp, FirstLeg: 2})}} {
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(1)
			type draw struct {
				s, d int
				id   PathID
			}
			draws := make([]draw, 1<<16)
			for i := range draws {
				s, d := r.Intn(tp.NumSwitches()), r.Intn(tp.NumSwitches())
				first, count := c.st.PairRange(s, d)
				for count == 0 {
					s, d = r.Intn(tp.NumSwitches()), r.Intn(tp.NumSwitches())
					first, count = c.st.PairRange(s, d)
				}
				draws[i] = draw{s, d, first + PathID(r.Intn(count))}
			}
			var p Path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := &draws[i&(len(draws)-1)]
				c.st.materialize(x.s, c.st.Ports(x.s, x.d, x.id), &p)
			}
		})
	}
}
