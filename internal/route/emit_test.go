package route

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
)

// emitMask fails one global link, one local link and one switch.
func emitMask(t *testing.T, tp *topo.Compiled) *topo.FailureMask {
	t.Helper()
	m := topo.NewFailureMask(tp)
	_, err := m.FailGlobalLink(tp.A/2, tp.H-1)
	if err == nil {
		_, err = m.FailLocalLink(tp.SwitchID(1, 0), tp.SwitchID(1, 1))
	}
	if err == nil {
		_, err = m.FailSwitch(tp.SwitchID(tp.G-1, 0))
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// failSteps fail a global link, a local link and a switch, in turn.
var failSteps = []func(*topo.Compiled, *topo.FailureMask) ([]topo.Channel, error){
	func(tp *topo.Compiled, m *topo.FailureMask) ([]topo.Channel, error) {
		return m.FailGlobalLink(tp.A/2, tp.H-1)
	},
	func(tp *topo.Compiled, m *topo.FailureMask) ([]topo.Channel, error) {
		return m.FailLocalLink(tp.SwitchID(1, 0), tp.SwitchID(1, 1))
	},
	func(tp *topo.Compiled, m *topo.FailureMask) ([]topo.Channel, error) {
		return m.FailSwitch(tp.SwitchID(tp.G-1, 0))
	},
}

// TestEmitWorkers pins the row-parallel emit byte-identical — rows and
// MIN arena — to a sequential row-by-row append of the same candidates,
// at 1, 2 and 8 workers, across policy shapes, families, and pristine
// and degraded stores.
func TestEmitWorkers(t *testing.T) {
	topos := []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5),
		topo.MustNew(2, 4, 4, 3),
		topo.MustNewD3(12, 4, 2),
	}
	if !testing.Short() {
		topos = append(topos, topo.MustNew(4, 8, 4, 9))
	}
	for _, tp := range topos {
		capped := paths.LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7}
		adj := paths.NewExplicit(capped)
		adj.Remove(capped.Enumerate(0, tp.NumSwitches()-1)[0])
		pols := []paths.Policy{paths.Full{T: tp}, capped, paths.Strategic{T: tp, FirstLeg: 2}, adj}
		for _, mask := range []*topo.FailureMask{nil, emitMask(t, tp)} {
			for _, pol := range pols {
				t.Run(fmt.Sprintf("%s/%s/degraded=%v", tp.Label(), pol.Name(), mask != nil), func(t *testing.T) {
					st := paths.CompileDegraded(tp, pol, mask)
					n := tp.NumSwitches()
					ref := &Tables{T: tp, stamps: routing.NewStamps(tp, 4, routing.PhaseVC, 1)}
					var rows []row
					var words []uint64
					for s := 0; s < n; s++ {
						for d := 0; d < n; d++ {
							start := int32(len(words))
							for _, p := range paths.EnumerateMinAlive(tp, mask, s, d) {
								words = append(words, ref.stamps.Word(tp, paths.Packed(p.Ports)))
							}
							first, count := st.PairRange(s, d)
							rows = append(rows, row{minAt: start, minN: int32(len(words)) - start, vlbAt: int32(first), vlbN: int32(count)})
						}
					}
					var first *Tables
					for _, workers := range []int{1, 2, 8} {
						old := exec.SetDefault(exec.NewPool(workers))
						tb, err := Emit(st, Default())
						exec.SetDefault(old)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(tb.rows, rows) {
							t.Fatalf("%d workers: rows differ from the sequential reference", workers)
						}
						if len(tb.chunks) != 1 || !slices.Equal(tb.chunks[0].min, words) {
							t.Fatalf("%d workers: MIN words differ from the sequential reference", workers)
						}
						if first == nil {
							first = tb
						} else if !tb.EqualRows(first) {
							t.Fatalf("%d workers: rows differ from the 1-worker tables", workers)
						}
					}
				})
			}
		}
	}
}

// TestDeltaWorkers pins the row-parallel delta filter, over a global
// link, a local link and a switch failing in turn: 1, 2 and 8 workers
// give the same rows and the same patches, derived three times from one
// parent (ApplyDelta shares no writable memory with its receiver), and
// rows equal to a from-scratch emit of a store compiled degraded. Each
// epoch's patch holds exactly the entries it reports, at 8 B a MIN
// word and 4 B a dead VLB PathID.
func TestDeltaWorkers(t *testing.T) {
	topos := []*topo.Compiled{topo.MustNew(2, 4, 2, 5), topo.MustNewD3(12, 4, 2)}
	if !testing.Short() {
		topos = append(topos, topo.MustNew(4, 8, 4, 9))
	}
	for _, tp := range topos {
		t.Run(tp.Label(), func(t *testing.T) {
			pol := paths.Full{T: tp}
			st := paths.Compile(tp, pol)
			tb, err := Emit(st, Default())
			if err != nil {
				t.Fatal(err)
			}
			mask := topo.NewFailureMask(tp)
			for i, step := range failSteps {
				mask = mask.Clone()
				delta, err := step(tp, mask)
				if err != nil || len(delta) == 0 {
					t.Fatalf("step %d killed %d channels: %v", i, len(delta), err)
				}
				var first *Tables
				for _, workers := range []int{1, 2, 8} {
					old := exec.SetDefault(exec.NewPool(workers))
					got, stats := tb.ApplyDelta(mask, delta)
					exec.SetDefault(old)
					if first == nil {
						first = got
						if vlb, all := bruteDirty(st, tb.mask, mask); stats.VLBDirty != vlb || stats.DirtyPairs != all {
							t.Fatalf("step %d: %d VLB-dirty and %d dirty pairs, brute force %d and %d",
								i, stats.VLBDirty, stats.DirtyPairs, vlb, all)
						}
						want, err := Emit(paths.CompileDegraded(tp, pol, mask), Default())
						if err != nil {
							t.Fatal(err)
						}
						if !got.EqualRows(want) {
							t.Fatalf("step %d: filtered rows differ from the scratch emit", i)
						}
						p := got.chunks[len(got.chunks)-1]
						grew := got.PatchBytes() - tb.PatchBytes()
						if len(p.min)+len(p.dead) != stats.PatchEntries || grew != 8*int64(len(p.min))+4*int64(len(p.dead)) || len(p.dead) == 0 {
							t.Fatalf("step %d: %d patch entries, patch of %d MIN and %d dead VLB grew %d bytes",
								i, stats.PatchEntries, len(p.min), len(p.dead), grew)
						}
						continue
					}
					if !slices.Equal(got.rows, first.rows) {
						t.Fatalf("step %d, %d workers: rows differ from the 1-worker tables", i, workers)
					}
					if !slices.EqualFunc(got.chunks, first.chunks, func(a, b chunk) bool {
						return slices.Equal(a.min, b.min) && slices.Equal(a.dead, b.dead)
					}) {
						t.Fatalf("step %d, %d workers: patches differ from the 1-worker tables", i, workers)
					}
				}
				tb = first
			}
		})
	}
}

// TestTrimmedRowSelect holds a trimmed row's two read paths to each
// other: Lookup's k-th selection (the range's k-th ID moved past each
// dead ID at or below it) and the merge of the range with its dead list
// that Row and FirstHops read, ID for ID and word for word, on every row
// of every epoch. The failures re-dirty the same rows — two global links
// and a local link at one group, then the switch between them, which
// empties rows — and the local link trims some rows' MIN candidates
// only, which move to a patch with their dead list as it was.
func TestTrimmedRowSelect(t *testing.T) {
	for _, tp := range []*topo.Compiled{topo.MustNew(2, 4, 2, 5), topo.MustNewD3(12, 4, 2)} {
		t.Run(tp.Label(), func(t *testing.T) {
			sw := tp.SwitchID(1, 0)
			peer := tp.SwitchID(1, 1)
			var steps []func(*topo.FailureMask) ([]topo.Channel, error)
			for gp := 0; gp < tp.H; gp++ {
				if _, _, ok := tp.GlobalPeerOK(sw, gp); ok {
					steps = append(steps, func(m *topo.FailureMask) ([]topo.Channel, error) { return m.FailGlobalLink(sw, gp) })
				}
			}
			steps = append(steps[:min(2, len(steps))],
				func(m *topo.FailureMask) ([]topo.Channel, error) { return m.FailLocalLink(sw, peer) },
				func(m *topo.FailureMask) ([]topo.Channel, error) { return m.FailSwitch(sw) })
			svc, err := NewService(paths.Compile(tp, paths.Full{T: tp}), ModeVLB, 0, Default())
			if err != nil {
				t.Fatal(err)
			}
			n := tp.NumSwitches()
			var redirtied, minOnly, emptied int
			for i, step := range steps {
				prev := svc.Tables()
				if _, err := svc.Fail(step); err != nil {
					t.Fatal(err)
				}
				tb := svc.Tables()
				for pi := range tb.rows {
					s, d := pi/n, pi%n
					r, was := &tb.rows[pi], &prev.rows[pi]
					if r.chunk == int32(len(tb.chunks)-1) {
						if was.chunk != 0 {
							redirtied++
						}
						if r.minN < was.minN && r.vlbN == was.vlbN {
							minOnly++
						}
					}
					if r.minN+r.vlbN == 0 && was.minN+was.vlbN > 0 {
						emptied++
					}
					first, count, dead := tb.vlbSpan(r, s, d)
					var merged []paths.PathID
					for id := first; id < first+paths.PathID(count); id++ {
						if len(dead) > 0 && dead[0] == id {
							dead = dead[1:]
							continue
						}
						merged = append(merged, id)
					}
					if len(dead) != 0 || len(merged) != int(r.vlbN) {
						t.Fatalf("step %d row (%d,%d): %d merged candidates, %d dead IDs outside the range, row says %d", i, s, d, len(merged), len(dead), r.vlbN)
					}
					_, vlb := tb.Row(s, d)
					for k, id := range merged {
						if got := tb.vlbID(r, s, d, int32(k)); got != id || vlb[k] != tb.stamps.Word(tb.T, tb.st.Ports(s, d, got)) {
							t.Fatalf("step %d row (%d,%d): candidate %d selects %d, merge order has %d", i, s, d, k, got, id)
						}
					}
				}
			}
			if redirtied == 0 || minOnly == 0 || emptied == 0 {
				t.Fatalf("the sequence re-dirtied %d rows, trimmed %d in MIN only and emptied %d: a case did not bite", redirtied, minOnly, emptied)
			}
		})
	}
}

// TestEmitRejectsUnpackable: lookups build VLB words lazily and cannot
// report a packing error, so Emit refuses every configuration a word
// cannot hold — a VC budget outside the 3-bit VC field — naming the
// field, whichever worker count it runs at. (The 7-bit port field holds
// topo.MaxRadix, so no compiled topology reaches the radix check.)
func TestEmitRejectsUnpackable(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	st := paths.Compile(tp, paths.Full{T: tp})
	for _, c := range []struct {
		cfg Config
		err string
	}{
		{Config{NumVCs: -1}, "Config.NumVCs -1 outside 1..8"},
		{Config{NumVCs: 9}, "Config.NumVCs 9 outside 1..8"},
		{Config{NumVCs: 0}, ""},
		{Config{NumVCs: 1}, ""},
		{Config{NumVCs: 8, Scheme: routing.HopCountVC}, ""},
	} {
		for _, workers := range []int{1, 2, 8} {
			old := exec.SetDefault(exec.NewPool(workers))
			tb, err := Emit(st, c.cfg)
			exec.SetDefault(old)
			if c.err == "" && err != nil {
				t.Fatalf("%+v: %v", c.cfg, err)
			}
			if c.err != "" && (tb != nil || err == nil || !strings.Contains(err.Error(), c.err)) {
				t.Fatalf("%+v at %d workers: Emit = (%v, %v), want an error naming %q", c.cfg, workers, tb, err, c.err)
			}
		}
	}
}

var benchTables *Tables

// benchStore is one store the route benchmarks emit tables from.
type benchStore struct {
	name string
	st   *paths.Store
}

// benchStores returns the full VLB store of the paper's g9 machine and
// three of dfly(4,8,4,17), the topology cmd/routed serves: the full set,
// strategic 2+3 (a quarter of it, as bits over the full set) and the
// full set compiled under a local link and a switch failed (its live
// joins, as bits), the stores routed's -policy and -fail serve.
func benchStores(b *testing.B) []benchStore {
	g9, g17 := topo.MustNew(4, 8, 4, 9), topo.MustNew(4, 8, 4, 17)
	m := topo.NewFailureMask(g17)
	_, err := m.FailLocalLink(g17.SwitchID(1, 0), g17.SwitchID(1, 1))
	if err == nil {
		_, err = m.FailSwitch(g17.SwitchID(g17.G-1, 0))
	}
	if err != nil {
		b.Fatal(err)
	}
	return []benchStore{
		{"g9", paths.Compile(g9, paths.Full{T: g9})},
		{"g17", paths.Compile(g17, paths.Full{T: g17})},
		{"g17-strategic", paths.Compile(g17, paths.Strategic{T: g17, FirstLeg: 2})},
		{"g17-masked", paths.CompileDegraded(g17, paths.Full{T: g17}, m)},
	}
}

// BenchmarkFailSwap times a first failure epoch of the route service
// on each of benchStores' stores: a global link failed through
// Service.Fail on freshly emitted tables — mask clone, row list, row
// filter, swap. g17-local and g17-switch fail a local link and a switch
// of the g17 full store instead, the failures whose rows cover the most
// of the table: 13 596 and all 18 496 rows.
func BenchmarkFailSwap(b *testing.B) {
	type failCase struct {
		name string
		st   *paths.Store
		fail func(*topo.FailureMask) ([]topo.Channel, error)
	}
	var cases []failCase
	for _, c := range benchStores(b) {
		tp := c.st.T
		cases = append(cases, failCase{c.name, c.st, func(m *topo.FailureMask) ([]topo.Channel, error) {
			return m.FailGlobalLink(tp.A/2, tp.H-1)
		}})
	}
	g17 := cases[1].st
	tp := g17.T
	cases = append(cases,
		failCase{"g17-local", g17, func(m *topo.FailureMask) ([]topo.Channel, error) {
			return m.FailLocalLink(tp.SwitchID(2, 0), tp.SwitchID(2, 1))
		}},
		failCase{"g17-switch", g17, func(m *topo.FailureMask) ([]topo.Channel, error) {
			return m.FailSwitch(tp.SwitchID(2, 0))
		}})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tb, err := Emit(c.st, Default())
			if err != nil {
				b.Fatal(err)
			}
			svc := &Service{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.cur.Store(tb)
				if _, err := svc.Fail(c.fail); err != nil {
					b.Fatal(err)
				}
				benchTables = svc.Tables()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}

// BenchmarkEmit times the table emit of each of benchStores' stores
// (g9's full set: ~4.1M VLB candidates, none of them copied).
func BenchmarkEmit(b *testing.B) {
	for _, c := range benchStores(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb, err := Emit(c.st, Default())
				if err != nil {
					b.Fatal(err)
				}
				benchTables = tb
			}
		})
	}
}
