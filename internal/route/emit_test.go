package route

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/paths"
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

// TestEmitWorkers pins the row-parallel emit byte-identical — idx and
// words — to a sequential row-by-row append of the same candidates, at
// 1, 2 and 8 workers, across policy shapes, families, and pristine
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
					e := &emitter{t: tp, cfg: Default(), mask: mask}
					idx := make([]int32, 0, n*n*3)
					var words []uint64
					for s := 0; s < n; s++ {
						for d := 0; d < n; d++ {
							start := int32(len(words))
							var minN, vlbN int32
							words, minN, vlbN = e.emitPair(st, s, d, words)
							idx = append(idx, start, minN, vlbN)
						}
					}
					if e.failed != nil {
						t.Fatal(e.failed)
					}
					var first *Tables
					for _, workers := range []int{1, 2, 8} {
						old := exec.SetDefault(exec.NewPool(workers))
						tb, err := Emit(st, Default())
						exec.SetDefault(old)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(tb.idx, idx) {
							t.Fatalf("%d workers: idx differs from the sequential reference", workers)
						}
						if !slices.Equal(tb.words, words) {
							t.Fatalf("%d workers: words differ from the sequential reference", workers)
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
// give the same idx and the same patch pages, derived three times from
// one parent (ApplyDelta shares no writable memory with its receiver),
// and rows equal to a from-scratch emit of a store compiled degraded.
// The g9 instance is the one whose epochs span several pages.
func TestDeltaWorkers(t *testing.T) {
	topos := []*topo.Compiled{topo.MustNew(2, 4, 2, 5), topo.MustNewD3(12, 4, 2)}
	if !testing.Short() {
		topos = append(topos, topo.MustNew(4, 8, 4, 9))
	}
	steps := []func(*topo.Compiled, *topo.FailureMask) ([]topo.Channel, error){
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
	for _, tp := range topos {
		t.Run(tp.Label(), func(t *testing.T) {
			pol := paths.Full{T: tp}
			st := paths.Compile(tp, pol)
			tb, err := Emit(st, Default())
			if err != nil {
				t.Fatal(err)
			}
			mask := topo.NewFailureMask(tp)
			for i, step := range steps {
				mask = mask.Clone()
				delta, err := step(tp, mask)
				if err != nil || len(delta) == 0 {
					t.Fatalf("step %d killed %d channels: %v", i, len(delta), err)
				}
				vlbDirty := st.DirtyPairs(delta)
				var first *Tables
				for _, workers := range []int{1, 2, 8} {
					old := exec.SetDefault(exec.NewPool(workers))
					got, stats, err := tb.ApplyDelta(mask, delta, vlbDirty)
					exec.SetDefault(old)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = got
						want, err := Emit(paths.CompileDegraded(tp, pol, mask), Default())
						if err != nil {
							t.Fatal(err)
						}
						if !got.EqualRows(want) {
							t.Fatalf("step %d: filtered rows differ from the scratch emit", i)
						}
						if got.PatchBytes()-tb.PatchBytes() != 8*int64(stats.WordsEmitted) || stats.WordsEmitted == 0 {
							t.Fatalf("step %d: %d words emitted, patch grew %d bytes", i, stats.WordsEmitted, got.PatchBytes()-tb.PatchBytes())
						}
						continue
					}
					if !slices.Equal(got.idx, first.idx) {
						t.Fatalf("step %d, %d workers: idx differs from the 1-worker tables", i, workers)
					}
					if !slices.EqualFunc(got.pages, first.pages, slices.Equal[[]uint64]) {
						t.Fatalf("step %d, %d workers: patch pages differ from the 1-worker tables", i, workers)
					}
				}
				tb = first
			}
			if tp.G == 9 && len(tb.pages) <= 2*len(steps) {
				t.Fatalf("g9 epochs fit %d pages: no chunk spans a page boundary", len(tb.pages))
			}
		})
	}
}

// TestEmitErrorIsLowestRow: whichever worker hits a packing failure
// first, Emit reports the lowest-index failing row. A negative VC
// budget clamps every hop's VC below zero, so every row with a hop
// fails; with switch 0 dead its rows are empty, (1,0) has no
// candidate and (1,1) is the zero-hop ejection, which leaves (1,2).
func TestEmitErrorIsLowestRow(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	mask := topo.NewFailureMask(tp)
	if _, err := mask.FailSwitch(0); err != nil {
		t.Fatal(err)
	}
	st := paths.CompileDegraded(tp, paths.Full{T: tp}, mask)
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			old := exec.SetDefault(exec.NewPool(workers))
			tb, err := Emit(st, Config{NumVCs: -1})
			exec.SetDefault(old)
			if err == nil || tb != nil {
				t.Fatalf("%d workers: Emit = (%v, %v), want a packing error", workers, tb, err)
			}
			if !strings.Contains(err.Error(), "row (1,2)") {
				t.Fatalf("%d workers: error %q does not name the lowest failing row (1,2)", workers, err)
			}
		}
	}
}

var benchTables *Tables

// BenchmarkFailSwap times one failure epoch of the route service on the
// paper's g9 machine: a global link failed through Service.Fail on
// pristine tables — mask clone, dirty-pair list, row filter, swap. The
// base store's edge index is built before the clock starts.
func BenchmarkFailSwap(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	st := paths.Compile(tp, paths.Full{T: tp})
	st.BuildEdgeIndex()
	tb, err := Emit(st, Default())
	if err != nil {
		b.Fatal(err)
	}
	svc := &Service{store: st}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.cur.Store(tb)
		if _, err := svc.FailGlobalLink(tp.A/2, tp.H-1); err != nil {
			b.Fatal(err)
		}
		benchTables = svc.Tables()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}

// BenchmarkEmit times the table emit of the full-VLB store on the
// paper's g9 machine (~4.1M candidate words).
func BenchmarkEmit(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	st := paths.Compile(tp, paths.Full{T: tp})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := Emit(st, Default())
		if err != nil {
			b.Fatal(err)
		}
		benchTables = tb
	}
}
