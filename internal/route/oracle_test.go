package route

import (
	"fmt"
	"slices"
	"testing"

	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
)

// oracleRow is the emitter that packed every candidate up front, kept
// as the test-only oracle the served words are held to: MIN candidates
// in EnumerateMinAlive order, VLB candidates in the pair range of a
// store compiled under the same mask, each VC-stamped by
// routing.AppendVCHops and packed by packWord.
func oracleRow(t *testing.T, st *paths.Store, cfg Config, s, d int) (min, vlb []uint64) {
	t.Helper()
	pack := func(p paths.Path) uint64 {
		w, err := packWord(routing.AppendVCHops(nil, st.T, cfg.NumVCs, cfg.Scheme, 1, p))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, p := range paths.EnumerateMinAlive(st.T, st.Mask(), s, d) {
		min = append(min, pack(p))
	}
	first, count := st.PairRange(s, d)
	var p paths.Path
	for k := 0; k < count; k++ {
		st.MaterializeInto(s, first+paths.PathID(k), &p)
		vlb = append(vlb, pack(p))
	}
	return min, vlb
}

// oracleFirstHops folds the oracle's words to weighted first hops: per
// class, MIN first, one entry per (port, VC) in first-appearance order.
func oracleFirstHops(min, vlb []uint64) []FirstHop {
	var out []FirstHop
	for c, words := range [][]uint64{min, vlb} {
		base := len(out)
	next:
		for _, w := range words {
			fh := FirstHop{Port: -1, Weight: 1, Min: c == 0}
			if WordHops(w) > 0 {
				fh.Port, fh.VC = WordHop(w, 0)
			}
			for j := base; j < len(out); j++ {
				if out[j].Port == fh.Port && out[j].VC == fh.VC {
					out[j].Weight++
					continue next
				}
			}
			out = append(out, fh)
		}
	}
	return out
}

// TestWordOracle holds every pair's served MIN and VLB words, and the
// first hops FirstHops folds them to, to the oracle: on both families,
// under the default configuration and six hop-count VCs, pristine and
// after a global link, a local link and a switch fail in turn through
// Service.Fail (the oracle's store compiled degraded under the same
// cumulative mask).
func TestWordOracle(t *testing.T) {
	for _, tp := range []*topo.Compiled{topo.MustNew(2, 4, 2, 5), topo.MustNewD3(12, 4, 2)} {
		for _, cfg := range []Config{Default(), {NumVCs: 6, Scheme: routing.HopCountVC}} {
			t.Run(fmt.Sprintf("%s/vcs=%d", tp.Label(), cfg.NumVCs), func(t *testing.T) {
				pol := paths.Full{T: tp}
				st := paths.Compile(tp, pol)
				svc, err := NewService(st, ModeUGAL, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, svc.Tables(), st, cfg)
				mask := topo.NewFailureMask(tp)
				for i, step := range failSteps {
					if _, err := svc.Fail(func(m *topo.FailureMask) ([]topo.Channel, error) { return step(tp, m) }); err != nil {
						t.Fatal(err)
					}
					if _, err := step(tp, mask); err != nil {
						t.Fatal(err)
					}
					if svc.Tables().Epoch() != i+1 {
						t.Fatalf("step %d swapped nothing", i)
					}
					checkOracle(t, svc.Tables(), paths.CompileDegraded(tp, pol, mask), cfg)
				}
			})
		}
	}
}

func checkOracle(t *testing.T, tb *Tables, st *paths.Store, cfg Config) {
	t.Helper()
	n := st.T.NumSwitches()
	var hops []FirstHop
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			wantMin, wantVLB := oracleRow(t, st, cfg, s, d)
			min, vlb := tb.Row(s, d)
			if !slices.Equal(min, wantMin) || !slices.Equal(vlb, wantVLB) {
				t.Fatalf("epoch %d row (%d,%d): served MIN %x VLB %x, oracle MIN %x VLB %x",
					tb.Epoch(), s, d, min, vlb, wantMin, wantVLB)
			}
			hops = tb.FirstHops(s, d, hops[:0])
			if want := oracleFirstHops(wantMin, wantVLB); !slices.Equal(hops, want) {
				t.Fatalf("epoch %d row (%d,%d): first hops %+v, oracle %+v", tb.Epoch(), s, d, hops, want)
			}
		}
	}
}
