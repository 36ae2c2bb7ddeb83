package route

import (
	"fmt"
	"slices"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
)

// oracleRow is the emitter that packed every candidate up front, kept
// as the test-only oracle the served words are held to: MIN candidates
// in EnumerateMinAlive order, VLB candidates in the pair range of a
// store compiled under the same mask, each VC-stamped by
// routing.AppendVCHops and packed by netsim.PackWord.
func oracleRow(t *testing.T, st *paths.Store, cfg Config, s, d int) (min, vlb []uint64) {
	t.Helper()
	pack := func(p paths.Path) uint64 {
		w, ok := netsim.PackWord(routing.AppendVCHops(nil, st.T, cfg.NumVCs, cfg.Scheme, 1, p))
		if !ok {
			t.Fatalf("path %v does not fit a route word", p.Ports)
		}
		return w
	}
	for _, p := range paths.EnumerateMinAlive(st.T, st.Mask(), s, d) {
		min = append(min, pack(p))
	}
	for _, p := range st.Enumerate(s, d) {
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
			if netsim.WordHops(w) > 0 {
				fh.Port, fh.VC = netsim.WordHop(w, 0)
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

// bruteDirty is the brute force a failure's DeltaStats are held to,
// over the channels and switches dead in after but not in before (nil:
// pristine), and shares no code with paths.Delta: vlb counts the pairs
// with a path of st across a channel newly dead, found path by path, and
// all those pairs together with the ones with a MIN path live under
// before and dead under after, a newly dead switch's zero-hop path
// included.
func bruteDirty(st *paths.Store, before, after *topo.FailureMask) (vlb, all int) {
	t := st.T
	n := t.NumSwitches()
	fresh := func(sw, pt int) bool {
		return after.ChannelDead(sw, pt) && (before == nil || !before.ChannelDead(sw, pt))
	}
	dirty := make([]bool, n*n)
	for pi := range dirty {
		for _, p := range st.Enumerate(pi/n, pi%n) {
			for h, pt := range p.Ports {
				dirty[pi] = dirty[pi] || fresh(int(p.Sw[h]), int(pt))
			}
		}
		if dirty[pi] {
			vlb++
		}
		for _, p := range paths.EnumerateMinAlive(t, before, pi/n, pi%n) {
			dirty[pi] = dirty[pi] || !paths.Alive(after, p)
		}
		if dirty[pi] {
			all++
		}
	}
	return vlb, all
}

// BruteDirty is bruteDirty for the external tests.
var BruteDirty = bruteDirty
