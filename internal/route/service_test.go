package route_test

import (
	"sync"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/route"
	"tugal/internal/topo"
)

// validateDecision structurally checks one served decision against
// the topology snapshot it was served from: the decoded route must
// walk real channels switch to switch from src to dst. Unlike the
// bit-equivalence tests this needs no RNG pairing, so it works under
// concurrent swaps where the serving epoch is unknowable.
func validateDecision(t *testing.T, tb *route.Tables, d route.Decision, srcSw, dstSw int) {
	t.Helper()
	if d.Refused {
		return
	}
	tp := tb.T
	sw := srcSw
	for i := 0; i < int(d.Hops); i++ {
		p, vc := route.WordHop(d.Word, i)
		if int(vc) >= 4 {
			t.Fatalf("hop %d: VC %d out of budget", i, vc)
		}
		next, ok := tp.PeerOfPortOK(sw, int(p))
		if !ok {
			t.Fatalf("hop %d: port %d of switch %d is unwired", i, p, sw)
		}
		sw = next
	}
	if sw != dstSw {
		t.Fatalf("route ends at switch %d, want %d", sw, dstSw)
	}
}

// TestConcurrentLookupsAndSwaps drives the epoch-swap path under the
// race detector: reader goroutines stream batched lookups and decode
// routes while a writer applies failures and swaps epochs. Every
// served decision must be structurally valid against the table
// snapshot that served it — reads are torn-free even mid-swap.
func TestConcurrentLookupsAndSwaps(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	pol := paths.Full{T: tp}
	svc, err := route.NewService(paths.Compile(tp, pol), route.ModeUGAL, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	const batches = 60
	const batch = 64
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			pairs := rng.New(seed + 100)
			src := make([]int32, batch)
			dst := make([]int32, batch)
			out := make([]route.Decision, batch)
			var buf []netsim.RouteHop
			for b := 0; b < batches; b++ {
				for i := range src {
					src[i] = int32(pairs.Intn(tp.NumNodes()))
					dst[i] = int32(pairs.Intn(tp.NumNodes()))
				}
				// Pin the epoch we validate against: Lookup directly on
				// the snapshot mirrors what LookupBatch does internally.
				tb := svc.Tables()
				for i := 0; i < batch; i++ {
					s, d := tp.SwitchOfNode(int(src[i])), tp.SwitchOfNode(int(dst[i]))
					dec := tb.Lookup(r, route.ModeUGAL, 0, s, d)
					validateDecision(t, tb, dec, s, d)
					if !dec.Refused {
						buf = route.AppendRoute(buf[:0], dec.Word, int8(tp.NodeIndex(int(dst[i]))))
						if len(buf) != int(dec.Hops)+1 {
							t.Errorf("decoded %d hops, decision says %d", len(buf), dec.Hops+1)
							return
						}
					}
				}
				// And the service-level batch API, for counter/race
				// coverage of the exact serving path.
				svc.LookupBatch(r, src, dst, out)
			}
		}(uint64(w + 1))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(999)
		swapped := 0
		for step := 0; step < 40 && swapped < 8; step++ {
			op, ok := drawFailure(r, tp)
			if !ok {
				continue
			}
			stats, err := svc.Fail(op)
			if err != nil {
				t.Errorf("fail: %v", err)
				return
			}
			if stats.NewlyDead > 0 {
				swapped++
			}
		}
	}()
	wg.Wait()

	served, nbatches, swaps := svc.Counters()
	if served != readers*batches*batch || nbatches != readers*batches {
		t.Errorf("counters served=%d batches=%d, want %d/%d", served, nbatches, readers*batches*batch, readers*batches)
	}
	if swaps == 0 {
		t.Error("writer swapped no epochs; concurrency path not exercised")
	}
}

// TestFailNoOp pins that re-failing an already-dead target swaps
// nothing: same epoch, no dirty rows, same table pointer.
func TestFailNoOp(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	svc, err := route.NewService(paths.Compile(tp, paths.Full{T: tp}), route.ModeUGAL, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	gsw, ggp := wiredGlobal(tp)
	first, err := svc.FailGlobalLink(gsw, ggp)
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 1 || first.NewlyDead == 0 {
		t.Fatalf("first failure: %+v", first)
	}
	before := svc.Tables()
	again, err := svc.FailGlobalLink(gsw, ggp)
	if err != nil {
		t.Fatal(err)
	}
	if again.NewlyDead != 0 || again.DirtyPairs != 0 || again.Epoch != 1 {
		t.Fatalf("re-failing dead link was not a no-op: %+v", again)
	}
	if svc.Tables() != before {
		t.Fatal("no-op failure swapped the table pointer")
	}
	if _, _, swaps := svc.Counters(); swaps != 1 {
		t.Fatalf("swap counter %d, want 1", swaps)
	}
}

// TestFailErrorLeavesEpoch: an apply that kills a link and then
// fails must leave nothing behind — same tables, same mask — so the
// same link failed again, alone, is a real failure and swaps.
func TestFailErrorLeavesEpoch(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	svc, err := route.NewService(paths.Compile(tp, paths.Full{T: tp}), route.ModeUGAL, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	gsw, ggp := wiredGlobal(tp)
	before := svc.Tables()
	_, err = svc.Fail(func(m *topo.FailureMask) ([]topo.Channel, error) {
		if _, err := m.FailGlobalLink(gsw, ggp); err != nil {
			return nil, err
		}
		return m.FailSwitch(-1)
	})
	if err == nil {
		t.Fatal("half-valid failure was accepted")
	}
	if svc.Tables() != before {
		t.Fatal("rejected failure swapped the tables")
	}
	stats, err := svc.FailGlobalLink(gsw, ggp)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewlyDead != 2 || stats.Epoch != 1 {
		t.Fatalf("link killed by the rejected failure stayed dead in the mask: %+v", stats)
	}
	if m := svc.Tables().Mask(); !m.ChannelDead(gsw, tp.GlobalPort(ggp)) {
		t.Fatal("the swapped epoch's mask does not hold the failed link")
	}
	if before.Mask() != nil {
		t.Fatal("epoch 0 acquired a mask")
	}
}

// TestFailSwitchAfterItsLinks: a switch whose links were all failed
// one by one dies without a single newly dead channel. The mask still
// grew, so the failure must swap, and the switch's own row must refuse.
func TestFailSwitchAfterItsLinks(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	pol := paths.Full{T: tp}
	svc, err := route.NewService(paths.Compile(tp, pol), route.ModeUGAL, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	const sw = 5
	mask := topo.NewFailureMask(tp)
	for i := 0; i < tp.A; i++ {
		if v := tp.SwitchID(tp.GroupOf(sw), i); v != sw {
			if _, err := svc.FailLocalLink(sw, v); err != nil {
				t.Fatal(err)
			}
			mask.FailLocalLink(sw, v)
		}
	}
	for gp := 0; gp < tp.H; gp++ {
		if _, _, ok := tp.GlobalPeerOK(sw, gp); ok {
			if _, err := svc.FailGlobalLink(sw, gp); err != nil {
				t.Fatal(err)
			}
			mask.FailGlobalLink(sw, gp)
		}
	}
	epoch := svc.Tables().Epoch()
	node := int32(tp.NodeID(sw, 0))
	out := make([]route.Decision, 1)
	svc.LookupBatch(rng.New(1), []int32{node}, []int32{node}, out)
	if out[0].Refused {
		t.Fatal("an isolated but live switch refused its own terminals")
	}
	stats, err := svc.FailSwitch(sw)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewlyDead != 0 || stats.Epoch != epoch+1 || stats.DirtyPairs != 1 {
		t.Fatalf("switch death with no live channel left: %+v, want a swap to epoch %d of one row", stats, epoch+1)
	}
	svc.LookupBatch(rng.New(1), []int32{node}, []int32{node}, out)
	if !out[0].Refused {
		t.Fatal("dead switch still serves its own row")
	}
	mask.FailSwitch(sw)
	want, err := route.Emit(paths.CompileDegraded(tp, pol, mask), route.Default())
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Tables().EqualRows(want) {
		t.Fatal("tables differ from a scratch emit under the same mask")
	}
}

// TestParseMode covers the mode spec round-trip.
func TestParseMode(t *testing.T) {
	for _, spec := range []string{"ugal", "min", "vlb"} {
		m, err := route.ParseMode(spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != spec {
			t.Fatalf("round trip %q -> %q", spec, m.String())
		}
	}
	if m, err := route.ParseMode(""); err != nil || m != route.ModeUGAL {
		t.Fatalf("empty spec: %v %v", m, err)
	}
	if _, err := route.ParseMode("bogus"); err == nil {
		t.Fatal("bogus spec accepted")
	}
}
