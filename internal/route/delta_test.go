package route_test

import (
	"fmt"
	"testing"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/route"
	"tugal/internal/topo"
)

// failOp is one replayable failure: applied to the service under test
// and to reference masks rebuilt from scratch.
type failOp func(*topo.FailureMask) ([]topo.Channel, error)

// drawFailure picks one random failure (global link, local link or
// switch). ok=false when the draw hit an unwired port or a degenerate
// pair and should be redrawn.
func drawFailure(r *rng.Source, tp *topo.Compiled) (failOp, bool) {
	switch r.Intn(3) {
	case 0:
		sw, gp := r.Intn(tp.NumSwitches()), r.Intn(tp.H)
		if _, _, ok := tp.GlobalPeerOK(sw, gp); !ok {
			return nil, false
		}
		return func(m *topo.FailureMask) ([]topo.Channel, error) {
			return m.FailGlobalLink(sw, gp)
		}, true
	case 1:
		g := r.Intn(tp.G)
		u := tp.SwitchID(g, r.Intn(tp.A))
		v := tp.SwitchID(g, r.Intn(tp.A))
		if u == v {
			return nil, false
		}
		return func(m *topo.FailureMask) ([]topo.Channel, error) {
			return m.FailLocalLink(u, v)
		}, true
	default:
		sw := r.Intn(tp.NumSwitches())
		return func(m *topo.FailureMask) ([]topo.Channel, error) {
			return m.FailSwitch(sw)
		}, true
	}
}

// replayMask rebuilds the cumulative mask of ops[:k] on a fresh
// FailureMask (nil when k is 0, matching a pristine store).
func replayMask(t *testing.T, tp *topo.Compiled, ops []failOp, k int) *topo.FailureMask {
	t.Helper()
	if k == 0 {
		return nil
	}
	m := topo.NewFailureMask(tp)
	for _, op := range ops[:k] {
		if _, err := op(m); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestDeltaMatchesScratch is the incremental-epoch property test:
// over randomized failure sequences, the tables the service reaches
// through row list → dirty-row filter → epoch swap must equal,
// row for row, a from-scratch emit over a store compiled degraded
// against the same cumulative failure mask.
func TestDeltaMatchesScratch(t *testing.T) {
	topos := []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5),
		topo.MustNewD3(12, 4, 2),
	}
	for _, tp := range topos {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tp.Label(), seed), func(t *testing.T) {
				r := rng.New(seed)
				pol := paths.Full{T: tp}
				st := paths.Compile(tp, pol)
				svc, err := route.NewService(st, route.ModeUGAL, 0, route.Default())
				if err != nil {
					t.Fatal(err)
				}
				var ops []failOp
				for step := 0; step < 16 && len(ops) < 6; step++ {
					op, ok := drawFailure(r, tp)
					if !ok {
						continue
					}
					stats, err := svc.Fail(op)
					if err != nil {
						t.Fatal(err)
					}
					if stats.Epoch == len(ops) {
						continue // already-dead target: no-op, no swap
					}
					ops = append(ops, op)
					mask := replayMask(t, tp, ops, len(ops))
					if vlb, all := route.BruteDirty(st, replayMask(t, tp, ops, len(ops)-1), mask); stats.VLBDirty != vlb || stats.DirtyPairs != all {
						t.Fatalf("step %d: %d VLB-dirty and %d dirty pairs, brute force %d and %d",
							step, stats.VLBDirty, stats.DirtyPairs, vlb, all)
					}
					want, err := route.Emit(paths.CompileDegraded(tp, pol, mask), route.Default())
					if err != nil {
						t.Fatal(err)
					}
					got := svc.Tables()
					if got.Epoch() != len(ops) {
						t.Fatalf("step %d: epoch %d, want %d", step, got.Epoch(), len(ops))
					}
					if !got.EqualRows(want) {
						t.Fatalf("step %d (mask %v): delta-derived tables differ from scratch emit", step, mask)
					}
				}
				if len(ops) == 0 {
					t.Fatal("seed produced no effective failures; property not exercised")
				}
			})
		}
	}
}

// TestEpochSnapshotIsolation pins the RCU contract on the table side:
// a *Tables captured before a swap keeps serving its own rows
// unchanged after any number of later deltas. Every epoch writes a
// chunk of its own on fresh patch pages and shares the earlier ones by
// pointer, so a dozen swaps leave a dozen chunks live behind the
// oldest snapshot's back.
func TestEpochSnapshotIsolation(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	pol := paths.Full{T: tp}
	svc, err := route.NewService(paths.Compile(tp, pol), route.ModeUGAL, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	var ops []failOp
	snaps := []*route.Tables{svc.Tables()}
	for step := 0; step < 64 && len(ops) < 14; step++ {
		op, ok := drawFailure(r, tp)
		if !ok {
			continue
		}
		stats, err := svc.Fail(op)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Epoch == len(ops) {
			continue
		}
		ops = append(ops, op)
		snaps = append(snaps, svc.Tables())
	}
	if len(ops) < 12 {
		t.Fatalf("%d effective failures, want at least 12 live epochs", len(ops))
	}
	// Every historical snapshot must still equal the scratch emit of
	// its own epoch's mask, despite all the swaps since.
	for i, tb := range snaps {
		mask := replayMask(t, tp, ops, i)
		want, err := route.Emit(paths.CompileDegraded(tp, pol, mask), route.Default())
		if err != nil {
			t.Fatal(err)
		}
		if !tb.EqualRows(want) {
			t.Fatalf("epoch-%d snapshot was clobbered by a later epoch", i)
		}
	}
}
