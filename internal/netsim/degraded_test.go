package netsim_test

import (
	"fmt"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// The degraded-simulation determinism contract: with a fixed failure
// mask — dead global link, dead local link, dead switch — every
// RunResult field, refusal counters included, is bit-identical for
// any shard count and any worker count. All refusal happens on the
// sequential injection path, so this holds by construction; the suite
// pins it under -race in CI.

// degradedMask fails one global link, one local link and one whole
// switch of the 36-switch test topology. With K=1 the global cut
// leaves every pair between groups 2 and 8... whichever two groups
// the failed link connected... with zero surviving MIN paths, so MIN
// routing must refuse and adaptive routing must go VLB-only.
func degradedMask(tp *topo.Compiled) *topo.FailureMask {
	m := topo.NewFailureMask(tp)
	if _, err := m.FailGlobalLink(tp.A/2, tp.H-1); err != nil {
		panic(err)
	}
	if _, err := m.FailLocalLink(tp.SwitchID(1, 0), tp.SwitchID(1, 1)); err != nil {
		panic(err)
	}
	if _, err := m.FailSwitch(tp.SwitchID(tp.G-1, 0)); err != nil {
		panic(err)
	}
	return m
}

// degradedSchemes builds routers over the degraded store epoch (and
// one over an interpreted policy, exercising the rejection-sampling
// path); each routes on what survives the network's mask.
func degradedSchemes(tp *topo.Compiled, mask *topo.FailureMask) map[string]func() netsim.RoutingFunc {
	full := paths.Full{T: tp}
	degStore := paths.CompileDegraded(tp, full, mask)
	return map[string]func() netsim.RoutingFunc{
		"MIN":           func() netsim.RoutingFunc { return routing.NewMin(tp) },
		"VLB":           func() netsim.RoutingFunc { return routing.NewVLB(tp, degStore) },
		"UGAL-L":        func() netsim.RoutingFunc { return routing.NewUGALL(tp, degStore) },
		"UGAL-L/interp": func() netsim.RoutingFunc { return routing.NewUGALL(tp, full) },
	}
}

// runDegraded builds and runs one degraded simulation at the given
// shard and worker counts.
func runDegraded(tp *topo.Compiled, mask *topo.FailureMask, cfg netsim.Config,
	rf netsim.RoutingFunc, rate float64, shards, workers int) netsim.RunResult {
	cfg.Failures = mask
	cfg.Shards = shards
	cfg.ShardWorkers = workers
	n := netsim.New(tp, cfg, rf, traffic.Uniform{T: tp}, rate)
	return n.Run(600, 400, 800)
}

func TestDegradedShardDeterminism(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mask := degradedMask(tp)
	cfg := netsim.DefaultConfig()
	cfg.NumVCs = 4
	cfg.Seed = 11
	cfg.CollectChanStats = true
	for name, mk := range degradedSchemes(tp, mask) {
		for _, rate := range []float64{0.1, 0.4} {
			ref := runDegraded(tp, mask, cfg, mk(), rate, 1, 0)
			if ref.Measured == 0 {
				t.Fatalf("%s@%g: no measured packets", name, rate)
			}
			if ref.Refused == 0 {
				t.Fatalf("%s@%g: no refused packets — the dead switch's nodes "+
					"generate uniform traffic, so refusals must occur", name, rate)
			}
			for _, shards := range []int{2, 4, 8} {
				got := runDegraded(tp, mask, cfg, mk(), rate, shards, shards)
				requireIdentical(t, ref, got,
					fmt.Sprintf("%s@%g/shards=%d", name, rate, shards))
			}
			// Oversubscribed workers: more goroutines than shards.
			got := runDegraded(tp, mask, cfg, mk(), rate, 8, 16)
			requireIdentical(t, ref, got, fmt.Sprintf("%s@%g/workers=16", name, rate))
		}
	}
}

// TestDegradedEmptyMaskMatchesPristine pins that the failure-aware
// code paths are exact supersets of the pristine ones: an empty mask
// (failure-aware branches taken, nothing actually dead) reproduces
// the nil-mask run bit for bit, RNG draws included.
func TestDegradedEmptyMaskMatchesPristine(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	empty := topo.NewFailureMask(tp)
	cfg := netsim.DefaultConfig()
	cfg.NumVCs = 4
	cfg.Seed = 11
	cfg.CollectChanStats = true
	full := paths.Full{T: tp}
	for _, shards := range []int{1, 4} {
		ref := runSharded(tp, cfg, routing.NewUGALL(tp, full), traffic.Uniform{T: tp}, 0.3, shards)
		got := runDegraded(tp, empty, cfg, routing.NewUGALL(tp, full), 0.3, shards, shards)
		if got.Refused != 0 {
			t.Fatalf("shards=%d: empty mask refused %d packets", shards, got.Refused)
		}
		requireIdentical(t, ref, got, fmt.Sprintf("empty-mask/shards=%d", shards))
	}
}
