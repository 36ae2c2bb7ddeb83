package netsim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// The shard-engine determinism contract: every RunResult field —
// latency mean and histogram quantiles, hop and VLB statistics,
// channel utilization — is bit-identical for any shard count and any
// worker count, across the same schemes and patterns the worker-pool
// determinism suite pins. Shard counts cover 1 (every router in one
// shard, stepped by the calling goroutine alone), even splits, and
// more shards than fit evenly; workers are
// forced to the shard count so `go test -race` drives true
// multi-goroutine phases regardless of the CPU-token budget.

func shardSchemes(t *topo.Compiled) map[string]func() netsim.RoutingFunc {
	full := paths.Full{T: t}
	strat := paths.Strategic{T: t, FirstLeg: 2}
	fullSt := paths.Compile(t, full)
	return map[string]func() netsim.RoutingFunc{
		"MIN":          func() netsim.RoutingFunc { return routing.NewMin(t) },
		"VLB":          func() netsim.RoutingFunc { return routing.NewVLB(t, full) },
		"UGAL-L":       func() netsim.RoutingFunc { return routing.NewUGALL(t, full) },
		"UGAL-G":       func() netsim.RoutingFunc { return routing.NewUGALG(t, full) },
		"UGAL-PB":      func() netsim.RoutingFunc { return routing.NewPiggyback(t, full) },
		"UGAL-L/store": func() netsim.RoutingFunc { return routing.NewUGALL(t, fullSt) },
		"T-UGAL-L": func() netsim.RoutingFunc {
			r := routing.NewUGALL(t, strat)
			r.Label = "T-UGAL-L"
			return r
		},
	}
}

func shardPatterns(t *topo.Compiled) map[string]func() traffic.Pattern {
	return map[string]func() traffic.Pattern{
		"uniform": func() traffic.Pattern { return traffic.Uniform{T: t} },
		"tmixed": func() traffic.Pattern {
			return traffic.NewTimeMixed(t, 50, traffic.Shift{T: t, DG: 1, DS: 0})
		},
		"perm": func() traffic.Pattern { return traffic.NewPermutation(t, 7) },
	}
}

// runSharded builds and runs one simulation at the given shard count.
func runSharded(t *topo.Compiled, cfg netsim.Config, rf netsim.RoutingFunc,
	pat traffic.Pattern, rate float64, shards int) netsim.RunResult {
	cfg.Shards = shards
	if shards > 1 {
		cfg.ShardWorkers = shards // force parallel stepping under -race
	}
	n := netsim.New(t, cfg, rf, pat, rate)
	return n.Run(600, 400, 800)
}

// requireIdentical compares every field, dereferencing Channels so
// bitwise-different pointers with equal stats still pass and nil/non-
// nil mismatches still fail.
func requireIdentical(t *testing.T, want, got netsim.RunResult, label string) {
	t.Helper()
	wc, gc := want.Channels, got.Channels
	want.Channels, got.Channels = nil, nil
	if want != got {
		t.Fatalf("%s: RunResult diverged:\n1-shard: %+v\ngot: %+v", label, want, got)
	}
	if (wc == nil) != (gc == nil) {
		t.Fatalf("%s: Channels presence diverged: %v vs %v", label, wc, gc)
	}
	if wc != nil && !reflect.DeepEqual(*wc, *gc) {
		t.Fatalf("%s: Channels diverged:\n1-shard: %+v\ngot: %+v", label, *wc, *gc)
	}
}

func TestShardDeterminism(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9) // 36 switches: shard sizes 36/18/9/5
	cfg := netsim.DefaultConfig()
	cfg.NumVCs = 4
	cfg.Seed = 11
	cfg.CollectChanStats = true
	for name, mk := range shardSchemes(tp) {
		for pname, pf := range shardPatterns(tp) {
			for _, rate := range []float64{0.1, 0.45} {
				ref := runSharded(tp, cfg, mk(), pf(), rate, 1)
				if ref.Measured == 0 {
					t.Fatalf("%s/%s@%g: no measured packets", name, pname, rate)
				}
				for _, shards := range []int{2, 4, 8} {
					got := runSharded(tp, cfg, mk(), pf(), rate, shards)
					requireIdentical(t, ref, got,
						fmt.Sprintf("%s/%s@%g/shards=%d", name, pname, rate, shards))
				}
			}
		}
	}
}

// TestShardDeterminismWormhole covers the multi-flit (wormhole) path:
// output-VC ownership plus body flits following heads across shard
// boundaries.
func TestShardDeterminismWormhole(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	cfg.Seed = 5
	cfg.PacketSize = 3
	full := paths.Full{T: tp}
	ref := runSharded(tp, cfg, routing.NewUGALL(tp, full), traffic.Uniform{T: tp}, 0.08, 1)
	if ref.Measured == 0 {
		t.Fatal("no measured packets")
	}
	for _, shards := range []int{2, 4, 8} {
		got := runSharded(tp, cfg, routing.NewUGALL(tp, full), traffic.Uniform{T: tp}, 0.08, shards)
		requireIdentical(t, ref, got, fmt.Sprintf("wormhole/shards=%d", shards))
	}
}

// TestShardWarmNetwork pins repeated Run calls (the RunConverged
// mechanism) to identical results at one and several shards:
// statistics reset per call, cycle counts accumulate.
func TestShardWarmNetwork(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	cfg.Seed = 3
	run := func(shards int) (netsim.RunResult, int) {
		c := cfg
		c.Shards = shards
		if shards > 1 {
			c.ShardWorkers = shards
		}
		n := netsim.New(tp, c, routing.NewUGALL(tp, paths.Full{T: tp}), traffic.Uniform{T: tp}, 0.2)
		return n.RunConverged(500, 400, 0.05, 6, 800)
	}
	ref, refW := run(1)
	for _, shards := range []int{2, 4} {
		got, w := run(shards)
		if w != refW {
			t.Fatalf("shards=%d: window count %d != one-shard %d", shards, w, refW)
		}
		requireIdentical(t, ref, got, fmt.Sprintf("warm/shards=%d", shards))
	}
}

// TestPARResolvesToOneShard pins the conservative gate: PAR revises
// routes in flight, so a sharded config must silently resolve to one
// shard — and one worker — rather than race on routeRNG.
func TestPARResolvesToOneShard(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	cfg.NumVCs = 5
	cfg.Shards = 4
	cfg.ShardWorkers = 4
	n := netsim.New(tp, cfg, routing.NewPAR(tp, paths.Full{T: tp}), traffic.Uniform{T: tp}, 0.1)
	if got := n.Shards(); got != 1 {
		t.Fatalf("PAR network built %d shards, want 1", got)
	}
	if res := n.Run(200, 200, 500); res.Measured == 0 {
		t.Fatal("PAR run measured no packets")
	}
	if shards, workers := n.ShardStats(); shards != 1 || workers != 1 {
		t.Fatalf("PAR network stepped %d shards with %d workers, want 1/1", shards, workers)
	}
	// And an eligible scheme on the same config does shard.
	n2 := netsim.New(tp, cfg, routing.NewUGALL(tp, paths.Full{T: tp}), traffic.Uniform{T: tp}, 0.1)
	if got := n2.Shards(); got != 4 {
		t.Fatalf("UGAL-L network built %d shards, want 4", got)
	}
}

// TestCyclesCumulative pins the documented RunResult.Cycles contract:
// cumulative across Run calls on a warm network, and consistent with
// RunConverged's returned window count.
func TestCyclesCumulative(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	mk := func() *netsim.Network {
		return netsim.New(tp, cfg, routing.NewMin(tp), traffic.Uniform{T: tp}, 0.05)
	}
	n := mk()
	if res := n.Run(100, 200, 0); res.Cycles != 300 {
		t.Fatalf("first Run: Cycles = %d, want 300", res.Cycles)
	}
	if res := n.Run(0, 200, 0); res.Cycles != 500 {
		t.Fatalf("second Run (warm): Cycles = %d, want 500 (cumulative)", res.Cycles)
	}
	const warmup, window = 500, 400
	n2 := mk()
	res, w := n2.RunConverged(warmup, window, 0.05, 6, 0)
	if want := int64(warmup + w*window); res.Cycles != want {
		t.Fatalf("RunConverged: Cycles = %d, want warmup+windows*window = %d (windows=%d)",
			res.Cycles, want, w)
	}
	if math.IsNaN(res.AvgLatency) {
		t.Fatal("RunConverged produced NaN latency")
	}
}
