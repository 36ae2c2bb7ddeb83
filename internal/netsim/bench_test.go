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

// BenchmarkStepSharded measures the cycle loop at 1/2/4/8 shards with
// the worker crew forced to the shard count, on the paper's g=9
// topology and (unless -short) the 702-switch fig13/14 topology. The
// 1-shard case — one worker, no barrier — is the baseline every
// multi-shard ns/op compares against. Speedup requires cores: on
// GOMAXPROCS=1 hosts the multi-shard cases only measure mailbox and
// barrier overhead. This is the repo's 1/2/4/8-shard matrix; cmd/bench
// times the 1- and 2-shard loop end to end (sim_sw702_adv).
func BenchmarkStepSharded(b *testing.B) {
	bench := func(b *testing.B, t *topo.Compiled, cycles int64, rate float64) {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
				cfg := netsim.DefaultConfig()
				cfg.Shards = shards
				if shards > 1 {
					cfg.ShardWorkers = shards
				}
				rf := routing.NewUGALL(t, paths.Full{T: t})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n := netsim.New(t, cfg, rf.CloneRouting(),
						traffic.Shift{T: t, DG: 2, DS: 0}, rate)
					res := n.Run(cycles/2, cycles/2, 0)
					if res.Measured == 0 {
						b.Fatal("no packets measured")
					}
				}
				b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			})
		}
	}
	b.Run("g9", func(b *testing.B) {
		bench(b, topo.MustNew(4, 8, 4, 9), 2000, 0.15)
	})
	b.Run("sw702", func(b *testing.B) {
		if testing.Short() {
			b.Skip("702-switch topology skipped in -short")
		}
		bench(b, topo.MustNew(13, 26, 13, 27), 600, 0.1)
	})
}

// BenchmarkStepArena measures the steady-state cycle loop alone:
// the network is built and warmed outside the timer, so ns/op and
// allocs/op describe only stepping an already-running simulation —
// the figure the flit arena's zero-steady-state-allocation claim is
// about (BenchmarkStepSharded amortizes construction into every op
// instead). Expected allocs/op: ~0 (occasional timing-wheel bucket
// growth only).
func BenchmarkStepArena(b *testing.B) {
	const cycles = 200
	t := topo.MustNew(4, 8, 4, 9)
	rf := routing.NewUGALL(t, paths.Full{T: t})
	n := netsim.New(t, netsim.DefaultConfig(), rf.CloneRouting(),
		traffic.Shift{T: t, DG: 2, DS: 0}, 0.15)
	n.Run(800, 200, 0) // warm to steady occupancy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(0, cycles, 0)
	}
	b.ReportMetric(cycles*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// TestSteadyStateAllocs pins the zero-steady-state-allocation
// contract at every shard count, including the worker crew: once a
// network is warmed past the transient (ring growth, calendar bucket
// growth, shard mailbox growth all happen during ramp), extending the
// simulation must allocate nothing — on the coordinator or on any
// engine worker. AllocsPerRun measures the global malloc counter, so
// a worker goroutine that allocates per cycle fails the test just as
// the main loop would. cmd/bench reports the same figure from outside
// as netsim.steady_allocs_per_cycle.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc steadiness needs full warmup; skipped in -short")
	}
	tp := topo.MustNew(4, 8, 4, 9)
	rf := routing.NewUGALL(tp, paths.Full{T: tp})
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := netsim.DefaultConfig()
			cfg.Shards = shards
			if shards > 1 {
				cfg.ShardWorkers = shards
			}
			n := netsim.New(tp, cfg, rf.CloneRouting(),
				traffic.Shift{T: tp, DG: 2, DS: 0}, 0.15)
			n.Run(800, 200, 0) // past the transient: buffers at steady size
			allocs := testing.AllocsPerRun(3, func() {
				n.Run(0, 200, 0)
			})
			if allocs > 0 {
				t.Errorf("steady-state Run allocated %.1f times per 200-cycle window, want 0", allocs)
			}
		})
	}
}

// BenchmarkInjectActive isolates the O(active) injection win: a large
// network at a load so low that almost every terminal is idle almost
// every cycle — the regime where the former full node scan dominated.
func BenchmarkInjectActive(b *testing.B) {
	t := topo.MustNew(4, 8, 4, 17) // 2176 nodes
	cfg := netsim.DefaultConfig()
	rf := routing.NewMin(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := netsim.New(t, cfg, rf.CloneRouting(), traffic.Uniform{T: t}, 0.002)
		res := n.Run(2000, 2000, 0)
		if res.Measured == 0 {
			b.Fatal("no packets measured")
		}
	}
	b.ReportMetric(4000*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}
