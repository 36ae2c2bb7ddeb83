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

// TestPhaseTiming pins the phase probe: switching Config.PhaseTiming
// on changes no result bit, every stepped cycle is counted once, the
// phases add up to something, a one-worker crew books no barrier time
// (there is nobody to wait for), and ResetPhaseTimes clears it all.
func TestPhaseTiming(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	full := paths.Full{T: tp}
	schemes := map[string]func() netsim.RoutingFunc{
		"UGAL-L": func() netsim.RoutingFunc { return routing.NewUGALL(tp, full) },
		"PAR":    func() netsim.RoutingFunc { return routing.NewPAR(tp, full) },
	}
	for name, mk := range schemes {
		for _, shards := range []int{1, 4} {
			label := fmt.Sprintf("%s/shards=%d", name, shards)
			cfg := netsim.DefaultConfig()
			cfg.NumVCs = 5
			cfg.Seed = 9
			cfg.Shards = shards
			cfg.ShardWorkers = shards
			run := func(timed bool) (*netsim.Network, netsim.RunResult) {
				c := cfg
				c.PhaseTiming = timed
				n := netsim.New(tp, c, mk(), traffic.Uniform{T: tp}, 0.2)
				return n, n.Run(300, 300, 600)
			}
			plain, want := run(false)
			if pt := plain.PhaseTimes(); pt != (netsim.PhaseTimes{}) {
				t.Fatalf("%s: PhaseTimes %+v with timing off", label, pt)
			}
			n, got := run(true)
			requireIdentical(t, want, got, label)
			pt := n.PhaseTimes()
			if pt.Cycles != got.Cycles {
				t.Fatalf("%s: PhaseTimes.Cycles = %d, stepped %d", label, pt.Cycles, got.Cycles)
			}
			if pt.DeliverNS <= 0 || pt.InjectNS <= 0 || pt.AllocNS <= 0 || pt.EjectNS <= 0 {
				t.Fatalf("%s: a phase booked no time: %+v", label, pt)
			}
			_, workers := n.ShardStats()
			if workers == 1 && pt.BarrierNS != 0 {
				t.Fatalf("%s: one worker booked BarrierNS = %d", label, pt.BarrierNS)
			}
			if workers > 1 && pt.BarrierNS <= 0 {
				t.Fatalf("%s: %d workers booked no barrier time: %+v", label, workers, pt)
			}
			n.ResetPhaseTimes()
			if pt := n.PhaseTimes(); pt != (netsim.PhaseTimes{}) {
				t.Fatalf("%s: PhaseTimes %+v after reset", label, pt)
			}
		}
	}
}
