package netsim_test

import (
	"math"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// hopProfile is the demand-weighted mean local and global hop count of
// pat's switch demands, each spread uniformly over candidates(s, d).
func hopProfile(tp *topo.Compiled, pat traffic.Deterministic, candidates func(s, d int) []paths.Path) (local, global float64) {
	total := 0.0
	for _, d := range traffic.SwitchDemands(tp, pat) {
		ps := candidates(int(d.Src), int(d.Dst))
		if len(ps) == 0 {
			continue
		}
		w := d.Rate / float64(len(ps))
		for _, p := range ps {
			g := 0.0
			for _, pt := range p.Ports {
				if tp.KindOfPort(int(pt)) == topo.Global {
					g++
				}
			}
			global += w * g
			local += w * (float64(p.Hops()) - g)
		}
		total += d.Rate
	}
	return local / total, global / total
}

// TestZeroLoadMatchesSimulator anchors the simulator to its channel
// latencies: at 1% load, UGAL-L's mean latency on shift(2,0) lies
// between the pipe latency of the MIN paths (less 5%) and that of the
// full VLB set (plus 30% for serialization and queueing).
func TestZeroLoadMatchesSimulator(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	pat := traffic.Shift{T: tp, DG: 2, DS: 0}
	cfg := netsim.DefaultConfig()
	full := paths.Full{T: tp}
	pipe := func(local, global float64) float64 {
		return local*float64(cfg.LocalLatency) + global*float64(cfg.GlobalLatency)
	}
	minLocal, minGlobal := hopProfile(tp, pat, func(s, d int) []paths.Path { return paths.EnumerateMin(tp, s, d) })
	if math.Abs(minGlobal-1) > 1e-9 || minLocal < 1.5 || minLocal > 2 {
		t.Fatalf("inter-group MIN profile: %v local, %v global hops; want (1.5..2, 1)", minLocal, minGlobal)
	}
	lo, hi := pipe(minLocal, minGlobal), pipe(hopProfile(tp, pat, full.Enumerate))

	res := netsim.New(tp, cfg, routing.NewUGALL(tp, full), pat, 0.01).Run(1000, 3000, 3000)
	if res.Saturated {
		t.Fatal("saturated at 1% load")
	}
	if res.AvgLatency < lo*0.95 {
		t.Fatalf("simulated %v below the MIN pipe latency %v", res.AvgLatency, lo)
	}
	if res.AvgLatency > hi*1.3 {
		t.Fatalf("simulated %v above the VLB pipe latency %v (+30%%)", res.AvgLatency, hi)
	}
}
