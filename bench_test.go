// Benchmarks regenerating every table and figure of the paper's
// evaluation at bench scale (short windows, thinned load grids), one
// benchmark per table/figure, plus a saturation-throughput shape
// check. Run a single figure with e.g.
//
//	go test -bench BenchmarkFig06 -benchtime 1x
//
// Paper-scale regeneration is done by cmd/figures -scale paper; the
// benchmark numbers (ns/op of one figure regeneration) track the
// cost of the harness itself. The datasets produced here are the
// same series the paper plots; EXPERIMENTS.md records the measured
// values against the paper's.
package tugal_test

import (
	"fmt"
	"testing"

	"tugal"
)

func benchOpts() tugal.FigureOptions {
	opt := tugal.DefaultFigureOptions()
	opt.Scale = 2 // figures.ScaleBench
	return opt
}

func runFigure(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tugal.RunFigure(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 && len(res.Series) == 0 {
			b.Fatalf("%s produced no data", id)
		}
		if i == 0 {
			reportFigure(b, res)
		}
	}
}

// reportFigure attaches headline numbers of the regenerated figure
// as custom benchmark metrics, so `go test -bench` output doubles as
// a compact reproduction log.
func reportFigure(b *testing.B, res *tugal.FigureResult) {
	for _, c := range res.Series {
		b.ReportMetric(c.SaturationThroughput(), "sat:"+sanitize(c.Name))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '\t', ',', '(', ')':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkTable1ProbeGrid(b *testing.B)  { runFigure(b, "table1") }
func BenchmarkTable2Topologies(b *testing.B) { runFigure(b, "table2") }
func BenchmarkTable3Defaults(b *testing.B)   { runFigure(b, "table3") }

func BenchmarkFig04ModelCurve9(b *testing.B)  { runFigure(b, "fig4") }
func BenchmarkFig05ModelCurve33(b *testing.B) { runFigure(b, "fig5") }

func BenchmarkFig06AdvLatency(b *testing.B)  { runFigure(b, "fig6") }
func BenchmarkFig07AdvLatencyG(b *testing.B) { runFigure(b, "fig7") }
func BenchmarkFig08Perm(b *testing.B)        { runFigure(b, "fig8") }
func BenchmarkFig09PermG(b *testing.B)       { runFigure(b, "fig9") }
func BenchmarkFig10Mixed7525(b *testing.B)   { runFigure(b, "fig10") }
func BenchmarkFig11Mixed2575(b *testing.B)   { runFigure(b, "fig11") }
func BenchmarkFig12TMixed(b *testing.B)      { runFigure(b, "fig12") }

func BenchmarkFig13Large(b *testing.B) {
	if testing.Short() {
		b.Skip("large topology (702 switches); skipped in -short")
	}
	runFigure(b, "fig13")
}

func BenchmarkFig14LargeMixed(b *testing.B) {
	if testing.Short() {
		b.Skip("large topology (702 switches); skipped in -short")
	}
	runFigure(b, "fig14")
}

func BenchmarkFig15LatencySens(b *testing.B) { runFigure(b, "fig15") }
func BenchmarkFig16BufferSens(b *testing.B)  { runFigure(b, "fig16") }
func BenchmarkFig17SpeedupSens(b *testing.B) { runFigure(b, "fig17") }
func BenchmarkFig18VCSens(b *testing.B)      { runFigure(b, "fig18") }

// BenchmarkSimulatorCycles measures raw simulator throughput: cycles
// per second on the paper's small topology under adversarial load.
func BenchmarkSimulatorCycles(b *testing.B) {
	t := tugal.MustTopology(4, 8, 4, 9)
	cfg := tugal.DefaultSimConfig()
	rf := tugal.NewUGALL(t, tugal.FullVLB(t))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := tugal.NewSimulation(t, cfg, rf, tugal.Shift(t, 2, 0), 0.15)
		res := sim.Run(1000, 1000, 0)
		if res.Measured == 0 {
			b.Fatal("no packets")
		}
	}
	b.ReportMetric(2000*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkParallelSweep compares one latency sweep (6 load points x
// 2 seeds, adversarial traffic) on a sequential one-worker pool
// against the GOMAXPROCS-sized default. Both sub-benchmarks produce
// bit-identical curves; the ratio of their ns/op is the execution
// engine's wall-clock speedup on this machine (~linear in cores until
// the 12 independent runs are exhausted; no speedup on a single-core
// host). EXPERIMENTS.md records measured numbers.
func BenchmarkParallelSweep(b *testing.B) {
	t := tugal.MustTopology(4, 8, 4, 9)
	cfg := tugal.DefaultSimConfig()
	pat := tugal.Shift(t, 2, 0)
	rates := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
	w := tugal.SweepWindows{Warmup: 1000, Measure: 800, Drain: 1500}
	sweepOnce := func(b *testing.B) tugal.SweepCurve {
		c := tugal.LatencyCurve(t, cfg, tugal.NewUGALL(t, tugal.FullVLB(t)),
			pat, rates, w, 2)
		if len(c.Points) != len(rates) {
			b.Fatalf("curve has %d points", len(c.Points))
		}
		return c
	}
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			prev := tugal.SetDefaultPool(tugal.NewPool(workers))
			defer tugal.SetDefaultPool(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepOnce(b)
			}
		}
	}
	b.Run("sequential", run(1))
	b.Run("pool", run(0))
}

// TestParallelSweepBenchmarkAgrees pins what BenchmarkParallelSweep
// assumes: the two pool sizes produce the same curve.
func TestParallelSweepBenchmarkAgrees(t *testing.T) {
	tp := tugal.MustTopology(2, 4, 2, 9)
	cfg := tugal.DefaultSimConfig()
	pat := tugal.Shift(tp, 1, 0)
	rates := []float64{0.05, 0.15}
	w := tugal.SweepWindows{Warmup: 800, Measure: 600, Drain: 1200}
	curve := func(workers int) tugal.SweepCurve {
		prev := tugal.SetDefaultPool(tugal.NewPool(workers))
		defer tugal.SetDefaultPool(prev)
		return tugal.LatencyCurve(tp, cfg, tugal.NewUGALL(tp, tugal.FullVLB(tp)),
			pat, rates, w, 2)
	}
	seq, par := curve(1), curve(0)
	for i := range rates {
		if seq.Points[i] != par.Points[i] {
			t.Fatalf("point %d differs:\nseq %+v\npar %+v", i, seq.Points[i], par.Points[i])
		}
	}
}

// BenchmarkSampleVLB measures one candidate-path draw on the paper's
// dfly(4,8,4,9), interpreted policy versus its compiled PathStore
// form, for conventional UGAL's Full set and the restricted strategic
// T-VLB set. The interpreted restricted sampler rejection-samples
// (draw a full VLB path, test membership, retry); the compiled form
// indexes the pair's PathID range directly — 0 allocs/op and the
// speedup EXPERIMENTS.md records.
func BenchmarkSampleVLB(b *testing.B) {
	t := tugal.MustTopology(4, 8, 4, 9)
	// Fixed inter-group switch pairs (a=8 switches per group).
	pairs := [][2]int{{0, 20}, {3, 50}, {9, 65}, {14, 40}}
	draw := func(pol tugal.PathPolicy) func(b *testing.B) {
		return func(b *testing.B) {
			r := tugal.NewRNG(1)
			buf := tugal.Path{
				Sw:    make([]int32, 0, 8),
				Ports: make([]int8, 0, 8),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if !pol.SampleVLBInto(r, p[0], p[1], &buf) {
					b.Fatal("pair has no candidate path")
				}
			}
		}
	}
	for _, tc := range []struct {
		name string
		pol  tugal.PathPolicy
	}{
		{"full", tugal.FullVLB(t)},
		{"strategic", tugal.StrategicVLB(t, 2)},
	} {
		st, ok := tugal.CompileVLB(t, tc.pol)
		if !ok {
			b.Fatalf("%s: policy did not fit the compile budget", tc.name)
		}
		b.Run(tc.name+"/interpreted", draw(tc.pol))
		b.Run(tc.name+"/compiled", draw(st))
	}
}

// BenchmarkTVLBQuick runs the full Algorithm-1 pipeline at its
// smallest usable configuration on a small topology.
func BenchmarkTVLBQuick(b *testing.B) {
	if testing.Short() {
		b.Skip("multi-second pipeline; skipped in -short")
	}
	t := tugal.MustTopology(2, 4, 2, 9)
	opt := tugal.QuickTVLBOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tugal.ComputeTVLB(t, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("final: %s (baseline %.3f)", res.FinalName(), res.BaselineThroughput)
		}
	}
}

// Example of using the benchmark harness output: the table/figure
// ids accepted by RunFigure.
func ExampleAllFigures() {
	fmt.Println(len(tugal.AllFigures()))
	// Output: 18
}
