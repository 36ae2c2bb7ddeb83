package paths

import (
	"fmt"
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

var benchStore *Store

// BenchmarkCompileStore times the full-VLB store compile on the
// paper's g9 machine (~4.1M paths) and on dfly(4,8,4,17), the topology
// cmd/routed serves (~8.4M paths). allocs/op is the number the
// count -> fill build is held to: a few per source switch, not a few
// per path.
func BenchmarkCompileStore(b *testing.B) {
	for _, g := range []int{9, 17} {
		tp := topo.MustNew(4, 8, 4, g)
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			pol := Full{T: tp}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchStore = Compile(tp, pol)
			}
			b.ReportMetric(float64(benchStore.NumPaths()), "paths")
		})
	}
}

// BenchmarkCompileDegraded times the filter of dfly(4,8,4,17)'s full
// store under a mask (degradedStore): one global link, a local link and
// a switch (benchStores' masked store in internal/route), and eight
// random failures.
func BenchmarkCompileDegraded(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 17)
	st := Compile(tp, Full{T: tp})
	link := topo.NewFailureMask(tp)
	link.FailGlobalLink(tp.A/2, tp.H-1)
	few := topo.NewFailureMask(tp)
	few.FailLocalLink(tp.SwitchID(1, 0), tp.SwitchID(1, 1))
	few.FailSwitch(tp.SwitchID(tp.G-1, 0))
	for _, c := range []struct {
		name string
		mask *topo.FailureMask
	}{{"link", link}, {"local+switch", few}, {"random8", randomMask(tp, rng.New(8), 8)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchStore = CompileDegraded(tp, st, c.mask)
			}
			b.ReportMetric(float64(benchStore.NumPaths()), "paths")
		})
	}
}
