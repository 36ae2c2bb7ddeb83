package paths

import (
	"fmt"
	"testing"

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
