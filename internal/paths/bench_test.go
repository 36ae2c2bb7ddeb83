package paths

import (
	"testing"

	"tugal/internal/topo"
)

var benchStore *Store

// BenchmarkCompileStore times the full-VLB store compile on the
// paper's g9 machine (~4.1M paths). allocs/op is the number the
// count -> fill build is held to: a few per source switch, not a few
// per path.
func BenchmarkCompileStore(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	pol := Full{T: tp}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStore = Compile(tp, pol)
	}
	b.ReportMetric(float64(benchStore.NumPaths()), "paths")
}

// BenchmarkBuildEdgeIndex times the lazy cost of a service's first
// failure: the channel -> pair index over the full-VLB store of the
// paper's g9 machine, two lockstep walks of every stored path (count,
// then fill).
func BenchmarkBuildEdgeIndex(b *testing.B) {
	tp := topo.MustNew(4, 8, 4, 9)
	st := Compile(tp, Full{T: tp})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.idx = nil
		st.BuildEdgeIndex()
	}
	b.ReportMetric(float64(len(st.idx.pairs)), "incidences")
}
