package paths_test

import (
	"testing"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// TestFallbacksCounted: the fallback counter (ROADMAP item 6) rises by
// exactly the draws returned outside their set, on a <=3-hop set and on
// an Explicit that removes all but one path of the pair, and a store's
// draws never move it.
func TestFallbacksCounted(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	s, d := 0, 40
	ex := paths.NewExplicit(paths.Full{T: tp})
	for _, p := range paths.EnumerateVLB(tp, s, d)[1:] {
		ex.Remove(p)
	}
	capped := paths.LengthCapped{T: tp, MaxHops: 3}
	for _, pol := range []paths.Policy{capped, ex, paths.Compile(tp, capped)} {
		r := rng.New(3)
		var p paths.Path
		before, outside := paths.Fallbacks(), int64(0)
		for range 200 {
			if !pol.SampleVLBInto(r, s, d, &p) {
				t.Fatalf("%s: no draw", pol.Name())
			}
			if !pol.Contains(s, d, p) {
				outside++
			}
		}
		if got := paths.Fallbacks() - before; got != outside {
			t.Fatalf("%s: %d fallbacks counted, %d draws outside the set", pol.Name(), got, outside)
		}
		if _, ok := pol.(*paths.Store); outside == 0 && !ok {
			t.Fatalf("%s: no draw fell back", pol.Name())
		}
	}
}
