package route

import (
	"slices"

	"tugal/internal/topo"
)

// Test access to what the tables hold, for this package's tests and
// the external route_test ones.

// Row returns the pair's MIN candidate words, a read-only view of the
// arena, and its VLB candidate words, built into a new slice from the
// store's pair read (paths.Store.PairPorts).
func (tb *Tables) Row(s, d int) (min, vlb []uint64) {
	r := &tb.rows[s*tb.n+d]
	vlb = make([]uint64, 0, r.vlbN)
	tb.eachVLB(r, s, d, func(ports uint64) { vlb = append(vlb, tb.stamps.Word(tb.T, ports)) })
	return tb.minWords(r), vlb
}

// EqualRows reports whether two tables serve identical candidate
// rows for every pair — the equivalence ApplyDelta promises against
// a from-scratch Emit on the degraded store.
func (tb *Tables) EqualRows(o *Tables) bool {
	if tb.n != o.n {
		return false
	}
	for s := 0; s < tb.n; s++ {
		for d := 0; d < tb.n; d++ {
			am, av := tb.Row(s, d)
			bm, bv := o.Row(s, d)
			if !slices.Equal(am, bm) || !slices.Equal(av, bv) {
				return false
			}
		}
	}
	return true
}

// MaskOf returns the failure mask tb serves under (nil: pristine).
func MaskOf(tb *Tables) *topo.FailureMask { return tb.mask }
