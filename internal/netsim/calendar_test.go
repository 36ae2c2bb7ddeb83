package netsim

import (
	"fmt"
	"testing"

	"tugal/internal/rng"
)

// TestGenCalendarOracle drives the generation calendar the way inject
// does — pop every cycle, then re-add each popped node at a later
// cycle — against a brute-force table of due times, over several
// wheel turns. The gaps cross the wheel's length, land on its edges
// and sometimes never come due, so nodes go through the parked list
// and the wheel-turn sweep; every pop must return exactly the nodes
// due that cycle, in ascending order, and at must match the table.
func TestGenCalendarOracle(t *testing.T) {
	const wheel = 1 << genWheelBits
	edges := []int64{1, wheel - 1, wheel, wheel + 1, 2*wheel - 1, 2 * wheel, 2*wheel + 1}
	for _, tc := range []struct {
		nodes  int
		maxGap int64
	}{
		{1, 3 * wheel},
		{70, 40},     // every gap inside the wheel
		{200, wheel}, // gaps up to the wheel's length
		{130, 5 * wheel},
		{513, 2 * wheel}, // nodes past one bitmap word's multiple
	} {
		t.Run(fmt.Sprintf("nodes=%d/gap=%d", tc.nodes, tc.maxGap), func(t *testing.T) {
			r := rng.New(uint64(tc.nodes)*31 + uint64(tc.maxGap))
			gap := func() int64 {
				switch r.Intn(16) {
				case 0:
					return edges[r.Intn(len(edges))]
				case 1:
					if r.Intn(8) == 0 {
						return neverGen // gone for good, as at rate 0
					}
				}
				return 1 + int64(r.Intn(int(tc.maxGap)))
			}
			at := func(now, g int64) int64 {
				if g == neverGen {
					return neverGen
				}
				return now + g
			}
			var c genCalendar
			c.init(tc.nodes)
			want := make([]int64, tc.nodes) // the oracle: each node's due cycle
			for v := range tc.nodes {
				want[v] = at(0, gap())
				c.add(want[v], int32(v))
			}
			var popped int
			for now := int64(0); now < 6*wheel+int64(tc.nodes)%wheel; now++ {
				got := c.pop(now)
				var exp []int32
				for v, d := range want {
					if d == now {
						exp = append(exp, int32(v))
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Fatalf("cycle %d: pop = %v, due %v", now, got, exp)
				}
				popped += len(got)
				for _, v := range got {
					want[v] = at(now, gap())
					c.add(want[v], v)
				}
				for v, d := range want {
					if c.at[v] != d {
						t.Fatalf("cycle %d: at[%d] = %d, due %d", now, v, c.at[v], d)
					}
				}
			}
			if popped < tc.nodes {
				t.Fatalf("only %d pops over %d nodes: the gaps never brought most of them due", popped, tc.nodes)
			}
		})
	}
}
