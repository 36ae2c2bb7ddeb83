package sweep

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tugal/internal/exec"
)

// eagerSearch is the saturation search as it was before it went lazy,
// kept as the oracle: all four bracket probes run, the scan then reads
// them in ascending order up to the first saturated one, and the
// bracket is bisected. consumed lists the rates whose answer decided
// anything, in the order they were read.
func eagerSearch(resolution float64, saturated func(rate float64) bool) (lo float64, consumed []float64) {
	sat := make([]bool, len(saturationProbes))
	for i, rate := range saturationProbes {
		sat[i] = saturated(rate)
	}
	lo, hi := 0.0, saturationProbes[len(saturationProbes)-1]
	bracketed := false
	for i, s := range sat {
		consumed = append(consumed, saturationProbes[i])
		if s {
			hi = saturationProbes[i]
			bracketed = true
			break
		}
		lo = saturationProbes[i]
	}
	if !bracketed {
		return hi, consumed
	}
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		consumed = append(consumed, mid)
		if saturated(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, consumed
}

// searchInstance is a made-up network: grid gives the answer at each
// of the four bracket rates, and any other rate (the bisection's)
// saturates above thr.
type searchInstance struct {
	name string
	grid [4]bool
	thr  float64
}

func (in searchInstance) saturated(rate float64) bool {
	if i := gridIndex(rate); i >= 0 {
		return in.grid[i]
	}
	return rate > in.thr
}

// gridIndex is rate's place in saturationProbes, -1 for a bisection
// rate.
func gridIndex(rate float64) int {
	for i, r := range saturationProbes {
		if r == rate {
			return i
		}
	}
	return -1
}

// TestSaturationLazyMatchesEager: on monotone and non-monotone
// instances, at pools of 1, 2 and 8 workers, the lazy search returns
// the eager oracle's rate having read exactly the oracle's answers,
// none of them from a probe it had cancelled.
//
// The fake probe comes in two tempers. A patient one, asked about a
// rate above a saturated grid rate, waits to be cancelled — on a wide
// pool that is the abort path, deterministically. An eager one answers
// at once, so on a wide pool speculation may finish before the
// cancellation lands: an answer that exists and must not be read.
func TestSaturationLazyMatchesEager(t *testing.T) {
	const F, T = false, true
	instances := []searchInstance{
		{"monotone", [4]bool{F, F, T, T}, 0.6},
		{"non-monotone", [4]bool{F, T, F, T}, 0.3},
		{"all-false", [4]bool{F, F, F, F}, 2},
		{"all-true", [4]bool{T, T, T, T}, 0.1},
		{"first-true", [4]bool{T, F, F, F}, 0.2},
	}
	const resolution = 0.05
	for _, in := range instances {
		wantLo, wantRead := eagerSearch(resolution, in.saturated)
		firstSat := len(saturationProbes)
		for i := len(in.grid) - 1; i >= 0; i-- {
			if in.grid[i] {
				firstSat = i
			}
		}
		for _, workers := range []int{1, 2, 8} {
			for _, patient := range []bool{true, false} {
				name := fmt.Sprintf("%s/workers=%d/patient=%v", in.name, workers, patient)
				var mu sync.Mutex
				var called []float64
				answered := map[float64]bool{}
				probe := func(ctx context.Context, rate float64) (sat, ok bool) {
					mu.Lock()
					called = append(called, rate)
					mu.Unlock()
					if patient && gridIndex(rate) > firstSat {
						<-ctx.Done()
					}
					if ctx.Err() != nil {
						return false, false
					}
					mu.Lock()
					answered[rate] = true
					mu.Unlock()
					return in.saturated(rate), true
				}
				lo, tl := search(exec.NewPool(workers), resolution, probe)
				if math.Float64bits(lo) != math.Float64bits(wantLo) {
					t.Errorf("%s: lo = %v, eager oracle %v", name, lo, wantLo)
				}
				if !reflect.DeepEqual(tl.read, wantRead) {
					t.Errorf("%s: read %v, eager oracle consumed %v", name, tl.read, wantRead)
				}
				for _, rate := range tl.read {
					if !answered[rate] {
						t.Errorf("%s: read the probe at %v, which never answered", name, rate)
					}
				}
				mids := len(wantRead) - min(firstSat+1, len(saturationProbes))
				if got := tl.completed + tl.aborted + tl.skipped; got != len(saturationProbes)+mids {
					t.Errorf("%s: tally %+v accounts for %d probes, want %d", name, tl, got, len(saturationProbes)+mids)
				}
				if tl.completed != len(answered) || tl.completed+tl.aborted != len(called) {
					t.Errorf("%s: tally %+v, but %d probes were called and %d answered", name, tl, len(called), len(answered))
				}
				// One worker runs the grid in order, and a patient probe
				// never answers above a saturated rate: in both cases the
				// search may start only what it goes on to read.
				if workers == 1 || patient {
					if tl.completed != len(wantRead) {
						t.Errorf("%s: %d probes completed, want the %d read", name, tl.completed, len(wantRead))
					}
				}
				if workers == 1 {
					sort.Float64s(called)
					want := append([]float64(nil), wantRead...)
					sort.Float64s(want)
					if !reflect.DeepEqual(called, want) || tl.aborted != 0 {
						t.Errorf("%s: called %v (tally %+v), want exactly the consumed %v", name, called, tl, want)
					}
				}
			}
		}
	}
}
