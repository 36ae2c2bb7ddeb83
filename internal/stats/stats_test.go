package stats

import (
	"math"
	"testing"
	"testing/quick"

	"tugal/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Fatalf("mean %v", m)
	}
	// Sample stddev with n-1: variance = 32/7.
	if s := StdDev(xs); !approx(s, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("stddev %v", s)
	}
	if se := StdErr(xs); !approx(se, math.Sqrt(32.0/7)/math.Sqrt(8), 1e-12) {
		t.Fatalf("stderr %v", se)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdErr(nil) != 0 {
		t.Fatal("empty stats not zero")
	}
	if StdDev([]float64{5}) != 0 || StdErr([]float64{5}) != 0 {
		t.Fatal("single-sample spread not zero")
	}
}

// TestWelfordMatchesBatch: the streaming mean equals the batch one.
func TestWelfordMatchesBatch(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := 2 + int(nRaw)%100
		r := rng.New(uint64(seed))
		var w Welford
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := r.Float64()*100 - 50
			xs = append(xs, x)
			w.Add(x)
		}
		return approx(w.Mean(), Mean(xs), 1e-9) && w.n == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	for _, x := range []float64{3, -1, 7, 2} {
		w.Add(x)
	}
	w.Reset()
	if w.n != 0 || w.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5) // buckets [0,10) ... [40,50), overflow beyond
	for _, x := range []float64{1, 5, 15, 25, 35, 45, 99, 1000} {
		h.Add(x)
	}
	if h.n != 8 {
		t.Fatalf("n %d", h.n)
	}
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Overflow != 2 {
		t.Fatalf("buckets %v overflow %d", h.Buckets, h.Overflow)
	}
	if q := h.Quantile(0.5); q < 10 || q > 30 {
		t.Fatalf("p50 %v", q)
	}
	h.Reset()
	if h.n != 0 || h.Overflow != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("reset left n %d overflow %d", h.n, h.Overflow)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 5)
}
