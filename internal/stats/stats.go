// Package stats provides the small statistical toolkit used by the
// simulator and the experiment harness: streaming means, standard
// error of the mean (the paper's error bars), and latency histograms.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of
// xs, or 0 when fewer than two samples are present.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// StdErr returns the standard error of the mean, the quantity the
// paper reports as error bars on modeled throughput (Figures 4-5).
func StdErr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(n))
}

// MeanErr returns mean and standard error together.
func MeanErr(xs []float64) (mean, stderr float64) {
	return Mean(xs), StdErr(xs)
}

// Welford accumulates a running mean without storing samples. The
// zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
}

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// Histogram is a fixed-width-bucket latency histogram with an
// overflow bucket. Used for packet latency distributions.
type Histogram struct {
	Width    float64
	Buckets  []int64
	Overflow int64
	n        int64
}

// NewHistogram creates a histogram with nbuckets buckets of the given
// width; samples >= nbuckets*width land in the overflow bucket.
func NewHistogram(width float64, nbuckets int) *Histogram {
	if width <= 0 || nbuckets <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Width: width, Buckets: make([]int64, nbuckets)}
}

// Reset clears all buckets and the count.
func (h *Histogram) Reset() {
	for i := range h.Buckets {
		h.Buckets[i] = 0
	}
	h.Overflow = 0
	h.n = 0
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.n++
	if x < 0 {
		x = 0
	}
	b := int(x / h.Width)
	if b >= len(h.Buckets) {
		h.Overflow++
		return
	}
	h.Buckets[b]++
}

// Quantile approximates the q-quantile from the buckets, attributing
// each bucket's mass to its midpoint.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.n
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			return (float64(i) + 0.5) * h.Width
		}
	}
	return float64(len(h.Buckets)) * h.Width
}
