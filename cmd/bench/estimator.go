package main

import (
	"sort"
	"time"
)

// passTiming is what one pass measured: its set-up, the time spent
// inside the system under test in each work segment of each round, and
// the peak resident set of the process that did the work.
type passTiming struct {
	setup  time.Duration
	rounds [][]time.Duration // [round][segment]
	rssMB  float64
}

// work is the pass's first round, the only one every workload has.
func (p passTiming) work() time.Duration {
	var sum time.Duration
	for _, d := range p.rounds[0] {
		sum += d
	}
	return sum
}

// estimate is the pass-min estimator. Passes and rounds are
// bit-deterministic, so segment s of every round of every pass does
// the same work, and the fastest observation of it is the one least
// disturbed by the host:
//
//	setup_s     = min over passes of the pass's set-up
//	work_s      = Σ over segments of (min over passes and rounds of that segment)
//	peak_rss_mb = min over passes of the pass's peak resident set
//
// A pass's peak is its live data plus whatever garbage the collector
// had not yet reclaimed at the worst moment, and only the second part
// varies, so the smallest peak is the one least inflated by it.
// spread is the slowest round's work over the fastest round's, the
// noise the estimator removed.
func estimate(passes []passTiming) (setupS, workS, rssMB, spread float64) {
	setup, rssMB := passes[0].setup, passes[0].rssMB
	best := append([]time.Duration(nil), passes[0].rounds[0]...)
	var fastest, slowest time.Duration
	for _, p := range passes {
		setup, rssMB = min(setup, p.setup), min(rssMB, p.rssMB)
		for _, round := range p.rounds {
			var sum time.Duration
			for s, d := range round {
				best[s] = min(best[s], d)
				sum += d
			}
			if fastest == 0 || sum < fastest {
				fastest = sum
			}
			slowest = max(slowest, sum)
		}
	}
	var work time.Duration
	for _, d := range best {
		work += d
	}
	return setup.Seconds(), work.Seconds(), rssMB, float64(slowest) / float64(fastest)
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which
// is what the acceptance check of this benchmark uses. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of xs; the mean of the middle two for an even count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0..1) of durations by nearest
// rank on a sorted copy.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[min(int(p*float64(len(s))), len(s)-1)]
}
