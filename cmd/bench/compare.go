package main

import (
	"fmt"
	"os"
)

// side is one metric of one workload as one side of a comparison
// measured it, one value per run.
type side struct {
	values     []float64
	q1, q2, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values, q2: values[0], q1: values[0], q3: values[0]}
	if len(values) > 1 {
		s.q1, s.q2, s.q3 = quartiles(values)
		s.q2 = median(values)
	}
	return s
}

// spread is the distance between the quartiles as a share of the
// median, the run-to-run noise of this side.
func (s side) spread() float64 { return (s.q3 - s.q1) / s.q2 }

// verdict applies the rule of the choosing-metrics guide (§8, §6.5)
// to a metric where lower is better when lowerBetter, else higher:
//
//	improved   the change wins at least nine tenths of the pairs (ties
//	           count for neither side) and the medians differ by more
//	           than the parent's own quartile distance;
//	regressed  the change's median is worse than the parent's by more
//	           than the bound;
//	unresolved either side's spread is wider than the bound, so the
//	           runs cannot show "no worse than the bound" — unless
//	           every run of the change beats every run of the parent;
//	unchanged  otherwise.
func verdict(a, b side, lowerBetter bool, bound float64) (v string, winShare float64) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	wins, pairs := 0, min(len(a.values), len(b.values))
	for i := 0; i < pairs; i++ {
		if better(b.values[i], a.values[i]) {
			wins++
		}
	}
	winShare = float64(wins) / float64(pairs)
	gap := b.q2 - a.q2
	if !lowerBetter {
		gap = -gap
	}
	allBetter := true
	for _, x := range b.values {
		for _, y := range a.values {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case pairs >= 2 && winShare >= 0.9 && -gap > a.q3-a.q1:
		return "improved", winShare
	case gap > bound*a.q2:
		return "regressed", winShare
	case allBetter:
		return "unchanged", winShare
	case pairs < 2 || a.spread() > bound || b.spread() > bound:
		return "unresolved", winShare
	}
	return "unchanged", winShare
}

// collect gathers one side's values: workload → metric → one value
// per run, in run order.
func collect(sets []runFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, rf := range sets {
		for _, o := range rf.Results {
			if out[o.Workload] == nil {
				out[o.Workload] = map[string][]float64{}
			}
			for name, v := range o.Metrics {
				out[o.Workload][name] = append(out[o.Workload][name], v)
			}
		}
	}
	return out
}

// compareSets prints, per workload and metric, each side's median and
// quartiles, the win share and the verdict, every ratio with its
// base. It returns the number of regressed and of unresolved rows
// among the end-to-end metrics.
func compareSets(parent, change []runFile) (regressed, unresolved int) {
	a, b := collect(parent), collect(change)
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	fmt.Printf("%-14s %-28s %-34s %-34s %9s %5s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "change/parent", "wins", "verdict")
	for _, w := range workloads {
		for _, d := range defs {
			av, bv := a[w.name][d.name], b[w.name][d.name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			sa, sb := newSide(av), newSide(bv)
			row := fmt.Sprintf("%-14s %-28s %-34s %-34s", w.name, d.name,
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", sa.q2, sa.q1, sa.q3, d.unit),
				fmt.Sprintf("%.6g [%.6g, %.6g] %s", sb.q2, sb.q1, sb.q3, d.unit))
			if sa.q2 != 0 {
				row += fmt.Sprintf(" %9.4f", sb.q2/sa.q2)
			} else {
				row += fmt.Sprintf(" %9s", "-")
			}
			if d.bound > 0 {
				v, share := verdict(sa, sb, d.better == "lower", d.bound)
				row += fmt.Sprintf(" %4.0f%%  %s (bound %.0f%%, spread %.1f%% / %.1f%%)",
					100*share, v, 100*d.bound, 100*sa.spread(), 100*sb.spread())
				switch v {
				case "regressed":
					regressed++
				case "unresolved":
					unresolved++
				}
			}
			fmt.Println(row)
		}
	}
	fmt.Printf("ratios are change median / parent median; the parent column is their base. %d + %d runs.\n", len(parent), len(change))
	return regressed, unresolved
}

// compareMain implements -compare.
func compareMain(files []string) int {
	if len(files) < 2 || len(files)%2 != 0 {
		fmt.Fprintln(os.Stderr, "bench -compare: need an even number of result files: the parent's, then as many of the change's")
		return 2
	}
	var sets []runFile
	for _, f := range files {
		rf, err := readRunFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench -compare: %v\n", err)
			return 2
		}
		first := sets
		if len(first) > 0 && (rf.Host != first[0].Host || rf.Seconds != first[0].Seconds || rf.Quick != first[0].Quick || rf.Traced != first[0].Traced) {
			fmt.Fprintf(os.Stderr, "bench -compare: %s was measured on another host or at other sizes than %s; their times are not comparable:\n  %+v seconds=%d quick=%v traced=%v\n  %+v seconds=%d quick=%v traced=%v\n",
				f, files[0], rf.Host, rf.Seconds, rf.Quick, rf.Traced, first[0].Host, first[0].Seconds, first[0].Quick, first[0].Traced)
			return 2
		}
		sets = append(sets, rf)
	}
	half := len(sets) / 2
	// Run i of the parent is paired with run i of the change for the
	// win share, so the two must have measured the same inputs.
	for i := 0; i < half; i++ {
		if sets[i].Seed != sets[half+i].Seed {
			fmt.Fprintf(os.Stderr, "bench -compare: %s ran seed %d and %s, its pair, seed %d; pair runs of the same seed\n",
				files[i], sets[i].Seed, files[half+i], sets[half+i].Seed)
			return 2
		}
	}
	regressed, unresolved := compareSets(sets[:half], sets[half:])
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// selfcheckMain implements -selfcheck: n+n alternating sets of this
// same binary, all on one seed, so that the spread it prints is the
// host's noise and nothing else. It is the acceptance check of the
// benchmark itself: every run must pass its checks, and for every
// workload and end-to-end metric the two sides' medians must agree
// within the bound, in both directions.
func selfcheckMain(n int, c config, only string) int {
	names := workloadNames()
	if only != "" {
		if _, ok := findWorkload(only); !ok {
			fatal("unknown workload %q", only)
		}
		names = []string{only}
	}
	host := hostFingerprint()
	fmt.Printf("selfcheck: %d+%d sets, seed %d, seconds=%d quick=%v host=%+v\n", n, n, c.seed, c.seconds, c.quick, host)
	sides := [2][]runFile{}
	bad := 0
	for i := 0; i < n; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			rf := runFile{Host: host, Seed: c.seed, Seconds: c.seconds, Quick: c.quick, Results: runAll(c, false, names)}
			for _, o := range rf.Results {
				fmt.Printf("set %c%-2d %-14s setup_s=%-12.6g work_s=%-10.6g peak_rss_mb=%-10.6g ops=%d failed=%d digest=%s\n",
					'A'+rune(s), i, o.Workload, o.Metrics["setup_s"], o.Metrics["work_s"], o.Metrics["peak_rss_mb"], o.Ops, o.OpsFailed, o.Digest)
				if !o.Correct {
					fmt.Printf("  FAILED CHECKS: %v\n", o.Problems)
					bad++
				}
			}
			sides[s] = append(sides[s], rf)
		}
	}
	regressed, _ := compareSets(sides[0], sides[1])
	bad += regressed
	// "Agree" is symmetric, so the reverse direction too. A spread
	// wider than the bound is reported but does not fail the check: at
	// N = 5 the quartiles are nearly the extremes.
	a, b := collect(sides[0]), collect(sides[1])
	for _, w := range names {
		for _, d := range endToEnd {
			if len(a[w][d.name]) == 0 || len(b[w][d.name]) == 0 {
				continue // the run failed, and was counted above
			}
			sa, sb := newSide(a[w][d.name]), newSide(b[w][d.name])
			if sa.q2 > sb.q2*(1+d.bound) {
				fmt.Printf("DISAGREE %s %s: set A median %.6g is more than %.0f%% above set B's %.6g\n", w, d.name, sa.q2, 100*d.bound, sb.q2)
				bad++
			}
			if n > 1 && (sa.spread() > d.bound || sb.spread() > d.bound) {
				fmt.Printf("note: %s %s: spread %.1f%% / %.1f%% is wider than the %.0f%% bound; with so few runs a regression of that size would not resolve\n",
					w, d.name, 100*sa.spread(), 100*sb.spread(), 100*d.bound)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck FAILED: %d problems\n", bad)
		return 1
	}
	fmt.Println("selfcheck passed: every end-to-end median agrees within its bound")
	return 0
}
