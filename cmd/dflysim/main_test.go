package main

import (
	"bytes"
	"strings"
	"testing"
)

func dflysim(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestBadFlags: every bad value is a usage error — status 2, a first
// line naming the flag, nothing on stdout — before anything runs; none
// is a panic or a run on a value the flag did not mean.
func TestBadFlags(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-rate", "1.5"}, {"-rate", "NaN"}, {"-rate", "0"}, {"-rate", "-0.2"},
		{"-buffer", "0"}, {"-buffer", "-3"}, {"-buffer", "129"},
		{"-speedup", "0"}, {"-speedup", "-1"},
		{"-warmup", "-5"}, {"-measure", "0"}, {"-measure", "-1"}, {"-drain", "-1"},
		{"-vcs", "40"}, {"-vcs", "-1"},
		{"-local-latency", "2000000000"}, {"-global-latency", "-1"},
		{"-seeds", "0"}, {"-seeds", "-2"}, {"-shards", "-1"}, {"-points", "-1"},
		{"-topo", "d3(1)"}, {"-topo", "4,8,4"}, {"-topo", "dfly(1,64,64,2)"},
		{"-routing", "ospf"}, {"-policy", "capped"}, {"-pattern", "warp"}, {"-fail", "link:1:2"},
	} {
		status, stdout, stderr := dflysim("-topo", "dfly(2,4,2,5)", c.flag, c.value)
		first, _, _ := strings.Cut(stderr, "\n")
		if status != 2 || !strings.HasPrefix(first, "dflysim: "+c.flag+" ") && !strings.HasPrefix(first, "dflysim: "+c.flag+":") || stdout != "" {
			t.Errorf("%s %s: status %d, stdout %q, stderr %q", c.flag, c.value, status, stdout, first)
		}
	}
	for _, gone := range [][]string{{"-g", "9"}, {"-packet", "4"}} {
		if status, _, _ := dflysim(gone...); status != 2 {
			t.Errorf("%v: status %d; the flag is gone", gone, status)
		}
	}
}

// TestRuns drives the three output shapes on a small topology: one
// point, a sweep, and a degraded direct run with channel statistics;
// and a sharded run prints what the one-shard run prints.
func TestRuns(t *testing.T) {
	small := []string{"-topo", "dfly(2,4,2,5)", "-warmup", "300", "-measure", "300", "-drain", "600", "-rate", "0.2", "-pattern", "shift:1:0"}
	with := func(extra ...string) string {
		status, stdout, stderr := dflysim(append(small[:len(small):len(small)], extra...)...)
		if status != 0 {
			t.Fatalf("%v: status %d: %s", extra, status, stderr)
		}
		return stdout
	}
	point := with("-routing", "t-ugal-l")
	for _, want := range []string{"dfly(2,4,2,5)", "routing=T-UGAL-L", "vcs=4 buf=32 lat=10/15 speedup=2\n", "throughput:", "saturated:  false"} {
		if !strings.Contains(point, want) {
			t.Errorf("one point: no %q in\n%s", want, point)
		}
	}
	if sharded := with("-routing", "t-ugal-l", "-shards", "4"); sharded != point {
		t.Errorf("-shards 4 printed\n%s\none shard printed\n%s", sharded, point)
	}
	if curve := with("-routing", "par", "-sweep", "-points", "3"); !strings.Contains(curve, "vcs=5") || !strings.Contains(curve, "saturation throughput:") || strings.Count(curve, "\n") != 6 {
		t.Errorf("sweep:\n%s", curve)
	}
	degraded := with("-fail", "global:4:1,switch:9", "-chanstats")
	for _, want := range []string{"degraded: fail(", "refused:", "global channels:"} {
		if !strings.Contains(degraded, want) {
			t.Errorf("degraded run: no %q in\n%s", want, degraded)
		}
	}
}

// TestChanStatsRefusesSeeds: channel statistics come from one direct
// run of -seed at -rate, so -seeds above 1 or -sweep beside -chanstats
// is a usage error naming both flags, not seeds or rates silently
// dropped.
func TestChanStatsRefusesSeeds(t *testing.T) {
	for _, other := range [][]string{{"-seeds", "2"}, {"-sweep"}} {
		args := append([]string{"-topo", "dfly(2,4,2,5)", "-chanstats"}, other...)
		status, stdout, stderr := dflysim(args...)
		first, _, _ := strings.Cut(stderr, "\n")
		if status != 2 || !strings.HasPrefix(first, "dflysim: -chanstats ") || !strings.Contains(first, other[0]) || stdout != "" {
			t.Errorf("-chanstats %s: status %d, stdout %q, stderr %q", strings.Join(other, " "), status, stdout, first)
		}
	}
}
