// Command dflysim runs one cycle-level simulation: a topology, a
// routing scheme (conventional or T-), a traffic pattern and an
// offered load, reporting latency and accepted throughput. Its flags
// are the fields of a one-entry spec.Experiment, resolved and run as
// cmd/experiment would run it; -fail and -chanstats are laid on the
// resolved entry.
//
// Usage examples:
//
//	dflysim -routing ugal-l -pattern shift:2:0 -rate 0.2
//	dflysim -routing t-par -policy strategic:2 -pattern perm -rate 0.4
//	dflysim -topo 'dfly(4,8,4,17)' -routing ugal-l -pattern mixed:25 -rate 0.25 -sweep
//	dflysim -topo 'd3(12,4,2)' -routing ugal-pb -pattern ring@group-rr -rate 0.3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/prof"
	"tugal/internal/routing"
	"tugal/internal/spec"
	"tugal/internal/sweep"
)

// flagOf names the flag behind each spec.Experiment field whose flag
// is not spelled like the field.
var flagOf = map[string]string{
	"topology": "topo", "rates": "rate", "packetSize": "packet",
	"localLatency": "local-latency", "globalLatency": "global-latency",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit status returned, so deferred profile
// writers run (os.Exit skips defers) and tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dflysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// failUsage reports a bad flag value with the conventional usage
	// status.
	failUsage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dflysim: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	def, win := netsim.DefaultConfig(), sweep.PaperWindows()
	e := spec.Experiment{Name: "dflysim"}
	fs.StringVar(&e.Topology, "topo", "dfly(4,8,4,9)", spec.TopologyUsage)
	rtName := fs.String("routing", "ugal-l", "min|vlb|ugal-l|ugal-g|ugal-pb|par|t-ugal-l|t-ugal-g|t-ugal-pb|t-par")
	fs.StringVar(&e.Policy, "policy", "strategic:2", "T-VLB policy for t-* schemes (full|strategic[:leg]|capped:<hops>[:frac])")
	fs.StringVar(&e.Pattern, "pattern", "ur", "traffic pattern (see internal/spec)")
	rate := fs.Float64("rate", 0.1, "offered load, packets/cycle/node")
	fs.Uint64Var(&e.Seed, "seed", def.Seed, "seed")
	fs.IntVar(&e.Seeds, "seeds", 1, "seeds to average")
	fs.Int64Var(&e.Warmup, "warmup", win.Warmup, "warmup cycles")
	fs.Int64Var(&e.Measure, "measure", win.Measure, "measurement cycles")
	fs.Int64Var(&e.Drain, "drain", win.Drain, "drain cap, cycles")
	fs.IntVar(&e.VCs, "vcs", 0, "virtual channels (0 = per-scheme default)")
	fs.IntVar(&e.Buffer, "buffer", def.BufSize, "VC buffer depth")
	fs.IntVar(&e.LocalLatency, "local-latency", def.LocalLatency, "local channel latency")
	fs.IntVar(&e.GlobalLatency, "global-latency", def.GlobalLatency, "global channel latency")
	fs.IntVar(&e.Speedup, "speedup", def.SpeedUp, "router internal speedup")
	fs.IntVar(&e.PacketSize, "packet", 1, "flits per packet (>1 enables wormhole)")
	fs.IntVar(&e.Shards, "shards", 0, "simulator shards (0/1 = sequential; bit-identical results)")
	failSpec := fs.String("fail", "", "failure mask: comma-separated global:<sw>:<gp>, local:<u>:<v>, switch:<sw>")
	doSweep := fs.Bool("sweep", false, "sweep loads up to -rate and report the curve")
	points := fs.Int("points", 8, "sweep points")
	chanStats := fs.Bool("chanstats", false, "collect and print per-channel utilization")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every flag is validated before anything runs, so a typo is a
	// usage error naming the flag and not a panic deep inside a run. An
	// experiment reads a zero size, window or count as "the default",
	// so a flag whose default is not zero does not take zero; every
	// other bound is the experiment's own check.
	zero := ""
	fs.Visit(func(f *flag.Flag) {
		if f.Value.String() == "0" && f.DefValue != "0" {
			zero = f.Name
		}
	})
	if zero != "" {
		return failUsage("-%s must not be 0", zero)
	}
	if *points < 1 {
		return failUsage("-points must be positive, got %d", *points)
	}
	e.Routing = []string{*rtName}
	e.Rates = []float64{*rate}
	if *doSweep {
		e.Rates = sweep.Rates(*rate, *points)
	}
	pool := exec.Default()
	r, err := e.Resolve(pool)
	if err != nil {
		var fe *spec.FieldError
		if !errors.As(err, &fe) {
			return failUsage("%v", err)
		}
		name, ok := flagOf[fe.Field]
		if !ok {
			name = fe.Field
		}
		return failUsage("-%s: %v", name, fe.Err)
	}
	en := &r.Entries[0]
	mask, err := spec.Failures(r.T, *failSpec)
	if err != nil {
		return failUsage("-fail: %v", err)
	}
	if mask != nil {
		// The routing function draws from what survives: its store is
		// filtered under the mask, not compiled again.
		en.Config.Failures = mask
		if u, ok := en.Routing.(*routing.UGAL); ok {
			u.Fail = mask
			if st, ok := u.Policy.(*paths.Store); ok {
				u.Policy = paths.CompileDegraded(r.T, st, mask)
			}
		}
	}
	en.Config.CollectChanStats = *chanStats
	cfg := en.Config

	stop, err := prof.Start("dflysim", *cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "dflysim:", err)
		return 1
	}
	defer stop()

	fmt.Fprintf(stdout, "%s (%s)  routing=%s  pattern=%s  vcs=%d buf=%d lat=%d/%d speedup=%d packet=%d\n",
		r.T.Label(), r.T.Family(), en.Routing.Name(), e.Pattern, cfg.NumVCs, cfg.BufSize,
		cfg.LocalLatency, cfg.GlobalLatency, cfg.SpeedUp, cfg.PacketSize)
	if mask != nil {
		fmt.Fprintf(stdout, "degraded: %s\n", mask)
	}

	if *chanStats && !*doSweep {
		// Channel statistics need a direct run (they are not
		// aggregated across seeds).
		w := r.Windows
		res := netsim.New(r.T, cfg, en.Routing, r.Pattern(cfg.Seed), *rate).Run(w.Warmup, w.Measure, w.Drain)
		fmt.Fprintf(stdout, "offered:    %.4f packets/cycle/node\n", res.OfferedLoad)
		fmt.Fprintf(stdout, "latency:    %.1f cycles (p50 %.1f, p99 %.1f)\n",
			res.AvgLatency, res.P50Latency, res.P99Latency)
		fmt.Fprintf(stdout, "throughput: %.4f packets/cycle/node\n", res.Throughput)
		if mask != nil {
			fmt.Fprintf(stdout, "refused:    %d packets\n", res.Refused)
		}
		fmt.Fprintf(stdout, "saturated:  %v\n", res.Saturated)
		if cs := res.Channels; cs != nil {
			fmt.Fprintf(stdout, "local  channels: mean %.3f max %.3f (max/mean %.2f)\n",
				cs.LocalMean, cs.LocalMax, cs.LocalMaxOverMean)
			fmt.Fprintf(stdout, "global channels: mean %.3f max %.3f (max/mean %.2f)\n",
				cs.GlobalMean, cs.GlobalMax, cs.GlobalMaxOverMean)
		}
		return 0
	}
	c := r.Run(pool).Curves[0]
	if *doSweep {
		fmt.Fprintf(stdout, "%8s %10s %10s %8s %8s\n", "offered", "latency", "throughput", "vlb%", "sat")
		for _, pt := range c.Points {
			fmt.Fprintf(stdout, "%8.3f %10.1f %10.3f %7.1f%% %8v\n",
				pt.Offered, pt.Latency, pt.Throughput, 100*pt.VLBFraction, pt.Saturated)
		}
		fmt.Fprintf(stdout, "saturation throughput: %.3f\n", c.SaturationThroughput())
		return 0
	}
	pt := c.Points[0]
	fmt.Fprintf(stdout, "offered:    %.4f packets/cycle/node\n", pt.Offered)
	fmt.Fprintf(stdout, "latency:    %.1f ± %.1f cycles\n", pt.Latency, pt.LatencyErr)
	fmt.Fprintf(stdout, "throughput: %.4f packets/cycle/node\n", pt.Throughput)
	fmt.Fprintf(stdout, "VLB share:  %.1f%%\n", 100*pt.VLBFraction)
	fmt.Fprintf(stdout, "avg hops:   %.2f\n", pt.AvgHops)
	fmt.Fprintf(stdout, "saturated:  %v\n", pt.Saturated)
	return 0
}
