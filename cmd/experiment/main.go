// Command experiment runs a JSON-defined suite of simulation sweeps
// and writes results as JSON and aligned text.
//
// Suite entries (and every simulation run inside them) execute
// concurrently on a shared worker pool; output is collected and
// printed in suite order, and results are bit-identical for any
// -workers value.
//
// Usage:
//
//	experiment -suite suite.json [-o results.json] [-workers N] [-progress]
//	experiment -suite suite.json -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiment -example              # print an example suite
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tugal/internal/exec"
	"tugal/internal/prof"
	"tugal/internal/spec"
)

const exampleSuite = `{
  "experiments": [
    {
      "name": "adversarial-g9",
      "topology": "dfly(4,8,4,9)",
      "pattern": "shift:2:0",
      "routing": ["ugal-l", "t-ugal-l", "par", "t-par"],
      "policy": "strategic:2",
      "rates": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35],
      "seeds": 2,
      "warmup": 10000, "measure": 5000, "drain": 10000
    },
    {
      "name": "placed-ring-g9",
      "topology": "dfly(4,8,4,9)",
      "pattern": "ring@group-rr",
      "routing": ["ugal-l", "t-ugal-l"],
      "policy": "strategic:2",
      "rates": [0.1, 0.2, 0.3, 0.4]
    }
  ]
}`

// main delegates to run so deferred profile writers execute before
// the process exits (os.Exit skips defers).
func main() {
	os.Exit(run())
}

func run() int {
	suitePath := flag.String("suite", "", "path to a JSON suite definition")
	out := flag.String("o", "", "write results JSON to this file")
	example := flag.Bool("example", false, "print an example suite and exit")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	shards := flag.Int("shards", 0, "simulator shards per run for entries that don't set \"shards\" (0/1 = sequential; bit-identical results)")
	progress := flag.Bool("progress", false, "report each completed simulation run on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *example {
		fmt.Println(exampleSuite)
		return 0
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "experiment: -workers must be >= 0, got %d\n", *workers)
		return 2
	}
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "experiment: -shards must be >= 0, got %d\n", *shards)
		return 2
	}
	if *suitePath == "" {
		fmt.Fprintln(os.Stderr, "experiment: -suite required (see -example)")
		return 2
	}
	f, err := os.Open(*suitePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		return 1
	}
	suite, err := spec.LoadSuite(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		return 1
	}

	stop, err := prof.Start("experiment", *cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		return 1
	}
	defer stop()

	pool := exec.NewPool(*workers)
	if *progress {
		pool.SetObserver(exec.Progress(os.Stderr))
	}
	if *shards > 1 {
		for i := range suite.Experiments {
			if suite.Experiments[i].Shards == 0 {
				suite.Experiments[i].Shards = *shards
			}
		}
	}

	// Run every suite entry on the pool, then print in suite order.
	results := make([]*spec.ExperimentResult, len(suite.Experiments))
	errs := make([]error, len(suite.Experiments))
	pool.Run("suite", len(suite.Experiments), func(i int) int64 {
		results[i], errs[i] = suite.Experiments[i].RunOn(pool)
		return 0
	})
	for i := range suite.Experiments {
		e := &suite.Experiments[i]
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "experiment:", errs[i])
			return 1
		}
		res := results[i]
		fmt.Printf("== %s (%s, %s)\n", e.Name, e.Topology, e.Pattern)
		for _, c := range res.Curves {
			fmt.Printf("  %-12s sat=%.3f", c.Name, c.SaturationThroughput())
			for _, p := range c.Points {
				if p.Saturated {
					fmt.Printf("  %0.2f:sat", p.Offered)
				} else {
					fmt.Printf("  %0.2f:%.1f", p.Offered, p.Latency)
				}
			}
			fmt.Println()
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			return 1
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			return 1
		}
		fmt.Println("wrote", *out)
	}
	return 0
}
