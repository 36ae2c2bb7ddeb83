// Command tvlb runs Algorithm 1 — the paper's procedure for
// computing the topology-custom VLB path set (T-VLB) — for a
// Dragonfly topology, printing the Step-1 modeled-throughput grid
// (Figures 4/5), the Step-2 candidates with their simulated scores,
// and the final selection.
//
// Usage:
//
//	tvlb -topo 'dfly(4,8,4,9)'            # quick (minutes)
//	tvlb -topo 'dfly(4,8,4,9)' -full      # paper-faithful settings
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"tugal/internal/core"
	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/spec"
)

func main() {
	topoSpec := flag.String("topo", "dfly(4,8,4,9)", spec.TopologyUsage)
	full := flag.Bool("full", false, "paper-faithful settings (slow)")
	seed := flag.Uint64("seed", 1, "master seed")
	failSpec := flag.String("fail", "", "failure mask: comma-separated global:<sw>:<gp>, local:<u>:<v>, switch:<sw>")
	flag.Parse()

	t, err := spec.Topology(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvlb: -topo:", err)
		flag.Usage()
		os.Exit(2)
	}
	mask, err := spec.Failures(t, *failSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvlb: -fail:", err)
		flag.Usage()
		os.Exit(2)
	}
	opt := core.QuickOptions()
	if *full {
		opt = core.DefaultOptions()
	}
	opt.Seed = *seed
	opt.Failures = mask

	fmt.Printf("computing T-VLB for %s ...\n", t.Label())
	if mask != nil {
		fmt.Printf("degraded: %s\n", mask)
	}
	fmt.Println()
	// Each Step-2 saturation search ends with one line to the pool
	// observer naming the path set it scored and what became of its
	// probes; keep those to print under their candidates.
	var mu sync.Mutex
	var searches []string
	exec.Default().SetObserver(func(s exec.Stat) {
		if line, ok := strings.CutPrefix(s.Label, "search/"); ok {
			mu.Lock()
			searches = append(searches, line)
			mu.Unlock()
		}
	})
	start := time.Now()
	res, err := core.ComputeTVLB(t, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvlb:", err)
		os.Exit(1)
	}
	exec.Default().SetObserver(nil)
	sort.Strings(searches)
	printSearches := func(set string) {
		for _, line := range searches {
			if strings.Contains(line, "["+set+"]") {
				fmt.Printf("        search %s\n", line)
			}
		}
	}

	fmt.Println("Step 1 — modeled throughput per Table-1 data point:")
	for _, pp := range res.Curve {
		mark := " "
		if pp.Point == res.Best {
			mark = "*"
		}
		fmt.Printf("  %s %-12s %.4f ± %.4f\n", mark, pp.Point, pp.Mean, pp.StdErr)
	}
	fmt.Printf("\nStep 2 — candidates (simulated saturation throughput, TYPE_2 patterns):\n")
	fmt.Printf("    %-24s %8.3f   (conventional UGAL baseline)\n", "all VLB", res.BaselineThroughput)
	printSearches(paths.Full{T: t}.Name())
	for _, c := range res.Candidates {
		fmt.Printf("    %-24s %8.3f   (%d paths removed by balance adjustment)\n",
			c.Name, c.SimThroughput, c.RemovedPaths)
		printSearches(c.Policy.Name())
	}
	fmt.Printf("\nfinal T-VLB: %s\n", res.FinalName())
	if res.ConvergedToUGAL {
		fmt.Println("T-UGAL converges with conventional UGAL on this topology.")
	}
	fmt.Printf("elapsed: %s\n", time.Since(start).Round(time.Second))
}
