// Command dflyinfo prints the structural parameters of a topology —
// the quantities of the paper's Table 2 — plus path-diversity
// statistics for a sample switch pair, and, with -policies,
// whole-topology candidate-set statistics per policy from the
// compiled path store (pairs, paths, hop histogram, store size).
//
// Usage:
//
//	dflyinfo
//	dflyinfo -topo 'dfly(4,8,4,9)' -policies full,strategic:2,capped:4:0.6
//	dflyinfo -topo 'd3(12,4)'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tugal/internal/exec"
	"tugal/internal/paths"
	"tugal/internal/route"
	"tugal/internal/spec"
	"tugal/internal/topo"
)

func main() {
	topoSpec := flag.String("topo", "dfly(4,8,4,9)", spec.TopologyUsage)
	policies := flag.String("policies", "", "comma-separated path policies to compile and summarize (e.g. full,strategic:2,capped:4:0.6)")
	tables := flag.Bool("tables", false, "also emit forwarding tables per -policies entry and summarize them (rows, bytes, candidates per row, build time)")
	flag.Parse()

	t, err := spec.Topology(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dflyinfo: -topo:", err)
		os.Exit(2)
	}
	if err := t.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dflyinfo: validation failed:", err)
		os.Exit(1)
	}
	row := t.Table2()
	fmt.Printf("topology:              %s\n", row.Topology)

	fmt.Printf("compute nodes (PEs):   %d\n", row.PEs)
	fmt.Printf("switches:              %d\n", row.Switches)
	fmt.Printf("groups:                %d\n", row.Groups)
	fmt.Printf("links per group pair:  %d\n", row.LinksPerGroupPair)
	fmt.Printf("switch radix:          %d\n", t.Radix())
	fmt.Printf("global links per group:%d\n", t.GlobalLinksPerGroup())
	if t.Family() == "dfly" {
		fmt.Printf("balanced (a=2p=2h):    %v\n", topo.Params{P: t.P, A: t.A, H: t.H, G: t.G}.Balanced())
	}

	if t.NumSwitches() <= 2048 {
		m := t.ComputeMetrics()
		fmt.Printf("switch diameter:       %d\n", m.Diameter)
		fmt.Printf("avg shortest path:     %.3f\n", m.AvgShortestPath)
		fmt.Printf("group bisection links: %d\n", m.GroupBisectionLinks)
	}

	if t.G >= 3 {
		s, d := 0, t.SwitchID(t.G/2, t.A/2)
		hist := paths.CountVLBByHops(t, s, d)
		minN := len(paths.EnumerateMin(t, s, d))
		fmt.Printf("\npath diversity for switch pair (%d -> %d):\n", s, d)
		fmt.Printf("  MIN paths:           %d\n", minN)
		total := 0
		for hops, c := range hist {
			if c > 0 {
				fmt.Printf("  %d-hop VLB paths:     %d\n", hops, c)
				total += c
			}
		}
		fmt.Printf("  total VLB paths:     %d\n", total)
	}

	for _, ps := range strings.Split(*policies, ",") {
		ps = strings.TrimSpace(ps)
		if ps == "" {
			continue
		}
		pol, err := spec.Policy(t, ps, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dflyinfo:", err)
			os.Exit(2)
		}
		fmt.Printf("\npolicy %s:\n", pol.Name())
		est := paths.EstimatePaths(t, pol)
		st, ok := paths.Compiled(exec.Default(), t, pol, nil)
		if !ok {
			fmt.Printf("  over compile budget: ~%d paths estimated (budget %d); interpreted sampling only\n",
				est, paths.DefaultCompileBudget)
			continue
		}
		s := st.Stats()
		fmt.Printf("  pairs with paths:    %d of %d\n", s.Pairs, t.NumSwitches()*t.NumSwitches())
		fmt.Printf("  total paths:         %d\n", s.Paths)
		for hops, c := range s.HopHist {
			if c > 0 {
				fmt.Printf("  %d-hop paths:         %d\n", hops, c)
			}
		}
		// The pristine full set's store is arithmetic: tens of KiB built
		// in well under a millisecond.
		size, unit, tick := float64(s.Bytes)/(1<<20), "MiB", time.Millisecond
		if s.Bytes < 1<<20 {
			size, unit, tick = float64(s.Bytes)/(1<<10), "KiB", time.Microsecond
		}
		fmt.Printf("  store size:          %.1f %s\n", size, unit)
		fmt.Printf("  compile time:        %v\n", s.BuildTime.Round(tick))

		if *tables {
			tb, err := route.Emit(st, route.Default())
			if err != nil {
				fmt.Fprintln(os.Stderr, "dflyinfo:", err)
				os.Exit(1)
			}
			ts := tb.Stats()
			fmt.Printf("  forwarding tables:\n")
			fmt.Printf("    rows (live/total): %d / %d\n", ts.Rows, ts.Pairs)
			fmt.Printf("    MIN candidates:    %d\n", ts.MinWords)
			fmt.Printf("    VLB candidates:    %d\n", ts.VLBWords)
			fmt.Printf("    candidates/row:    %.1f avg, %d max\n", ts.AvgCandidates, ts.MaxCandidates)
			fmt.Printf("    next-hop fanout:   %.1f avg (port,VC) entries/row\n", ts.AvgFirstHops)
			fmt.Printf("    table size:        %.1f MiB beside the store\n", float64(ts.Bytes)/(1<<20))
			fmt.Printf("    emit time:         %v\n", ts.BuildTime.Round(time.Millisecond))
		}
	}
}
