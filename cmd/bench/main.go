// Command bench is the repository's one end-to-end benchmark: it
// times the whole T-UGAL pipeline — topology spec in, Step 1,
// Algorithm 1, netsim, forwarding tables, served lookup out — on six
// workloads, from outside, by timing calls into the layers' exported
// functions and by driving the real cmd/routed binary over loopback
// HTTP. README.md in this directory explains the workloads, the
// metrics and the estimator.
//
// Usage:
//
//	bench                                  # all six workloads, each in its own child process
//	bench -workload serve_g17 -seed 3      # one workload, in this process
//	bench -workload serve_g17 -trace 1     # per-layer metrics and a span file instead
//	bench -o run.json                      # also write the results for -compare
//	bench -compare A1.json A2.json B1.json B2.json   # first half parent, second half change
//	bench -selfcheck 5                     # 5+5 alternating sets of this binary, on one seed, must agree
//
// A run of one workload ends with one JSON line on standard output:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The exit code is non-zero when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	pool "tugal/internal/exec"
)

// runFile is what -o writes and -compare reads: one set of results
// and the host that produced them.
type runFile struct {
	Host    fingerprint `json:"host"`
	Seed    uint64      `json:"seed"`
	Seconds int         `json:"seconds"`
	Quick   bool        `json:"quick"`
	Traced  bool        `json:"traced"`
	Results []outcome   `json:"results"`
}

// resultLine is the last line a one-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload, in this process (default: all six, one child process each)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", nominalSeconds, "nominal measured work per run; scales the segment counts, which stay fixed counts")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics from a traced pass and write trace-<workload>.json")
	quick := fs.Bool("quick", false, "seconds-scale tier on small topologies, for the tests")
	out := fs.String("o", "", "write the results as JSON to this file")
	buildDir := fs.String("builddir", ".bench_build", "directory for the routed binary, the span files and the children's result files")
	compare := fs.Bool("compare", false, "compare result files: the first half of the arguments is the parent, the second half the change")
	selfcheck := fs.Int("selfcheck", 0, "run N+N alternating sets of this binary and fail unless their medians agree within each bound")
	fs.Parse(os.Args[1:])

	switch {
	case *compare:
		os.Exit(compareMain(fs.Args()))
	case *seconds < 1 || *seconds > 60:
		fatal("-seconds must be between 1 and 60, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		fatal("-trace must be 0 or 1, got %d", *trace)
	}
	c := config{seed: *seed, seconds: *seconds, quick: *quick, procs: min(2, runtime.NumCPU()), buildDir: *buildDir}
	runtime.GOMAXPROCS(c.procs)
	pool.SetDefault(pool.NewPool(c.procs))

	if *selfcheck > 0 {
		os.Exit(selfcheckMain(*selfcheck, c, *name))
	}
	var results []outcome
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", "))
		}
		results = []outcome{runWorkload(w, c, *trace == 1)}
	} else {
		results = runAll(c, *trace == 1, workloadNames())
	}
	ok := true
	for _, r := range results {
		printOutcome(r)
		ok = ok && r.Correct
	}
	if *out != "" {
		if err := writeRunFile(*out, runFile{Host: hostFingerprint(), Seed: c.seed, Seconds: c.seconds,
			Quick: c.quick, Traced: *trace == 1, Results: results}); err != nil {
			fatal("%v", err)
		}
	}
	if *name != "" {
		printResultLine(results[0])
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll runs each named workload in its own child process, so that
// peak_rss_mb is that workload's alone and no workload inherits
// another's heap or page cache state.
func runAll(c config, traced bool, names []string) []outcome {
	var results []outcome
	for _, name := range names {
		results = append(results, runChild(c, traced, name))
	}
	return results
}

// runChild re-executes this binary for one workload and reads its
// results back through a file.
func runChild(c config, traced bool, name string) outcome {
	failed := func(format string, args ...any) outcome {
		o := outcome{Workload: name}
		o.problem(format, args...)
		return o
	}
	self, err := os.Executable()
	if err != nil {
		return failed("%v", err)
	}
	if err := os.MkdirAll(c.buildDir, 0o755); err != nil {
		return failed("%v", err)
	}
	tmp, err := os.CreateTemp(c.buildDir, "result-*.json")
	if err != nil {
		return failed("%v", err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-workload", name, "-seed", strconv.FormatUint(c.seed, 10), "-seconds", strconv.Itoa(c.seconds),
		"-builddir", c.buildDir, "-o", tmp.Name()}
	if traced {
		args = append(args, "-trace", "1")
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	// The child's own report is dropped; the parent prints the row
	// from the result file. A non-zero exit is a failed check, which
	// the file records too.
	if err := cmd.Run(); err != nil {
		if _, isExit := err.(*exec.ExitError); !isExit {
			return failed("%v", err)
		}
	}
	rf, err := readRunFile(tmp.Name())
	if err != nil || len(rf.Results) != 1 {
		return failed("child wrote no result: %v", err)
	}
	return rf.Results[0]
}

func writeRunFile(path string, rf runFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunFile(path string) (runFile, error) {
	var rf runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// printOutcome prints every metric of one workload by name, with its
// unit, then the op counts and the digest.
func printOutcome(o outcome) {
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-14s %-32s %14.6f %s\n", o.Workload, name, o.Metrics[name], unitOf(name))
	}
	fmt.Printf("%-14s ops=%d ops_failed=%d digest=%s passes=%d rounds=%d segments=%d correct=%v\n",
		o.Workload, o.Ops, o.OpsFailed, o.Digest, o.Passes, o.Rounds, o.Segments, o.Correct)
	for _, p := range o.Problems {
		fmt.Printf("%-14s FAILED CHECK: %s\n", o.Workload, p)
	}
}

func printResultLine(o outcome) {
	line := resultLine{Correct: o.Correct, Attempted: max(o.Ops, 1), Failed: o.OpsFailed, Metrics: map[string]metricValue{}}
	for name, v := range o.Metrics {
		line.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(data))
}
