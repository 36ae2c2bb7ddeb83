package main

import "time"

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// metricDef names a metric, its unit and which direction is better.
// bound is the share of the baseline median by which an end-to-end
// metric may worsen before it is a regression; per-layer metrics are
// diagnostic and have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the pipeline sees, the same
// three on every workload. BENCHMARK.json repeats this table and
// bench_test.go keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.12},
}

// perLayer are the diagnostic metrics of a traced run, grouped by the
// layer whose calls they time or count.
var perLayer = []metricDef{
	{name: "topo.compile_ms", unit: "ms", better: "lower"},

	{name: "paths.compile_ms", unit: "ms", better: "lower"},
	{name: "paths.store_mb", unit: "MB", better: "lower"},
	{name: "paths.apply_failures_ms", unit: "ms", better: "lower"},
	{name: "paths.sample_ns", unit: "ns", better: "lower"},

	{name: "flow.matrixgrid_ms", unit: "ms", better: "lower"},
	{name: "flow.loadmatrix_ms", unit: "ms", better: "lower"},
	{name: "flow.model_eval_ms", unit: "ms", better: "lower"},
	{name: "flow.evals_per_s", unit: "1/s", better: "higher"},

	{name: "core.step1_s", unit: "s", better: "lower"},
	{name: "core.step2_s", unit: "s", better: "lower"},
	{name: "core.rebalance_ms", unit: "ms", better: "lower"},

	{name: "sweep.saturation_s", unit: "s", better: "lower"},
	{name: "exec.tasks", unit: "count", better: "lower"},
	{name: "exec.busy_s", unit: "s", better: "lower"},
	{name: "exec.parallel_eff", unit: "ratio", better: "higher"},

	{name: "netsim.new_ms", unit: "ms", better: "lower"},
	{name: "netsim.cycles_per_s", unit: "1/s", better: "higher"},
	{name: "netsim.us_per_cycle", unit: "us", better: "lower"},
	{name: "netsim.phase_deliver_pct", unit: "%", better: "lower"},
	{name: "netsim.phase_inject_pct", unit: "%", better: "lower"},
	{name: "netsim.phase_allocate_pct", unit: "%", better: "lower"},
	{name: "netsim.steady_allocs_per_cycle", unit: "count", better: "lower"},
	{name: "netsim.cycles_per_s_2shard", unit: "1/s", better: "higher"},

	{name: "routing.vlb_fraction", unit: "ratio", better: "lower"},
	{name: "routing.avg_hops", unit: "count", better: "lower"},
	{name: "routing.p99_latency_cycles", unit: "cycles", better: "lower"},

	{name: "route.emit_ms", unit: "ms", better: "lower"},
	{name: "route.table_mb", unit: "MB", better: "lower"},
	{name: "route.lookup_ns", unit: "ns", better: "lower"},
	{name: "route.batch_p50_us", unit: "us", better: "lower"},
	{name: "route.batch_p99_us", unit: "us", better: "lower"},
	{name: "route.allocs_per_batch", unit: "count", better: "lower"},
	{name: "route.swap_ms_p50", unit: "ms", better: "lower"},
	{name: "route.swap_ms_max", unit: "ms", better: "lower"},
	{name: "route.apply_delta_ms", unit: "ms", better: "lower"},
	{name: "route.dirty_rows_per_fail", unit: "count", better: "lower"},
	{name: "route.patch_mb_per_fail", unit: "MB", better: "lower"},
	{name: "route.lookup_ns_degraded", unit: "ns", better: "lower"},

	{name: "routed.ready_ms", unit: "ms", better: "lower"},
	{name: "routed.req_per_s", unit: "1/s", better: "higher"},
	{name: "routed.req_p50_us", unit: "us", better: "lower"},
	{name: "routed.req_p99_us", unit: "us", better: "lower"},
	{name: "routed.overhead_x", unit: "ratio", better: "lower"},

	{name: "harness.wall_s", unit: "s", better: "lower"},
	{name: "harness.cpu_s", unit: "s", better: "lower"},
	{name: "harness.alloc_mb", unit: "MB", better: "lower"},
	{name: "harness.gc_cycles", unit: "count", better: "lower"},
	{name: "harness.pass_spread", unit: "ratio", better: "lower"},
	{name: "harness.build_s", unit: "s", better: "lower"},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
}

// unitOf looks a metric's unit up in both tables.
func unitOf(name string) string {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
