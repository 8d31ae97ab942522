package main

// metricDecl declares one metric the benchmark prints. BENCHMARK.json
// at the repository root declares the same names and units; the tests
// hold the two in step.
type metricDecl struct {
	name, unit, better string
	// exact marks a per-layer value that is a deterministic function of
	// the workload's inputs: it must repeat exactly between iterations
	// of a run and between runs with the same seed.
	exact bool
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them, so each is defined for every workload. Memory is
// per-layer: its peaks are not steady on a shared host (see mem.go).
var endToEnd = []metricDecl{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload bypasses reads 0.
var perLayer = []metricDecl{
	// Workload-level results from the traced run's untraced iterations.
	{name: "sim_minstr_per_s", unit: "Minstr/s", better: "higher"},
	{name: "req_p50_ms", unit: "ms", better: "lower"},
	{name: "req_tail_ms", unit: "ms", better: "lower"},
	{name: "req_tail_pct", unit: "%", better: "higher"},
	{name: "req_samples", unit: "count", better: "higher"},
	{name: "req_per_s", unit: "1/s", better: "higher"},
	{name: "fail_frac", unit: "frac", better: "lower"},
	{name: "trace.overhead_s", unit: "s", better: "lower"},
	{name: "wall_raw_s", unit: "s", better: "lower"},
	{name: "calibration_s", unit: "s", better: "lower"},
	{name: "max_rss_mb", unit: "MB", better: "lower"},
	{name: "max_heap_mb", unit: "MB", better: "lower"},

	// mc, dram: FR-FCFS issue and bank timing.
	{name: "mc.self_frac", unit: "frac", better: "lower"},
	{name: "dram.self_frac", unit: "frac", better: "lower"},
	{name: "mc.reads", unit: "count", better: "higher", exact: true},
	{name: "mc.writes", unit: "count", better: "higher", exact: true},
	{name: "mc.queue_full_read_stalls", unit: "count", better: "lower", exact: true},
	{name: "mc.refresh_stalled_reads", unit: "count", better: "lower", exact: true},
	{name: "dram.row_hit_rate", unit: "frac", better: "higher", exact: true},
	{name: "dram.refresh_commands", unit: "count", better: "lower", exact: true},

	// sim: the event engine.
	{name: "sim.self_frac", unit: "frac", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower", exact: true},
	{name: "sim.events_per_kcycle", unit: "events/kcycle", better: "lower", exact: true},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},

	// core build and kernel/buddy.
	{name: "core.build_ms", unit: "ms", better: "lower"},
	{name: "core.build_frac", unit: "frac", better: "lower"},
	{name: "buddy.new_ms", unit: "ms", better: "lower"},
	{name: "buddy.self_frac", unit: "frac", better: "lower"},
	{name: "runtime.memclr_frac", unit: "frac", better: "lower"},

	// cpu, cache, workload generators.
	{name: "cpu.self_frac", unit: "frac", better: "lower"},
	{name: "cache.self_frac", unit: "frac", better: "lower"},
	{name: "workload.self_frac", unit: "frac", better: "lower"},
	{name: "cpu.instructions", unit: "count", better: "higher", exact: true},
	{name: "cpu.llc_misses", unit: "count", better: "lower", exact: true},
	{name: "core.warmup_ms", unit: "ms", better: "lower"},
	{name: "core.measure_ms", unit: "ms", better: "lower"},

	// kernel: scheduler and VM.
	{name: "kernel.self_frac", unit: "frac", better: "lower"},
	{name: "sched.picks", unit: "count", better: "higher", exact: true},
	{name: "sched.fallback_picks", unit: "count", better: "lower", exact: true},
	{name: "alloc.fallback_pages", unit: "count", better: "lower", exact: true},

	// The fig5 allocator walk.
	{name: "buddy.alloc_pages", unit: "count", better: "higher", exact: true},
	{name: "buddy.ns_per_page", unit: "ns", better: "lower"},

	// harness, runner.
	{name: "harness.cells", unit: "count", better: "higher", exact: true},
	{name: "harness.cell_p50_ms", unit: "ms", better: "lower"},
	{name: "harness.cell_tail_ms", unit: "ms", better: "lower"},
	{name: "runner.retries", unit: "count", better: "lower", exact: true},
	{name: "runner.quarantined", unit: "count", better: "lower", exact: true},

	// service, approx.
	{name: "service.cache_hit_ratio", unit: "frac", better: "higher"},
	// Not exact: a job preempted by a higher-priority request runs its
	// cells again (resuming from their snapshots), and preemption
	// depends on timing.
	{name: "service.simulations", unit: "count", better: "lower"},
	{name: "service.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "service.figure_p50_ms", unit: "ms", better: "lower"},
	{name: "service.cell_p50_ms", unit: "ms", better: "lower"},
	{name: "service.approx_p50_ms", unit: "ms", better: "lower"},
	{name: "approx.predict_us", unit: "us", better: "lower"},

	// Go runtime.
	{name: "runtime.gc_frac", unit: "frac", better: "lower"},
	{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the printed metric set for decls from vals; a declared
// metric the workload does not produce reads 0.
func fill(decls []metricDecl, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
