package main

// This file is the benchmark's vocabulary: the workloads and every metric
// it prints, by name, unit and direction. BENCHMARK.json at the root of the
// repository repeats these tables and adds the bounds; a self-test keeps
// the two from drifting.

// metricSpec names one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// workloadNames are the four traffic shapes, in the order "all" runs them.
var workloadNames = []string{"warm_reads", "cold_jobs", "dispatch_jobs", "cold_figures"}

// endToEnd is what a user of the system would see. Every workload reports
// every one of them (the benchmark contract compares them per workload and
// needs them non-zero), so each is defined over the workload's own unit of
// work: one read, one job, or — on cold_figures — one cold pass of all
// fifteen figures and tables.
var endToEnd = []metricSpec{
	// First spawn → start of the measured phase (process start, store
	// fill, warm-up); the binary build is excluded. Median over the
	// set-ups a run performs.
	{"setup_s", "s", "lower"},
	// Verified operations per second of the measured phase.
	{"ops_per_s", "1/s", "higher"},
	// Median client-observed latency of the unit of work.
	{"p50_ms", "ms", "lower"},
	// Nearest-rank 90th percentile of the same latencies.
	{"p90_ms", "ms", "lower"},
	// Σ over server processes of (utime+stime) across the measured phase
	// ÷ verified ops. Holds steady when a noisy neighbour moves latency.
	{"server_cpu_ms_per_op", "ms", "lower"},
	// Σ VmHWM of the server processes at the end of the measured phase.
	{"server_rss_mb", "MiB", "lower"},
}

// perLayer is one number per layer boundary: timed calls into a package's
// exported functions (probe), /metrics deltas across the measured phase
// (scrape), the client's own split of its samples (client), and median
// self times of the servers' spans read from /debug/traces (span).
var perLayer = []metricSpec{
	// client: end-to-end numbers the contract cannot bound on every
	// workload (see README), kept under their names.
	{"client.p95_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.sim_minstr_per_s", "Minstr/s", "higher"},
	{"client.cold_all_s", "s", "lower"},
	// Median wall time from exec to the last verified body when every
	// server is restarted on its store and the result set is pulled again.
	{"client.restart_all_ms", "ms", "lower"},
	{"client.failed_share", "ratio", "lower"},

	{"memtrace.gen_ns_per_instr", "ns", "lower"},
	{"memtrace.gen_short_ns_per_instr", "ns", "lower"},

	{"tracecache.capture_ns_per_instr", "ns", "lower"},
	{"tracecache.replay_ns_per_instr", "ns", "lower"},
	{"tracecache.bytes_per_instr", "B", "lower"},
	{"tracecache.useful_ratio", "ratio", "higher"},

	{"uarch.run_ns_per_instr", "ns", "lower"},
	{"uarch.reset_us", "us", "lower"},
	{"uarch.newcore_us", "us", "lower"},
	{"uarch.cache_access_ns", "ns", "lower"},
	{"uarch.tlb_translate_ns", "ns", "lower"},
	{"uarch.bpred_ns", "ns", "lower"},

	{"core.counters_digest48", "count", "lower"},
	{"core.paper_ipc_mape_pct", "%", "lower"},
	{"core.paper_l2mpki_mape_pct", "%", "lower"},

	{"sweep.registry_j1_s", "s", "lower"},
	{"sweep.parallel_efficiency", "ratio", "higher"},
	{"sweep.memo_hit_ns", "ns", "lower"},

	{"workloads.matrix_s", "s", "lower"},
	{"workloads.cell_ms_max", "ms", "lower"},

	{"store.put_us", "us", "lower"},
	{"store.get_hit_us", "us", "lower"},
	{"store.get_miss_us", "us", "lower"},
	{"store.encode_us", "us", "lower"},
	{"store.decode_us", "us", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.writes", "count", "lower"},

	{"report.figure_build_us", "us", "lower"},
	{"report.json_us", "us", "lower"},
	{"report.csv_us", "us", "lower"},
	{"report.body_digest48", "count", "lower"},

	{"serve.handler_figure_us", "us", "lower"},
	{"serve.handler_counters_us", "us", "lower"},
	{"serve.handler_304_us", "us", "lower"},
	{"serve.handler_job_hit_us", "us", "lower"},
	{"serve.auth_overhead_us", "us", "lower"},
	{"serve.read200_p50_ms", "ms", "lower"},
	{"serve.read304_p50_ms", "ms", "lower"},
	{"serve.csv_p50_ms", "ms", "lower"},
	{"serve.server_mean_ms", "ms", "lower"},
	{"serve.wire_overhead_ms", "ms", "lower"},
	{"serve.ready_ms", "ms", "lower"},
	{"serve.requests", "count", "higher"},
	{"serve.coalesced", "count", "lower"},
	{"serve.errors", "count", "lower"},

	{"obs.trace_ns", "ns", "lower"},
	{"tenant.authenticate_ns", "ns", "lower"},
	{"memo.hit_ns", "ns", "lower"},

	{"jobs.async_overhead_ms", "ms", "lower"},
	{"jobs.shed", "count", "lower"},
	{"jobs.joined", "count", "lower"},

	{"dispatch.hop_ms", "ms", "lower"},
	{"dispatch.cluster_hop_ms", "ms", "lower"},
	{"dispatch.warm_hop_ms", "ms", "lower"},
	{"dispatch.dispatched", "count", "higher"},
	{"dispatch.remote_hits", "count", "higher"},
	{"dispatch.fallbacks", "count", "lower"},
	{"dispatch.errors", "count", "lower"},
	{"dispatch.remote_hit_ratio", "ratio", "higher"},

	{"replica.push_visible_ms", "ms", "lower"},
	{"replica.converge_ms", "ms", "lower"},

	{"span.admission_ms", "ms", "lower"},
	{"span.backend_load_ms", "ms", "lower"},
	{"span.store_read_ms", "ms", "lower"},
	{"span.dispatch_ms", "ms", "lower"},
	{"span.trace_capture_ms", "ms", "lower"},
	{"span.simulate_ms", "ms", "lower"},
	{"span.backend_store_ms", "ms", "lower"},
	{"span.store_write_ms", "ms", "lower"},
	{"span.cluster_run_ms", "ms", "lower"},
	{"span.join_ms", "ms", "lower"},
	{"span.unattributed_ms", "ms", "lower"},

	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.client_cpu_share", "ratio", "lower"},
	{"harness.build_s", "s", "lower"},
}
