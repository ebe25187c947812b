package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (the self-test checks that
// the two agree).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the simulator or of meshsimd sees. Every
// workload reports every entry: an "op" is one replication on the sim
// workloads and one HTTP request on serve-mixed.
var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "sim-s/s"}, // simulated seconds the engine ran per wall second
	{"ops_per_s", "1/s"},
	// Median latency: a replication's wall time in the median scheme
	// rotation, or the client-side latency of a cache hit. Tail percentiles
	// of single-threaded replications move ~15% between runs of the same
	// work on a shared 2-core host, so the tails are per-layer figures
	// (client.*), not gated ones.
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"}, // VmHWM of the process that runs the engine
}

// perLayer is printed with -trace 1. A layer a workload does not exercise
// reads 0 (for example every serve.* metric on the sim workloads).
var perLayer = []metricDef{
	{"radio.cpu_frac", "frac"},
	{"radio.ns_per_tx", "ns"},
	{"radio.tx_per_sim_s", "1/sim-s"},
	{"radio.deliveries_per_tx", "ratio"},
	{"radio.audible_rebuilds_per_sim_s", "1/sim-s"},

	{"mac.cpu_frac", "frac"},
	{"mac.ns_per_frame", "ns"},
	{"mac.frames_per_sim_s", "1/sim-s"},
	{"mac.retries_per_frame", "ratio"},
	{"mac.queue_drops_per_sim_s", "1/sim-s"},

	{"routing.cpu_frac", "frac"},
	{"routing.ns_per_rx", "ns"},
	{"routing.rreq_rx_per_discovery", "ratio"},
	{"routing.rreq_suppressed_frac", "frac"},
	{"routing.discovery_success_frac", "frac"},

	{"des.cpu_frac", "frac"},
	{"des.ns_per_event", "ns"},
	{"des.events_per_sim_s", "1/sim-s"},
	{"des.pending_hw", "count"},

	{"sim.cpu_frac", "frac"},
	{"sim.cold_build_ms", "ms"},
	{"sim.allocs_per_sim_s", "1/sim-s"},
	{"sim.bytes_per_sim_s", "B/sim-s"},
	{"runtime.cpu_frac", "frac"},

	{"observers.cpu_frac", "frac"},
	{"observers.on_off_ratio", "ratio"},

	{"experiments.cell_ms", "ms"},

	{"serve.engine_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.cache_get_us", "us"},
	{"serve.cache_disk_get_us", "us"},
	{"serve.cache_put_us", "us"},
	{"serve.overhead_ms", "ms"},
	{"serve.hit_frac", "frac"},
	{"serve.disk_hit_frac", "frac"},
	{"serve.engine_runs_per_miss", "ratio"},
	{"serve.shed_frac", "frac"},
	{"serve.evictions", "count"},
	{"serve.http_cpu_frac", "frac"},

	{"client.hit_p50_ms", "ms"},
	{"client.hit_p99_ms", "ms"},
	{"client.cold_p50_ms", "ms"},
	{"client.cold_p90_ms", "ms"},
	{"client.sweep_p50_ms", "ms"},

	{"trace.overhead_ratio", "ratio"},
}
