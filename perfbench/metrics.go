package main

// metricDef names one metric the benchmark reports and how to read it.
// The tables below are the benchmark's contract with BENCHMARK.json
// (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of sfcpd sees, printed with --trace 0.
// Failures are not among them: they are reported as the result's
// "failed" count against "attempted" (and as run.failed_frac).
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
}

// traceLayers are the layers the traced replay times, in the order sfcpd
// calls them. Each gets a trace.self_ms.<layer> metric.
var traceLayers = []string{"server", "codec", "sfcp", "engine", "coarsest", "incr", "store"}

// perLayer are the single-layer metrics, printed with --trace 1. A metric
// that a workload's traffic never reaches reads 0 on it: that is the
// workload on which an optimisation of that layer predicts no change.
// README.md maps each one to the end-to-end metric it should move.
var perLayer = append([]metricDef{
	{"server.edge_ms_p50", "ms", "lower"},
	{"server.resp_bytes_per_req", "bytes", "lower"},
	{"server.req_bytes_per_req", "bytes", "lower"},
	{"server.json_encode_ns_per_label", "ns", "lower"},
	{"server.json_decode_ms", "ms", "lower"},
	{"codec.decode_ns_per_elem", "ns", "lower"},
	{"codec.encode_ns_per_elem", "ns", "lower"},
	{"sfcp.digest_ns_per_elem", "ns", "lower"},
	{"sfcp.snapshot_ms", "ms", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.bytes_end", "bytes", "lower"},
	{"batcher.members_per_flush", "count", "higher"},
	{"batcher.queue_wait_ms_mean", "ms", "lower"},
	{"engine.plan_ms_p50", "ms", "lower"},
	{"engine.linear_frac", "ratio", "higher"},
	{"pool.wait_ms_p50", "ms", "lower"},
	{"coarsest.solve_ms_p50", "ms", "lower"},
	{"coarsest.ns_per_elem.random-function", "ns", "lower"},
	{"coarsest.ns_per_elem.permutation", "ns", "lower"},
	{"coarsest.ns_per_elem.broom", "ns", "lower"},
	{"coarsest.alloc_bytes_per_elem", "bytes", "lower"},
	{"coarsest.allocs_per_solve", "count", "lower"},
	{"coarsest.batch_us_per_member", "us", "lower"},
	{"incr.resolve_ms_p50", "ms", "lower"},
	{"incr.dirty_nodes_mean", "count", "lower"},
	{"incr.incremental_frac", "ratio", "higher"},
	{"incr.register_ms", "ms", "lower"},
	{"store.blob_write_bytes_per_req", "bytes", "lower"},
	{"store.blob_writes_per_req", "count", "lower"},
	{"store.blob_read_bytes_per_req", "bytes", "lower"},
	{"store.blob_put_ms", "ms", "lower"},
	{"run.requests", "count", "higher"},
	{"run.failed_frac", "ratio", "lower"},
	{"run.tail_percentile", "pct", "higher"},
	{"run.tail_samples_beyond", "count", "higher"},
	{"trace.unattributed_ms", "ms", "lower"},
}, traceSelfDefs()...)

func traceSelfDefs() []metricDef {
	var out []metricDef
	for _, l := range traceLayers {
		out = append(out, metricDef{"trace.self_ms." + l, "ms", "lower"})
	}
	return out
}
