package main

// metricDef names one metric. BENCHMARK.json at the repository root carries
// the same tables; TestBenchmarkJSONMatches keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd are the metrics a user of the served system sees whose bound is a
// share of the parent's median; BENCHMARK.json lists exactly these.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_query", "B", "lower", 0.01},
	{"alloc_mb_per_query", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// failRatio is the seventh end-to-end metric: (errors + rejected + wrong row
// count + oracle mismatches) ÷ attempted. Every run reports it and -compare
// applies the bound "any increase" to it. BENCHMARK.json cannot carry it: its
// metrics must never be 0 and its bounds are shares of a median, and
// fail_ratio is 0 on every healthy run; there the result line's attempted and
// failed carry it.
var failRatio = metricDef{Name: "fail_ratio", Unit: "ratio", Better: "lower"}

// perLayer are the single-layer metrics of the traced run, named after the
// repository's packages.
var perLayer = []metricDef{
	{Name: "server.frame_ms", Unit: "ms", Better: "lower"},
	{Name: "server.result_rows_per_query", Unit: "count", Better: "lower"},
	{Name: "egil.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.compile_us", Unit: "us", Better: "lower"},
	{Name: "plan.compile_max_us", Unit: "us", Better: "lower"},
	{Name: "plan.rounds_per_query", Unit: "count", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.admission_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.site_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "transport.call_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.conn_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.emit_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.bytes_down_per_query", Unit: "B", Better: "lower"},
	{Name: "transport.bytes_up_per_query", Unit: "B", Better: "lower"},
	{Name: "transport.rows_down_per_query", Unit: "count", Better: "lower"},
	{Name: "transport.rows_up_per_query", Unit: "count", Better: "lower"},
	{Name: "transport.max_site_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "relation.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "relation.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "relation.wire_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "engine.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.busy_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "engine.rows_scanned_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.local_call_share", Unit: "ratio", Better: "higher"},
	{Name: "process.sched_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "process.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "process.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.orphan_spans", Unit: "count", Better: "lower"},
	{Name: "trace.unattributed_ms", Unit: "ms", Better: "lower"},
}
