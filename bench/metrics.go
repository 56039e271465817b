package main

// metricDef describes one reported metric. For end-to-end metrics
// Bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression; BENCHMARK.json
// carries the same table (bench_test.go keeps the two in step).
// Moves names the end-to-end metric and workload a per-layer metric
// should move, and is printed at the end of its line.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd lists the nine metrics a user of the system would see.
// Every workload reports every one: where a workload's timed phase does
// not exercise a metric (writes on a read workload, DoD on anything but
// compare_dfs) a short probe after the phase measures it on the same
// serving stack, so no value is ever a placeholder.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "add_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "remove_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "dod_mean", Unit: "count", Better: "higher", Bound: 0.10},
}

// perLayer lists the single-layer metrics of the traced run; layer =
// package name. A layer the workload never calls reports 0.
var perLayer = []metricDef{
	{Name: "index.tokenize_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, throughput_ops_s on read_mono; none on compare_dfs, http_api"},
	{Name: "index.query_lists_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, throughput_ops_s on read_mono; none on compare_dfs, http_api"},
	{Name: "index.postings_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_ms on read_mono"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on read_mono, compare_dfs, live_mixed"},

	{Name: "slca.stream_collect_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on read_mono"},
	{Name: "slca.eager_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on read_mono (broad class sets p95)"},
	{Name: "slca.results_per_query", Unit: "count", Better: "lower", Moves: "latency_p95_ms on read_mono"},

	{Name: "xseek.compile_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on read_mono, leg side of cluster_k4"},
	{Name: "xseek.execute_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on read_mono, leg side of cluster_k4"},
	{Name: "xseek.lift_self_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on read_mono, leg side of cluster_k4"},
	{Name: "xseek.rank_page_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on read_mono, compare_dfs"},
	{Name: "xseek.wand_page_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on read_mono, leg side of cluster_k4"},
	{Name: "xseek.wand_pruned_per_query", Unit: "count", Better: "higher", Moves: "latency_p50_ms on read_mono"},
	{Name: "xseek.wand_blocks_skipped_per_query", Unit: "count", Better: "higher", Moves: "latency_p50_ms on read_mono"},

	{Name: "engine.query_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on read_mono (hit ratio x hit/miss gap)"},
	{Name: "engine.stats_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on compare_dfs"},
	{Name: "engine.dfs_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on compare_dfs"},
	{Name: "engine.hit_page_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on read_mono, compare_dfs"},
	{Name: "engine.miss_page_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on read_mono"},
	{Name: "engine.ranked_streamed_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on read_mono"},
	{Name: "engine.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on read_mono, compare_dfs, live_mixed"},

	{Name: "feature.extract_us_per_result", Unit: "us", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on compare_dfs; compare class of http_api; none on read_mono, cluster_k4"},
	{Name: "core.single_swap_k10_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on compare_dfs; none on read_mono, cluster_k4"},
	{Name: "core.multi_swap_k10_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on compare_dfs; none on read_mono, cluster_k4"},
	{Name: "core.single_swap_k20_us", Unit: "us", Better: "lower", Moves: "latency_p95_ms on compare_dfs; none on read_mono, cluster_k4"},
	{Name: "core.multi_swap_k20_us", Unit: "us", Better: "lower", Moves: "latency_p95_ms on compare_dfs; none on read_mono, cluster_k4"},
	{Name: "core.dod_vs_topk_ratio", Unit: "ratio", Better: "higher", Moves: "dod_mean on compare_dfs"},
	{Name: "table.build_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on compare_dfs; compare class of http_api"},
	{Name: "table.render_html_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on compare_dfs"},
	{Name: "snippet.generate_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on read_mono (snippet ops); snippet class of http_api"},

	{Name: "shard.build_ms", Unit: "ms", Better: "lower", Moves: "baseline for dist.*; none end to end"},
	{Name: "shard.inproc_k4_page_us", Unit: "us", Better: "lower", Moves: "baseline for dist.tax_ratio_p50"},

	{Name: "dist.leg_calls_per_op", Unit: "count", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on cluster_k4; none elsewhere"},
	{Name: "dist.leg_busy_us_per_op", Unit: "us", Better: "lower", Moves: "latency_p50_ms on cluster_k4; none elsewhere"},
	{Name: "dist.leg_union_us_per_op", Unit: "us", Better: "lower", Moves: "latency_p50_ms on cluster_k4; none elsewhere"},
	{Name: "dist.coordinator_self_us_per_op", Unit: "us", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on cluster_k4; none elsewhere"},
	{Name: "dist.req_bytes_per_op", Unit: "B", Better: "lower", Moves: "latency_p50_ms on cluster_k4; none elsewhere"},
	{Name: "dist.resp_bytes_per_op", Unit: "B", Better: "lower", Moves: "latency_p50_ms on cluster_k4; none elsewhere"},
	{Name: "dist.tax_ratio_p50", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms on cluster_k4; none elsewhere"},
	{Name: "dist.retries", Unit: "count", Better: "lower", Moves: "latency_p95_ms on cluster_k4"},
	{Name: "dist.hedges", Unit: "count", Better: "lower", Moves: "latency_p95_ms on cluster_k4"},
	{Name: "dist.leg_errs", Unit: "count", Better: "lower", Moves: "failed on cluster_k4"},
	{Name: "dist.dial_ms", Unit: "ms", Better: "lower", Moves: "setup_s on cluster_k4"},

	{Name: "update.compact_p50_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms, remove_p50_ms on live_mixed"},
	{Name: "update.compactions", Unit: "count", Better: "lower", Moves: "latency_p95_ms on live_mixed"},
	{Name: "update.pending_delta_max", Unit: "count", Better: "lower", Moves: "latency_p50_ms on live_mixed"},
	{Name: "update.read_slowdown_ratio", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms on live_mixed"},
	{Name: "update.read_p99_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms on live_mixed"},

	{Name: "persist.save_v4_ms", Unit: "ms", Better: "lower", Moves: "none (reference for the one-writer persistence item)"},
	{Name: "persist.load_v4_ms", Unit: "ms", Better: "lower", Moves: "none (reference for the one-writer persistence item)"},
	{Name: "persist.snapshot_bytes_per_node", Unit: "B", Better: "lower", Moves: "none (reference for the one-writer persistence item)"},
	{Name: "persist.first_query_after_load_ms", Unit: "ms", Better: "lower", Moves: "none (reference for the one-writer persistence item)"},

	{Name: "xsactd.start_ms", Unit: "ms", Better: "lower", Moves: "setup_s on http_api"},
	{Name: "xsactd.front_self_us_search", Unit: "us", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on http_api"},
	{Name: "xsactd.front_self_us_compare", Unit: "us", Better: "lower", Moves: "latency_p50_ms, latency_p95_ms on http_api"},
	{Name: "xsactd.resp_bytes_per_op", Unit: "B", Better: "lower", Moves: "latency_p50_ms on http_api"},
	{Name: "xsactd.saturation_rps", Unit: "1/s", Better: "higher", Moves: "throughput_ops_s on http_api (the same loop, shorter; the 400 req/s schedule must stay below 30% of it)"},
	{Name: "xsactd.open_loop_p50_ms", Unit: "ms", Better: "lower", Moves: "none: what a lone user sees at 400 req/s, timed from due time; follows latency_p50_ms on http_api plus the host's wake-up cost"},
	{Name: "xsactd.open_loop_p95_ms", Unit: "ms", Better: "lower", Moves: "none: as above, for latency_p95_ms on http_api"},
	{Name: "xsactd.gen_late_p99_ms", Unit: "ms", Better: "lower", Moves: "none: generator health for xsactd.open_loop_*"},

	{Name: "tail.latency_p99_ms", Unit: "ms", Better: "lower", Moves: "the workload's own tail; not a gate"},

	// The per-layer cost split: each layer's share of the traced
	// replay's self time on this workload. The shares of one workload
	// sum to 100.
	{Name: "split.index_pct", Unit: "%", Better: "lower", Moves: "read_mono, live_mixed"},
	{Name: "split.slca_pct", Unit: "%", Better: "lower", Moves: "read_mono, live_mixed"},
	{Name: "split.xseek_pct", Unit: "%", Better: "lower", Moves: "read_mono, live_mixed, compare_dfs (ranking only)"},
	{Name: "split.engine_pct", Unit: "%", Better: "lower", Moves: "read_mono, compare_dfs, http_api"},
	{Name: "split.feature_pct", Unit: "%", Better: "lower", Moves: "compare_dfs; snippet ops of read_mono"},
	{Name: "split.core_pct", Unit: "%", Better: "lower", Moves: "compare_dfs"},
	{Name: "split.table_pct", Unit: "%", Better: "lower", Moves: "compare_dfs"},
	{Name: "split.snippet_pct", Unit: "%", Better: "lower", Moves: "snippet ops of read_mono"},
	{Name: "split.update_pct", Unit: "%", Better: "lower", Moves: "live_mixed"},
	{Name: "split.dist_pct", Unit: "%", Better: "lower", Moves: "cluster_k4 (coordinator self: fan-out, wire, merge)"},
	{Name: "split.dist_legs_pct", Unit: "%", Better: "lower", Moves: "cluster_k4 (union of leg handlers: decode, leg search, encode)"},
	{Name: "split.xsactd_pct", Unit: "%", Better: "lower", Moves: "http_api (HTTP + handler + JSON encode)"},
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

// workloads are the five fixed workloads; later issues cite the names.
var workloads = []workloadDef{
	{"read_mono", "closed loop, 2 clients, in-process monolithic engine: posting fetch, SLCA, entity lifting and scoring do nearly all the work; core/dist/HTTP do none"},
	{"compare_dfs", "closed loop, 2 clients, the paper's pipeline per op: feature/core/table dominate and the read path is a cache hit, so a read-path change must not move it"},
	{"cluster_k4", "closed loop, 1 client, coordinator over 4 loopback shard legs: fan-out rounds, wire encode/decode and merge dominate; the only workload the distributed tax shows on"},
	{"live_mixed", "one reader and one closed-loop writer on a live engine with auto-compaction at 64: a read win that costs writes or stalls reads during compaction shows here only"},
	{"http_api", "closed loop, 2 keep-alive connections against the compiled xsactd: HTTP + handler + JSON encode dominate; a posting-decode change should not move it"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
