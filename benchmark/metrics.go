package main

import (
	"sort"
)

// metricDef names one metric; BENCHMARK.json carries the same lists and the
// smoke test keeps the two equal. README.md says which end-to-end metric, on
// which workload, each per-layer metric is predicted to move.
type metricDef struct{ name, unit, better string }

// endToEnd is printed by an untraced run: what a user of the cache feels.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "queries/s", "higher"},
	{"query_p50_us", "us", "lower"},
	{"query_p99_us", "us", "lower"},
	{"tests_saved_frac", "ratio", "higher"},
	{"heap_mb", "MB", "lower"},
	{"add_graph_p50_us", "us", "lower"},
}

// perLayer is printed by a traced run. A metric that does not exist on a
// workload (server.* in process, the sweeps outside their workload) is 0.
var perLayer = []metricDef{
	{"trace_overhead_frac", "ratio", "lower"},

	{"graph.fingerprint_ns", "ns", "lower"},
	{"graph.parse_us", "us", "lower"},

	{"bitset.clone_ns", "ns", "lower"},
	{"bitset.and_ns", "ns", "lower"},
	{"bitset.or_ns", "ns", "lower"},
	{"bitset.andnot_ns", "ns", "lower"},
	{"bitset.foreach_and_ns", "ns", "lower"},
	{"bitset.bytes_per_set", "B", "lower"},

	{"iso.verify_us", "us", "lower"},
	{"iso.tests_per_query", "count", "lower"},
	{"iso.qh_test_us", "us", "lower"},

	{"ftv.filter_us", "us", "lower"},
	{"ftv.candidates_per_query", "count", "lower"},
	{"ftv.filter_precision", "ratio", "higher"},
	{"ftv.base_run_us", "us", "lower"},
	{"ftv.index_build_s", "s", "lower"},
	{"ftv.index_mb", "MB", "lower"},
	{"ftv.add_graph_us", "us", "lower"},
	{"ftv.remove_graph_us", "us", "lower"},

	{"core.exact_frac", "ratio", "higher"},
	{"core.subsuper_frac", "ratio", "higher"},
	{"core.miss_frac", "ratio", "lower"},
	{"core.exact_p50_us", "us", "lower"},
	{"core.exact_p99_us", "us", "lower"},
	{"core.subsuper_p50_us", "us", "lower"},
	{"core.subsuper_p99_us", "us", "lower"},
	{"core.miss_p50_us", "us", "lower"},
	{"core.miss_p99_us", "us", "lower"},
	{"core.filter_share", "ratio", "lower"},
	{"core.hit_share", "ratio", "lower"},
	{"core.verify_share", "ratio", "lower"},
	{"core.other_share", "ratio", "lower"},
	{"core.hit_scan_entries_per_query", "count", "lower"},
	{"core.hit_full_checks_per_query", "count", "lower"},
	{"core.hit_index_pruned_frac", "ratio", "higher"},
	{"core.hit_iso_tests_per_query", "count", "lower"},
	{"core.hit_iso_useful_frac", "ratio", "higher"},
	{"core.admissions_per_kq", "count", "lower"},
	{"core.evictions_per_kq", "count", "lower"},
	{"core.window_turns_per_kq", "count", "lower"},
	{"core.turn_extra_us", "us", "lower"},
	{"core.bytes_per_entry", "B", "lower"},
	{"core.intern_hit_frac", "ratio", "higher"},
	{"core.allocs_per_exact_hit", "count", "lower"},
	{"core.allocs_per_miss", "count", "lower"},
	{"core.scale_n_over_1", "ratio", "higher"},

	{"core.add_graph_p50_us", "us", "lower"},
	{"core.remove_graph_p50_us", "us", "lower"},
	{"core.maintenance_tests_per_add", "count", "lower"},
	{"core.query_p99_during_mutation_us", "us", "lower"},

	{"core.save_ms", "ms", "lower"},
	{"core.restore_eager_ms", "ms", "lower"},
	{"core.restore_lazy_ms", "ms", "lower"},
	{"core.first_hit_after_lazy_us", "us", "lower"},
	{"core.snapshot_bytes_per_entry", "B", "lower"},
	{"core.save_v2_ms", "ms", "lower"},
	{"core.restore_v2_ms", "ms", "lower"},
	{"core.snapshot_v2_bytes_per_entry", "B", "lower"},

	{"server.handler_us", "us", "lower"},
	{"server.overhead_us", "us", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.request_bytes_per_query", "B", "lower"},
	{"server.response_bytes_per_query", "B", "lower"},
	{"server.allocs_per_request", "count", "lower"},
	{"server.batch_item_us", "us", "lower"},

	{"core.detect_us_cap100", "us", "lower"},
	{"core.detect_us_cap1000", "us", "lower"},
	{"core.detect_us_cap10000", "us", "lower"},
	{"core.scan_entries_cap100", "count", "lower"},
	{"core.scan_entries_cap1000", "count", "lower"},
	{"core.scan_entries_cap10000", "count", "lower"},

	{"core.alt_default_qps", "queries/s", "higher"},
	{"core.alt_serialized_qps", "queries/s", "higher"},
	{"core.alt_shared_window_qps", "queries/s", "higher"},
	{"core.alt_index_off_qps", "queries/s", "higher"},
	{"core.alt_eager_reconcile_qps", "queries/s", "higher"},
	{"core.alt_lazy_reconcile_qps", "queries/s", "higher"},
	{"core.alt_eager_add_graph_p50_us", "us", "lower"},
	{"core.alt_lazy_add_graph_p50_us", "us", "lower"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits turns measured values into the result line's metrics: exactly
// the names in defs, 0 for one the run did not measure.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// median returns the middle of vs (the mean of the two middles for an even
// count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
