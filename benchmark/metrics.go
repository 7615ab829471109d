package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The two lists below are
// the program's side of that contract: the smoke test fails when the
// file and these lists disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a client of the serving path sees. Every workload
// emits every one of them and none is ever zero (see README, "Why seven
// and not twelve").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"typical_us", "us", "lower", 0.25},
	{"slow_kinds_us", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.10},
}

// perLayer is the ledger. A time-unit metric is listed only when every
// workload can measure it; quantities that exist on one workload only
// are expressed as shares or rates, so "not applicable" reads 0 without
// being a time that never changes.
var perLayer = []metricDef{
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.response_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},

	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "core.query_self_us", Unit: "us", Better: "lower"},
	{Name: "core.prepared_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.tail_queries", Unit: "count", Better: "lower"},
	{Name: "core.point_read_us", Unit: "us", Better: "lower"},
	{Name: "core.write_us", Unit: "us", Better: "lower"},
	{Name: "core.write_self_us", Unit: "us", Better: "lower"},
	{Name: "core.checkpoints", Unit: "count", Better: "lower"},
	{Name: "core.checkpoint_stall_pct", Unit: "%", Better: "lower"},
	{Name: "core.load_s", Unit: "s", Better: "lower"},

	{Name: "gremlin.parse_us", Unit: "us", Better: "lower"},
	{Name: "gremlin.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "translate.translate_us", Unit: "us", Better: "lower"},
	{Name: "translate.translate_allocs", Unit: "count", Better: "lower"},
	{Name: "translate.sql_bytes", Unit: "B", Better: "lower"},
	{Name: "translate.ctes_per_query", Unit: "count", Better: "lower"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.parse_allocs", Unit: "count", Better: "lower"},

	{Name: "engine.execute_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "engine.rows_examined_per_result", Unit: "ratio", Better: "lower"},
	{Name: "engine.cte_rows_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.scan_share_pct", Unit: "%", Better: "lower"},
	{Name: "engine.join_share_pct", Unit: "%", Better: "lower"},
	{Name: "engine.agg_sort_share_pct", Unit: "%", Better: "lower"},
	{Name: "engine.max_workers", Unit: "count", Better: "higher"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.plan_variants_per_op", Unit: "count", Better: "lower"},

	{Name: "rel.probe_us", Unit: "us", Better: "lower"},
	{Name: "rel.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "rel.encode_key_ns", Unit: "ns", Better: "lower"},
	{Name: "rel.gc_backlog", Unit: "count", Better: "lower"},

	{Name: "btree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.set_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.ascend_range_ns_per_key", Unit: "ns", Better: "lower"},

	{Name: "sqljson.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "sqljson.val_ns", Unit: "ns", Better: "lower"},

	{Name: "stats.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.version_bumps", Unit: "count", Better: "lower"},

	{Name: "wal.append_commit_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_share_pct", Unit: "%", Better: "lower"},
	{Name: "wal.commit_wait_share_pct", Unit: "%", Better: "lower"},
	{Name: "wal.fsyncs_per_mutation", Unit: "ratio", Better: "lower"},
	{Name: "wal.flush_records_mean", Unit: "count", Better: "higher"},
	{Name: "wal.log_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "durable.write_read_p50_ratio", Unit: "ratio", Better: "lower"},
	{Name: "durable.recovery_rows_per_s", Unit: "1/s", Better: "higher"},

	{Name: "process.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "process.gc_pause_mean_us", Unit: "us", Better: "lower"},
	{Name: "process.gc_pause_max_us", Unit: "us", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "bench.client_net_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect turns measured values into the metrics object for defs. A
// value that was not measured, or is not finite, reads 0.
func collect(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// percentile returns the p-th percentile (nearest rank) of sorted, and
// whether the sample supports it: at least ten samples lie at or beyond
// it, so one outlier cannot be the answer.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n-rank >= 10
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, the run-to-run spread the contract gates on
// (Python's statistics.quantiles(values, n=4), exclusive method).
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
