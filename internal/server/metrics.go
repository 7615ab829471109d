package server

import (
	"io"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlgraph/internal/engine"
	"sqlgraph/internal/metrics"
	"sqlgraph/internal/trace"
)

// latencyBuckets are the histogram upper bounds in seconds (powers of
// four from 250µs to ~16s, plus +Inf). Coarse on purpose: the histogram
// is for spotting saturation, the load harness measures exact quantiles.
var latencyBuckets = []float64{0.00025, 0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384}

// materializedRowsBuckets are the upper bounds of the per-query stored-rows
// histogram: powers of ten from one row to ten million.
var materializedRowsBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// pauseBuckets are the upper bounds of the GC pause histogram in seconds
// (powers of four from 16µs to ~65ms).
var pauseBuckets = []float64{0.000016, 0.000064, 0.000256, 0.001024, 0.004096, 0.016384, 0.065536}

// telemetry is the serving layer's view over the metrics registry: typed
// handles for the counters the request path touches, plus registered
// callbacks that scrape the store's own atomic counters (trace recorder,
// MVCC, plan cache, WAL) live. Everything /metrics serves is rendered
// from the registry, so every series carries HELP/TYPE and appears in
// /debug/history samples under the same name.
type telemetry struct {
	reg *metrics.Registry

	requests *metrics.CounterVec   // route, code
	latency  *metrics.HistogramVec // per-route request latency
	stages   *metrics.HistogramVec // query stage (parse|translate|plan|execute) latency

	admitted      *metrics.Counter
	rejected      *metrics.Counter // 429s
	shutdownDrops *metrics.Counter // 503s during drain
	panics        *metrics.Counter

	queries     *metrics.Counter
	queryErrors *metrics.Counter
	scanOps     *metrics.Counter
	scanRows    *metrics.Counter
	joins       *metrics.CounterVec // strategy
	joinRows    *metrics.Counter
	matRows     *metrics.Histogram // rows one query's operators stored
	maxFanout   atomic.Int64       // high-water morsel parallelism, rendered as a gauge

	// replicaOnce guards the follower gauge registration: AttachReplica
	// runs again after a replicator restart, but each series registers
	// exactly once (the callbacks read the current replicator).
	replicaOnce sync.Once
}

// newTelemetry builds the registry and registers every series. Gauges
// and store-derived counters read through s.st() at scrape time so they
// follow replica store swaps; nothing is mirrored.
func newTelemetry(s *Server) *telemetry {
	reg := metrics.NewRegistry()
	t := &telemetry{reg: reg}

	t.requests = reg.CounterVec("sqlgraphd_requests_total",
		"HTTP requests finished, by route and status code.", "route", "code")
	t.latency = reg.HistogramVec("sqlgraphd_request_seconds",
		"HTTP request latency in seconds, by route.", latencyBuckets, "route")
	t.stages = reg.HistogramVec("sqlgraphd_query_stage_seconds",
		"Query stage latency in seconds (parse, translate, plan, execute).", latencyBuckets, "stage")

	t.admitted = reg.Counter("sqlgraphd_admission_admitted_total",
		"Requests admitted past the concurrency gate.")
	t.rejected = reg.Counter("sqlgraphd_admission_rejected_total",
		"Requests rejected 429 because the admission queue was full.")
	t.shutdownDrops = reg.Counter("sqlgraphd_shutdown_rejected_total",
		"Requests rejected 503 during shutdown drain.")
	t.panics = reg.Counter("sqlgraphd_panics_total",
		"Panics recovered in request handling.")

	t.queries = reg.Counter("sqlgraphd_queries_total",
		"Gremlin queries executed (including failures).")
	t.queryErrors = reg.Counter("sqlgraphd_query_errors_total",
		"Gremlin queries that returned an error.")
	t.scanOps = reg.Counter("sqlgraphd_exec_scans_total",
		"Relational scan operators executed.")
	t.scanRows = reg.Counter("sqlgraphd_exec_scan_rows_total",
		"Rows read by scan operators.")
	t.joins = reg.CounterVec("sqlgraphd_exec_joins_total",
		"Join operators executed, by strategy.", "strategy")
	t.joinRows = reg.Counter("sqlgraphd_exec_join_rows_total",
		"Rows produced by join operators.")
	t.matRows = reg.Histogram("sqlgraphd_exec_materialized_rows",
		"Rows one query's operators stored (multi-reader CTEs, DISTINCT and aggregate outputs, hash-join and sort inputs); rows that only flowed through a pipeline are not counted.",
		materializedRowsBuckets)
	reg.GaugeFunc("sqlgraphd_exec_max_workers",
		"High-water morsel-parallel worker count observed in one query.",
		func() float64 { return float64(t.maxFanout.Load()) })

	// Serving-layer gauges.
	reg.GaugeFunc("sqlgraphd_in_flight",
		"Requests currently admitted and executing.",
		func() float64 { return float64(s.adm.InFlight()) })
	reg.GaugeFunc("sqlgraphd_admission_queued",
		"Requests waiting for admission.",
		func() float64 { return float64(s.adm.Queued()) })
	reg.GaugeFunc("sqlgraphd_sessions_open",
		"Open snapshot sessions.",
		func() float64 { return float64(s.sess.Open()) })

	// MVCC: snapshot pins and version GC. A growing oldest-pin age or GC
	// backlog means some reader is holding back physical reclamation.
	reg.GaugeFunc("sqlgraphd_snapshot_pins",
		"Distinct store versions pinned by open snapshots.",
		func() float64 { return float64(s.st().PinnedSnapshots()) })
	reg.GaugeFunc("sqlgraphd_mvcc_oldest_pin_age_seconds",
		"Age of the longest-held snapshot pin in seconds (0 when nothing is pinned).",
		func() float64 { return s.st().OldestPinAge().Seconds() })
	reg.GaugeFunc("sqlgraphd_mvcc_gc_backlog_records",
		"Version-GC garbage records queued, waiting for pins to advance.",
		func() float64 { return float64(s.st().GCStats().Backlog) })
	reg.CounterFunc("sqlgraphd_mvcc_gc_applied_total",
		"Version-GC garbage records applied (index entries, slots, history chains).",
		func() float64 { return float64(s.st().GCStats().Applied) })
	reg.CounterFunc("sqlgraphd_mvcc_gc_reclaimed_rows_total",
		"Heap row slots physically reclaimed by version GC.",
		func() float64 { return float64(s.st().GCStats().ReclaimedRows) })

	// Plan and prepared-statement caches.
	reg.CounterFunc("sqlgraphd_plan_cache_hits_total",
		"SQL plan cache hits.",
		func() float64 { return float64(s.st().PlanCacheStats().Hits) })
	reg.CounterFunc("sqlgraphd_plan_cache_misses_total",
		"SQL plan cache misses (statement planned for the first time).",
		func() float64 { return float64(s.st().PlanCacheStats().Misses) })
	reg.CounterFunc("sqlgraphd_plan_cache_invalidations_total",
		"SQL plan cache entries discarded for a stale statistics version or changed execution stamp.",
		func() float64 { return float64(s.st().PlanCacheStats().Invalidations) })
	reg.CounterFunc("sqlgraphd_prepared_cache_hits_total",
		"Queries whose shape had a prepared statement (translation and SQL parse skipped, literals bound).",
		func() float64 { h, _ := s.st().PreparedCacheStats(); return float64(h) })
	reg.CounterFunc("sqlgraphd_prepared_cache_misses_total",
		"Queries of a shape seen for the first time (one translation and one SQL parse).",
		func() float64 { _, m := s.st().PreparedCacheStats(); return float64(m) })
	reg.GaugeFunc("sqlgraphd_prepared_statements",
		"Query shapes holding a prepared statement.",
		func() float64 { return float64(s.st().PreparedStatements()) })

	// Slow queries and the write path, scraped from the trace recorder's
	// atomic counters.
	reg.CounterFunc("sqlgraphd_slow_queries_total",
		"Traces that crossed the slow-query threshold.",
		func() float64 { return float64(s.st().Tracer().SlowCount()) })
	ws := func() trace.WriteStats { return s.st().Tracer().WriteStats() }
	reg.CounterFunc("sqlgraphd_wal_appends_total",
		"WAL records appended.",
		func() float64 { return float64(ws().WALAppends) })
	reg.CounterFunc("sqlgraphd_wal_append_seconds_total",
		"Total seconds spent appending WAL records.",
		func() float64 { return float64(ws().WALAppendNs) / 1e9 })
	reg.CounterFunc("sqlgraphd_wal_fsyncs_total",
		"Physical WAL flush+fsync operations (group commits).",
		func() float64 { return float64(ws().WALFsyncs) })
	reg.CounterFunc("sqlgraphd_wal_fsync_seconds_total",
		"Total seconds spent in WAL flush+fsync.",
		func() float64 { return float64(ws().WALFsyncNs) / 1e9 })
	reg.GaugeFunc("sqlgraphd_wal_buffered_records",
		"WAL records appended but not yet flushed (group-commit backpressure).",
		func() float64 { return float64(s.st().WALBuffered()) })

	// Records-per-fsync histogram: the group-commit batch size. sum /
	// count is the mean records amortized per physical sync.
	flushBounds := make([]float64, len(trace.FlushBatchBuckets))
	for i, b := range trace.FlushBatchBuckets {
		flushBounds[i] = float64(b)
	}
	reg.HistogramFunc("sqlgraphd_wal_flush_records",
		"Records covered per physical WAL flush (group-commit batch size).",
		flushBounds, func() metrics.HistSnapshot {
			st := ws()
			h := metrics.HistSnapshot{Counts: st.WALFlushSizes[:], Sum: float64(st.WALFlushRecords)}
			for _, c := range st.WALFlushSizes {
				h.Count += c
			}
			return h
		})
	// Flush latency histogram: how long each group commit's write+fsync
	// took (named _flush_seconds to stay distinct from the
	// _fsync_seconds_total running sum above).
	reg.HistogramFunc("sqlgraphd_wal_flush_seconds",
		"Latency of physical WAL flush+fsync operations in seconds.",
		trace.FsyncLatencyBuckets[:], func() metrics.HistSnapshot {
			st := ws()
			return metrics.HistSnapshot{
				Counts: st.WALFsyncLatencies[:],
				Sum:    float64(st.WALFsyncNs) / 1e9,
				Count:  st.WALFsyncs,
			}
		})

	reg.CounterFunc("sqlgraphd_checkpoints_total",
		"Checkpoints completed (snapshot dump + log swap).",
		func() float64 { return float64(ws().Checkpoints) })
	reg.CounterFunc("sqlgraphd_checkpoint_seconds_total",
		"Total seconds spent checkpointing, nearly all of it in the background beside the writers.",
		func() float64 { return float64(ws().CheckpointNs) / 1e9 })
	reg.CounterFunc("sqlgraphd_checkpoint_exclusive_seconds_total",
		"Seconds of checkpointing during which writers were excluded (pin section + install section).",
		func() float64 { return float64(ws().CheckpointExclusiveNs) / 1e9 })
	reg.CounterFunc("sqlgraphd_checkpoint_errors_total",
		"Checkpoints that failed; an automatic checkpoint's error reaches no writer, only this counter and the event journal.",
		func() float64 { return float64(ws().CheckpointErrors) })
	reg.CounterFunc("sqlgraphd_vacuums_total",
		"Vacuum passes completed.",
		func() float64 { return float64(ws().Vacuums) })
	reg.CounterFunc("sqlgraphd_vacuum_seconds_total",
		"Total seconds spent vacuuming.",
		func() float64 { return float64(ws().VacuumNs) / 1e9 })

	// Primary-side replication: one lag series per connected /wal stream,
	// measured as records the primary has committed but not yet sent to
	// that follower.
	reg.GaugeFunc("sqlgraphd_wal_streams_active",
		"Open /wal replication streams.",
		func() float64 {
			n := 0
			s.walStreams.Range(func(_, _ any) bool { n++; return true })
			return float64(n)
		})
	reg.CounterFunc("sqlgraphd_wal_streams_total",
		"Total /wal replication streams ever opened.",
		func() float64 { return float64(s.walStreamSeq.Load()) })
	reg.GaugeVecFunc("sqlgraphd_wal_stream_lag_records",
		"Committed records not yet sent to each follower's /wal stream.",
		[]string{"peer"}, func() []metrics.LabeledValue {
			applied := s.st().AppliedLSN()
			var out []metrics.LabeledValue
			s.walStreams.Range(func(_, v any) bool {
				st := v.(*walStreamInfo)
				lag := float64(0)
				if sent := st.sentLSN.Load(); applied > sent {
					lag = float64(applied - sent)
				}
				out = append(out, metrics.LabeledValue{Values: []string{st.peer}, Value: lag})
				return true
			})
			return out
		})

	// Go runtime, read from runtime/metrics at scrape time: the samples the
	// benchmark harness reads, so a live daemon and the ledger report the
	// same quantities (process.gc_cpu_pct is gc ÷ (gc + user) CPU seconds
	// over a window, and `sqlgraph top` computes it the same way).
	reg.GaugeFunc("sqlgraphd_go_heap_live_bytes",
		"Heap bytes marked live by the last GC cycle (/gc/heap/live:bytes).",
		func() float64 { return runtimeValue("/gc/heap/live:bytes") })
	reg.GaugeFunc("sqlgraphd_go_goroutines",
		"Live goroutines (/sched/goroutines:goroutines).",
		func() float64 { return runtimeValue("/sched/goroutines:goroutines") })
	reg.CounterFunc("sqlgraphd_go_gc_cpu_seconds_total",
		"Estimated CPU seconds spent in the garbage collector, updated at each GC (/cpu/classes/gc/total:cpu-seconds).",
		func() float64 { return runtimeValue("/cpu/classes/gc/total:cpu-seconds") })
	reg.CounterFunc("sqlgraphd_go_user_cpu_seconds_total",
		"Estimated CPU seconds spent running Go code, updated at each GC (/cpu/classes/user:cpu-seconds).",
		func() float64 { return runtimeValue("/cpu/classes/user:cpu-seconds") })
	reg.HistogramFunc("sqlgraphd_go_gc_pause_seconds",
		"Stop-the-world GC pause latency in seconds (/sched/pauses/total/gc:seconds); the sum is estimated from bucket midpoints.",
		pauseBuckets, gcPauses)

	return t
}

// runtimeValue reads one scalar runtime/metrics sample (0 if this Go
// release does not have it).
func runtimeValue(name string) float64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	switch s[0].Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case rtmetrics.KindFloat64:
		return s[0].Value.Float64()
	default:
		return 0
	}
}

// gcPauses folds the runtime's fine-grained pause histogram into
// pauseBuckets. Each runtime bucket is counted at its upper edge, so a
// bound still bounds every pause below it.
func gcPauses() metrics.HistSnapshot {
	out := metrics.HistSnapshot{Counts: make([]uint64, len(pauseBuckets)+1)}
	s := []rtmetrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return out
	}
	h := s[0].Value.Float64Histogram()
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		out.Counts[sort.SearchFloat64s(pauseBuckets, hi)] += c
		out.Count += c
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		out.Sum += mid * float64(c)
	}
	return out
}

// registerReplica adds the follower-side replication gauges on the
// first AttachReplica; later calls (replicator restarts) are no-ops
// because status already follows the server's current replicator.
func (t *telemetry) registerReplica(status func() ReplicaStatus) {
	t.replicaOnce.Do(func() { t.registerReplicaGauges(status) })
}

func (t *telemetry) registerReplicaGauges(status func() ReplicaStatus) {
	t.reg.GaugeFunc("sqlgraphd_replica_applied_lsn",
		"Last LSN applied by this follower.",
		func() float64 { return float64(status().AppliedLSN) })
	t.reg.GaugeFunc("sqlgraphd_replica_primary_lsn",
		"Last LSN advertised by the primary.",
		func() float64 { return float64(status().PrimaryLSN) })
	t.reg.GaugeFunc("sqlgraphd_replica_lag_seconds",
		"Staleness bound in seconds on reads this follower serves (0 when caught up).",
		func() float64 { return status().LagSeconds })
	t.reg.GaugeFunc("sqlgraphd_replica_connected",
		"1 while the /wal stream to the primary is up.",
		func() float64 {
			if status().Connected {
				return 1
			}
			return 0
		})
	t.reg.CounterFunc("sqlgraphd_replica_reconnects_total",
		"Successful connections to the primary's /wal stream.",
		func() float64 { return float64(status().Reconnects) })
	t.reg.CounterFunc("sqlgraphd_replica_resyncs_total",
		"Full re-bootstraps from the primary's snapshot.",
		func() float64 { return float64(status().Resyncs) })
}

// observeRequest records one finished HTTP request.
func (t *telemetry) observeRequest(route string, code int, d time.Duration) {
	t.requests.With(route, strconv.Itoa(code)).Add(1)
	t.latency.Observe(d.Seconds(), route)
}

// observeExec folds one query's executor statistics into the aggregates.
func (t *telemetry) observeExec(stats *engine.ExecStats, err error) {
	t.queries.Inc()
	if err != nil {
		t.queryErrors.Inc()
		return
	}
	for _, sc := range stats.Scans {
		t.scanOps.Inc()
		t.scanRows.Add(uint64(sc.RowsIn))
	}
	for _, j := range stats.Joins {
		t.joins.With(string(j.Strategy)).Add(1)
		t.joinRows.Add(uint64(j.OutRows))
	}
	t.matRows.Observe(float64(stats.MaterializedRows))
	w := int64(stats.MaxWorkers())
	for {
		cur := t.maxFanout.Load()
		if w <= cur || t.maxFanout.CompareAndSwap(cur, w) {
			break
		}
	}
}

// observeTrace folds one query trace's stage timings (parse, translate,
// plan, execute — the root span's direct children) into the per-stage
// latency histograms.
func (t *telemetry) observeTrace(tr *trace.Trace) {
	if tr == nil || tr.Root == nil {
		return
	}
	for _, sp := range tr.Root.Children {
		t.stages.Observe(time.Duration(sp.DurNs).Seconds(), sp.Name)
	}
}

func (t *telemetry) addPanic()        { t.panics.Inc() }
func (t *telemetry) addAdmitted()     { t.admitted.Inc() }
func (t *telemetry) addRejected()     { t.rejected.Inc() }
func (t *telemetry) addShutdownDrop() { t.shutdownDrops.Inc() }

// write renders the Prometheus text exposition format from the registry.
func (t *telemetry) write(w io.Writer) { t.reg.WritePrometheus(w) }
