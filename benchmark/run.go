package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/bench/experiments"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/trace"
)

// workload names one traffic shape and why it exists (BENCHMARK.json
// carries the same sentences).
type workload struct {
	name    string
	clients int
	hot     bool // requests repeat, so the prepared and plan caches hit
	setup   func(name string, sc scale, spans *spanLog, tmpRoot string) (instance, error)
	why     string
}

var workloads = []workload{
	{"traverse_hot", 1, true, setupDBpedia, "24 fixed id-anchored traversals, every cache hits: engine joins, CTE chains and result encoding do the work"},
	{"adhoc_cold", 1, false, setupDBpedia, "every text distinct, every cache misses: gremlin parse, translate, sql parse and planning run per request"},
	{"scan_agg", 1, true, setupDBpedia, "8 fixed whole-table filters, sorts and groupings: rel scans, JSON_VAL per row and morsel workers, no index"},
	{"linkbench_rw", lbClients, false, setupLinkbench, "LinkBench Table-6 mix, 31% durable writes, 2 clients: core procedures, rel txns, WAL fsync, checkpoints, recovery"},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one set-up workload.
type instance interface {
	base() *env
	// prepare computes what the harness needs to check answers. It is
	// not part of setup_s: it is the harness's work, not the system's.
	prepare() error
	sources() []source
	boundary() (atBoundary func(client, done int) bool, cycleEnd func() bool)
	// verify checks answers that could not be checked request by request.
	verify() (checked, failed int, firstErr error)
	traceOps() int
	traceSource(level int) source
	// finish runs the workload's end-of-run checks (crash and recovery).
	finish(*report) error
}

// scale sizes a run. full is what BENCHMARK.json measures; tiny is the
// smoke test's.
type scale struct {
	seed         int64
	dbpedia      dbpedia.Config
	lbObjects    int
	warmOps      int            // ad-hoc requests, or LinkBench ops per client, before the window
	tracedOps    int            // traced sample of the workloads whose requests never repeat
	tracedCycles map[string]int // traced sample of the fixed-cycle workloads, in whole cycles
}

var fullScale = scale{
	dbpedia:   experiments.DBpediaConfig(experiments.ScaleLarge),
	lbObjects: 20000,
	warmOps:   2000,
	tracedOps: 2000,
	// One cycle of traverse_hot costs ~1.8 s per level, one of scan_agg
	// ~0.4 s; three levels each.
	tracedCycles: map[string]int{"traverse_hot": 3, "scan_agg": 8},
}

var tinyScale = scale{
	dbpedia:      experiments.DBpediaConfig(experiments.ScaleTiny),
	lbObjects:    400,
	warmOps:      20,
	tracedOps:    50,
	tracedCycles: map[string]int{"traverse_hot": 2, "scan_agg": 6},
}

// seedFor derives independent generator seeds from the run's seed.
func (sc scale) seedFor(stream int) int64 { return sc.seed*1_000_003 + int64(stream) }

// report is everything one run measured.
type report struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Traced   bool       `json:"traced"`
	Result   resultLine `json:"result"`
	// Samples is the number of observations behind each timing.
	Samples map[string]int `json:"samples"`
	// Detail holds numbers that are not contract metrics: the read and
	// write split, per-kind medians, recovery time.
	Detail map[string]float64 `json:"detail"`
	Notes  []string           `json:"notes,omitempty"`
	Error  string             `json:"error,omitempty"`

	checked  int
	failed   int
	firstErr error
}

// counters is a reading of every monotonic counter a window is measured
// between.
type counters struct {
	mem           runtime.MemStats
	gcCPU, useCPU float64
	ru            syscall.Rusage
	hits, misses  uint64
	tails         uint64
	plan          engine.PlanCacheStats
	ws            trace.WriteStats
	statsVersion  uint64
}

func readCounters(e *env) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.useCPU = s[1].Value.Float64()
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &c.ru)
	c.hits, c.misses = e.store.PreparedCacheStats()
	c.tails = e.store.TailQueries()
	c.plan = e.store.PlanCacheStats()
	c.ws = e.store.Tracer().WriteStats()
	c.statsVersion = e.store.OptimizerStats().StatsVersion()
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's high-water resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runOne sets a workload up, measures it for the given time, checks its
// answers and, when traced, runs the traced pass and the probes. It
// removes whatever it created under tmpRoot.
func runOne(name string, seed int64, seconds float64, traced bool, sc scale, outDir string) (rep *report, err error) {
	wl, ok := workloadNamed(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if wl.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("workload %s drives %d clients but this host has %d CPUs: the load generator would compete with itself", name, wl.clients, runtime.NumCPU())
	}
	sc.seed = seed
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmpRoot, err := os.MkdirTemp(outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpRoot)

	rep = &report{Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Samples: map[string]int{}, Detail: map[string]float64{}}
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	// One set-up per run: it costs 4 to 10 s of a run that has about 30,
	// and a second one would come out of the measured window.
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	t0 := time.Now()
	in, err := wl.setup(name, sc, spans, tmpRoot)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { in.base().close() }()
	setupS := time.Since(t0).Seconds()
	if err := in.prepare(); err != nil {
		return nil, err
	}
	e := in.base()
	vals := map[string]float64{}

	// The timed window, tracing off.
	atBoundary, cycleEnd := in.boundary()
	before := readCounters(e)
	win := runWindow(e, cal, in.sources(), time.Duration(seconds*float64(time.Second)), atBoundary, cycleEnd)
	after := readCounters(e)
	rep.Samples["calibration"] = len(cal.samples)
	f := cal.factor()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	rep.failed, rep.firstErr = win.failed, win.firstErr
	checked, vfailed, verr := in.verify()
	rep.checked += checked
	rep.failed += vfailed
	if rep.firstErr == nil {
		rep.firstErr = verr
	}
	succeeded := win.attempted - win.failed
	if succeeded <= 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", win.firstErr)
	}

	var ts *traceSample
	if traced {
		ts = tracedPass(in, wl.hot)
		rep.failed += ts.failed
		if rep.firstErr == nil {
			rep.firstErr = ts.firstErr
		}
		if err := runProbes(in, ts, tmpRoot, vals); err != nil {
			return nil, err
		}
	}
	if err := in.finish(rep); err != nil {
		return nil, err
	}
	e = in.base()

	// End to end. Wall-clock metrics are reported in reference seconds
	// (see calibrate.go); the raw values are in the detail.
	d := rep.Detail
	// A kind's latency is its lower quartile: what a request of that kind
	// takes when no collection cycle or checkpoint runs beside it. With
	// five to twenty samples per kind and a collector busy a third of the
	// time, the median of a kind flips between the two cases from run to
	// run; what collections and checkpoints cost shows in ops_per_s.
	var kindUs []float64
	for k, v := range win.byKindUs {
		slices.Sort(v)
		q1, _ := percentile(v, 25)
		kindUs = append(kindUs, q1)
		d["q1_us."+k] = q1
		rep.Samples["q1_us."+k] = len(v)
	}
	slices.Sort(kindUs)
	slowest := kindUs[len(kindUs)-(len(kindUs)+3)/4:]
	rawOps := float64(succeeded) / win.elapsed.Seconds()
	vals["setup_s"] = setupS * f
	vals["ops_per_s"] = rawOps / f
	vals["typical_us"] = geomean(kindUs) * f
	vals["slow_kinds_us"] = geomean(slowest) * f
	vals["alloc_kb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(win.attempted)
	vals["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	vals["stored_bytes_per_user_byte"] = ratio(float64(e.store.TotalBytes()), float64(e.userBytes))
	rep.Samples["typical_us"] = len(kindUs)
	rep.Samples["slow_kinds_us"] = len(slowest)
	rep.Samples["reads"] = len(win.readUs)
	rep.Samples["writes"] = len(win.writeUs)

	d["speed_factor"] = f
	d["raw_setup_s"] = setupS
	d["raw_ops_per_s"] = rawOps
	d["window_s"] = win.elapsed.Seconds()
	d["checkpoints"] = float64(after.ws.Checkpoints - before.ws.Checkpoints)
	d["gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	d["cpu_user_ms_per_op"] = float64(after.ru.Utime.Nano()-before.ru.Utime.Nano()) / 1e6 / float64(win.attempted)
	d["cpu_sys_ms_per_op"] = float64(after.ru.Stime.Nano()-before.ru.Stime.Nano()) / 1e6 / float64(win.attempted)
	for _, p := range []float64{50, 90, 99} {
		name := fmt.Sprintf("p%.0f_us", p)
		var supported bool
		if d["raw_"+name], supported = percentile(win.allUs, p); !supported {
			rep.Notes = append(rep.Notes, fmt.Sprintf("raw_%s rests on %d samples, fewer than ten at or beyond it", name, len(win.allUs)))
		}
		d["raw_read_"+name], _ = percentile(win.readUs, p)
		if len(win.writeUs) > 0 {
			d["raw_write_"+name], _ = percentile(win.writeUs, p)
		}
	}
	d["error_rate"] = ratio(float64(rep.failed), float64(win.attempted))

	if traced {
		windowMetrics(win, &before, &after, vals, rep)
		traceMetrics(ts, vals, rep)
		vals["core.load_s"] = e.loadS
		vals["process.peak_rss_mb"] = peakRSSMB()
		if err := writeTrace(outDir, rep, e.spans); err != nil {
			return nil, err
		}
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep.Result = resultLine{
		Correct:   rep.failed == 0,
		Attempted: win.attempted,
		Failed:    rep.failed,
		Metrics:   collect(defs, vals),
	}
	if rep.firstErr != nil {
		rep.Error = rep.firstErr.Error()
	}
	return rep, nil
}

// windowMetrics derives the per-layer figures that are differences of
// the program's own counters across the untraced window.
func windowMetrics(win *window, before, after *counters, vals map[string]float64, rep *report) {
	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	vals["core.prepared_hit_ratio"] = ratio(hits, hits+misses)
	vals["core.tail_queries"] = float64(after.tails - before.tails)
	ph, pm := float64(after.plan.Hits-before.plan.Hits), float64(after.plan.Misses-before.plan.Misses)
	vals["engine.plan_cache_hit_ratio"] = ratio(ph, ph+pm)
	vals["stats.version_bumps"] = float64(after.statsVersion - before.statsVersion)

	ws0, ws1 := before.ws, after.ws
	appends := float64(ws1.WALAppends - ws0.WALAppends)
	fsyncs := float64(ws1.WALFsyncs - ws0.WALFsyncs)
	vals["core.checkpoints"] = float64(ws1.Checkpoints - ws0.Checkpoints)
	vals["core.checkpoint_stall_pct"] = 100 * float64(ws1.CheckpointNs-ws0.CheckpointNs) / float64(win.elapsed.Nanoseconds())
	vals["wal.fsyncs_per_mutation"] = ratio(fsyncs, appends)
	vals["wal.flush_records_mean"] = ratio(float64(ws1.WALFlushRecords-ws0.WALFlushRecords), fsyncs)
	frame := rep.Detail["wal_frame_bytes_mean"]
	vals["wal.log_bytes"] = appends * frame
	written := appends*frame + vals["core.checkpoints"]*rep.Detail["snapshot_bytes"]
	vals["wal.bytes_per_user_byte"] = ratio(written, float64(win.writeBytes))
	vals["durable.recovery_rows_per_s"] = ratio(rep.Detail["recovered_rows"], rep.Detail["recovery_s"])
	vals["durable.write_read_p50_ratio"] = ratio(rep.Detail["raw_write_p50_us"], rep.Detail["raw_read_p50_us"])
	rep.Detail["wal_appends"] = appends
	rep.Detail["wal_fsyncs"] = fsyncs
	if appends > 0 {
		rep.Detail["wal_append_us"] = float64(ws1.WALAppendNs-ws0.WALAppendNs) / appends / 1e3
		rep.Detail["wal_commit_wait_us"] = float64(ws1.WALFsyncNs-ws0.WALFsyncNs) / appends / 1e3
	}
	if n := ws1.Checkpoints - ws0.Checkpoints; n > 0 {
		rep.Detail["checkpoint_ms"] = float64(ws1.CheckpointNs-ws0.CheckpointNs) / float64(n) / 1e6
	}

	gc := after.gcCPU - before.gcCPU
	vals["process.gc_cpu_pct"] = 100 * ratio(gc, gc+after.useCPU-before.useCPU)
	cycles := after.mem.NumGC - before.mem.NumGC
	vals["process.gc_pause_mean_us"] = ratio(float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e3, float64(cycles))
	maxPause := uint64(0)
	for i := uint32(0); i < min(cycles, 256); i++ {
		maxPause = max(maxPause, after.mem.PauseNs[(after.mem.NumGC-i+255)%256])
	}
	vals["process.gc_pause_max_us"] = float64(maxPause) / 1e3
}

// traceMetrics derives the per-layer figures of the traced pass.
func traceMetrics(ts *traceSample, vals map[string]float64, rep *report) {
	times := map[string]byKind{
		"server.handler_us": ts.handlerUs, "bench.client_net_us": ts.netUs, "core.query_us": ts.coreQuery,
		"gremlin.parse_us": ts.parseUs, "translate.translate_us": ts.translateUs, "sql.parse_us": ts.sqlParseUs,
		"engine.execute_us": ts.executeUs,
	}
	for name, b := range times {
		vals[name] = b.perOp()
		rep.Samples[name] = b.n()
	}
	vals["server.self_us"] = median(ts.serverSelf)
	vals["core.query_self_us"] = median(ts.coreSelf)
	rep.Samples["server.self_us"] = len(ts.serverSelf)
	rep.Samples["core.query_self_us"] = len(ts.coreSelf)
	vals["server.response_bytes_per_op"] = mean(ts.respBytes)
	vals["translate.sql_bytes"] = mean(ts.sqlBytes)
	vals["translate.ctes_per_query"] = mean(ts.ctes)
	nq := float64(max(ts.executeUs.n(), 1))
	vals["engine.allocs_per_op"] = ts.engineAllocs / nq
	vals["engine.alloc_kb_per_op"] = ts.engineAllocKB / nq
	vals["engine.rows_examined_per_result"] = ratio(float64(ts.examined), float64(ts.results))
	vals["engine.cte_rows_per_op"] = float64(ts.cteRows) / nq
	vals["engine.scan_share_pct"] = 100 * ratio(float64(ts.scanNs), float64(ts.executeNs))
	vals["engine.join_share_pct"] = 100 * ratio(float64(ts.joinNs), float64(ts.executeNs))
	vals["engine.agg_sort_share_pct"] = 100 * ratio(float64(ts.aggSortNs), float64(ts.executeNs))
	vals["engine.max_workers"] = float64(ts.maxWorkers)
	vals["engine.plan_variants_per_op"] = mean(ts.planVariants)
}

// runProbes measures the layers below the engine and the server's
// refusals, after the traced pass, on the quiescent store.
func runProbes(in instance, ts *traceSample, tmpRoot string, vals map[string]float64) error {
	e := in.base()
	if err := probeFrontEnd(e, ts.texts, vals); err != nil {
		return fmt.Errorf("probe: front end: %w", err)
	}
	if err := probeRel(e, vals); err != nil {
		return err
	}
	probeBtree(e, vals)
	if err := probeSqljson(e, vals); err != nil {
		return fmt.Errorf("probe: sqljson: %w", err)
	}
	if err := probeWAL(e, tmpRoot, vals); err != nil {
		return fmt.Errorf("probe: wal: %w", err)
	}
	if err := probeCore(e, vals); err != nil {
		return err
	}
	t0 := time.Now()
	if err := e.store.RefreshStats(); err != nil {
		return fmt.Errorf("probe: stats: %w", err)
	}
	vals["stats.rebuild_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	rejected, err := serverRejected(e)
	if err != nil {
		return err
	}
	vals["server.rejected"] = rejected
	vals["bench.trace_overhead_pct"], err = traceOverhead(e, 400)
	return err
}

// serverRejected reads the admission refusals (429) and shutdown drops
// (503) off the server's own /metrics.
func serverRejected(e *env) (float64, error) {
	c := &caller{e: e}
	total := 0.0
	o := op{kind: "metrics", method: "GET", path: "/metrics", check: func(status int, body []byte) error {
		if status != 200 {
			return fmt.Errorf("GET /metrics: status %d", status)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "sqlgraphd_admission_rejected_total") || strings.HasPrefix(line, "sqlgraphd_shutdown_dropped_total") {
				if f := strings.Fields(line); len(f) == 2 {
					v, _ := strconv.ParseFloat(f[1], 64)
					total += v
				}
			}
		}
		return nil
	}}
	_, _, err := c.do(&o, -1)
	return total, err
}

// traceFile is the layout of out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Levels   string `json:"levels"`
	Spans    []span `json:"spans"`
}

func writeTrace(outDir string, rep *report, l *spanLog) error {
	if err := checkSpans(l.spans); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	b, err := json.Marshal(traceFile{
		Workload: rep.Workload, Seed: rep.Seed,
		Levels: "0 = HTTP round trip with the handler inside it; 1 = the core call, replayed; 2 = core's stage calls, replayed. See README.md.",
		Spans:  l.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, rep.Workload+".trace.json"), b, 0o644)
}

// print writes every metric by name with its unit, then the samples and
// the detail.
func (rep *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0f s  traced=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Result.Metrics[d.Name]
		n := ""
		if c, ok := rep.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-6s%s\n", d.Name, m.Value, m.Unit, n)
	}
	keys := make([]string, 0, len(rep.Detail))
	for k := range rep.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "  detail:")
	for _, k := range keys {
		fmt.Fprintf(w, "    %-34s %16.4f\n", k, rep.Detail[k])
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  checked-after %d\n", rep.Result.Attempted, rep.Result.Failed, rep.checked)
	if rep.Error != "" {
		fmt.Fprintln(w, "  first error:", rep.Error)
	}
}
