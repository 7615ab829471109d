package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlgraph/internal/core"
)

// TestMetricsRegistryCompleteness is the drop-on-rename lint: every
// metric registered in the process appears in /metrics with exactly one
// TYPE line (and at least one series), so a renamed or unplugged metric
// cannot silently vanish from the exposition.
func TestMetricsRegistryCompleteness(t *testing.T) {
	env := newTestEnv(t, Config{})
	_, body := env.doJSON(t, "GET", "/metrics", nil)
	text := string(body)
	names := env.srv.met.reg.Names()
	if len(names) < 40 {
		t.Fatalf("suspiciously few registered metrics: %d", len(names))
	}
	for _, name := range names {
		if got := strings.Count(text, "# TYPE "+name+" "); got != 1 {
			t.Errorf("metric %s has %d TYPE lines, want 1", name, got)
		}
		if got := strings.Count(text, "# HELP "+name+" "); got != 1 {
			t.Errorf("metric %s has %d HELP lines, want 1", name, got)
		}
		// At least one sample line for the metric family (vectors with no
		// children yet are the only legitimate zero-series families).
		re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(name) + "(_bucket|_sum|_count)?(\\{|\\s)")
		if !re.MatchString(text) && !strings.Contains(text, "# TYPE "+name) {
			t.Errorf("metric %s emits no series", name)
		}
	}
}

// TestDebugEventsLifecycle drives a checkpoint, a vacuum, and a slow
// query against a durable store and asserts all three appear in
// /debug/events in order (newest first), in both JSON and text form.
func TestDebugEventsLifecycle(t *testing.T) {
	dir := t.TempDir()
	store, err := core.Load(figure2a(t), core.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// SlowQuery threshold 1ns: every query is slow.
	srv := New(store, Config{Logger: quietLog, SlowQuery: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	env := &testEnv{store: store, srv: srv, ts: ts}

	if code, body := env.doJSON(t, "POST", "/admin/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	if code, body := env.doJSON(t, "POST", "/admin/vacuum", nil); code != http.StatusOK {
		t.Fatalf("vacuum: %d %s", code, body)
	}
	if code, body := env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.name"}); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}

	code, body := env.doJSON(t, "GET", "/debug/events", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/events: %d", code)
	}
	resp := decodeInto[debugEventsResponse](t, body)
	if resp.Total != uint64(len(resp.Events)) {
		t.Errorf("total %d != retained %d with no eviction", resp.Total, len(resp.Events))
	}
	// Newest first: slow-query, vacuum, checkpoint, checkpoint-start.
	var kinds []string
	for _, e := range resp.Events {
		kinds = append(kinds, e.Kind)
	}
	wantOrder := []string{"slow-query", "vacuum", "checkpoint", "checkpoint-start"}
	idx := 0
	for _, k := range kinds {
		if idx < len(wantOrder) && k == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Errorf("events missing or misordered; want subsequence %v, got %v", wantOrder, kinds)
	}
	for _, e := range resp.Events {
		if e.Kind == "checkpoint" && e.DurMs <= 0 {
			t.Errorf("checkpoint event has no duration: %+v", e)
		}
	}
	// Seq strictly decreasing (newest first).
	for i := 1; i < len(resp.Events); i++ {
		if resp.Events[i].Seq >= resp.Events[i-1].Seq {
			t.Fatalf("events not newest-first at %d: %+v", i, resp.Events)
		}
	}

	code, body = env.doJSON(t, "GET", "/debug/events?format=text", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "checkpoint") {
		t.Errorf("text events: %d %q", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDebugEventsRingEviction overflows a tiny journal and checks the
// ring keeps only the newest events while the total keeps counting.
func TestDebugEventsRingEviction(t *testing.T) {
	env := newTestEnv(t, Config{EventBuffer: 4})
	for i := 0; i < 10; i++ {
		env.srv.events.Record("test-event", fmt.Sprintf("n=%d", i))
	}
	_, body := env.doJSON(t, "GET", "/debug/events", nil)
	resp := decodeInto[debugEventsResponse](t, body)
	if len(resp.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(resp.Events))
	}
	if resp.Total != 10 {
		t.Fatalf("total %d, want 10", resp.Total)
	}
	if resp.Events[0].Detail != "n=9" {
		t.Fatalf("newest event: %+v", resp.Events[0])
	}
}

// TestDebugHistory exercises the sampler endpoint: samples exist
// immediately (Start takes one), the window parses and clamps, and junk
// windows are 400s.
func TestDebugHistory(t *testing.T) {
	env := newTestEnv(t, Config{SampleInterval: 5 * time.Millisecond, SampleRetention: 8})
	env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.name"})
	deadline := time.Now().Add(5 * time.Second)
	for env.srv.sampler.History(0) == nil || len(env.srv.sampler.History(0)) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never accumulated")
		}
		time.Sleep(2 * time.Millisecond)
	}

	code, body := env.doJSON(t, "GET", "/debug/history?window=1h", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/history: %d", code)
	}
	resp := decodeInto[debugHistoryResponse](t, body)
	if resp.IntervalMs != 5 || resp.Retention != 8 {
		t.Errorf("sampler meta: %+v", resp)
	}
	if len(resp.Samples) == 0 || len(resp.Samples) > 8 {
		t.Errorf("1h window returned %d samples, want 1..8 (clamped to retention)", len(resp.Samples))
	}
	for i := 1; i < len(resp.Samples); i++ {
		if resp.Samples[i].T.Before(resp.Samples[i-1].T) {
			t.Fatal("samples not oldest-first")
		}
	}
	last := resp.Samples[len(resp.Samples)-1]
	if v, ok := last.Values["sqlgraphd_queries_total"]; !ok || v < 1 {
		t.Errorf("sample missing live counter: %v", last.Values)
	}

	// Tiny window still returns the newest sample.
	code, body = env.doJSON(t, "GET", "/debug/history?window=1ns", nil)
	if code != http.StatusOK {
		t.Fatalf("tiny window: %d", code)
	}
	if resp := decodeInto[debugHistoryResponse](t, body); len(resp.Samples) == 0 {
		t.Error("tiny window returned no samples")
	}

	if code, _ := env.doJSON(t, "GET", "/debug/history?window=banana", nil); code != http.StatusBadRequest {
		t.Errorf("junk window: %d, want 400", code)
	}
}

// TestHistorySamplerDisabled verifies a negative interval turns the
// sampler off and the endpoint reports it.
func TestHistorySamplerDisabled(t *testing.T) {
	env := newTestEnv(t, Config{SampleInterval: -1})
	if env.srv.sampler != nil {
		t.Fatal("sampler running despite negative interval")
	}
	if code, _ := env.doJSON(t, "GET", "/debug/history", nil); code != http.StatusNotFound {
		t.Errorf("disabled history: %d, want 404", code)
	}
}

// TestMetricsScrapeUnderChurn is the structural-race test: scrape
// /metrics (and snapshot the registry) in a tight loop while queries,
// writes, and vacuums churn. Run under -race this fails on any locked
// or torn read path.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	env := newTestEnv(t, Config{SampleInterval: time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	worker(func(i int) { // query churn
		env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.out.name"})
	})
	worker(func(i int) { // write churn
		env.doJSON(t, "POST", "/vertex", map[string]any{"id": 1000 + i, "attrs": map[string]any{"name": "n"}})
	})
	worker(func(i int) { // vacuum churn
		env.doJSON(t, "POST", "/admin/vacuum", nil)
	})

	deadline := time.Now().Add(2 * time.Second)
	scrapes := 0
	for time.Now().Before(deadline) {
		code, body := env.doJSON(t, "GET", "/metrics", nil)
		if code != http.StatusOK {
			t.Fatalf("scrape %d: %d", scrapes, code)
		}
		if !strings.Contains(string(body), "sqlgraphd_queries_total") {
			t.Fatalf("scrape %d dropped a series", scrapes)
		}
		_ = env.srv.met.reg.Snapshot()
		_ = env.srv.events.Events()
		scrapes++
	}
	close(stop)
	wg.Wait()
	if scrapes < 10 {
		t.Fatalf("only %d scrapes completed", scrapes)
	}
}

// TestSamplerSeriesMatchExposition pins the guarantee that history
// sample keys are exactly the exposition series names.
func TestSamplerSeriesMatchExposition(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.name"})
	snap := env.srv.met.reg.Snapshot()
	_, body := env.doJSON(t, "GET", "/metrics", nil)
	text := string(body)
	for key := range snap {
		// Values move between the snapshot and the scrape; names must not.
		if !strings.Contains(text, key+" ") {
			t.Errorf("snapshot key %q absent from /metrics", key)
		}
	}
	if _, ok := snap["sqlgraphd_queries_total"]; !ok {
		t.Error("snapshot missing sqlgraphd_queries_total")
	}
}

// TestRuntimeSeries: the Go runtime series render with sane values, the
// pause histogram's buckets are cumulative up to its count, and the two
// CPU counters are the pair process.gc_cpu_pct is computed from.
func TestRuntimeSeries(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.out.name"})
	runtime.GC() // the CPU classes and the live heap are updated per cycle
	_, body := env.doJSON(t, "GET", "/metrics", nil)
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if key, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			series[key] = v
		}
	}
	sane := map[string][2]float64{ // [min, max]
		"sqlgraphd_go_heap_live_bytes":        {64 << 10, 64 << 30},
		"sqlgraphd_go_goroutines":             {2, 1e6},
		"sqlgraphd_go_gc_cpu_seconds_total":   {1e-9, 1e6},
		"sqlgraphd_go_user_cpu_seconds_total": {1e-9, 1e6},
		"sqlgraphd_go_gc_pause_seconds_count": {1, 1e9},
		"sqlgraphd_go_gc_pause_seconds_sum":   {1e-9, 1e6},
	}
	for key, r := range sane {
		if v, ok := series[key]; !ok || v < r[0] || v > r[1] {
			t.Errorf("%s = %v (present %v), want within %v", key, v, ok, r)
		}
	}
	prev := 0.0
	for _, ub := range pauseBuckets {
		key := fmt.Sprintf("sqlgraphd_go_gc_pause_seconds_bucket{le=%q}", strconv.FormatFloat(ub, 'g', -1, 64))
		v, ok := series[key]
		if !ok {
			t.Fatalf("%s not rendered", key)
		}
		if v < prev {
			t.Fatalf("pause buckets not cumulative at le=%g: %v < %v", ub, v, prev)
		}
		prev = v
	}
	if inf := series[`sqlgraphd_go_gc_pause_seconds_bucket{le="+Inf"}`]; inf < prev || inf != series["sqlgraphd_go_gc_pause_seconds_count"] {
		t.Errorf("+Inf bucket %v, last finite %v, count %v", inf, prev, series["sqlgraphd_go_gc_pause_seconds_count"])
	}
	if mean := series["sqlgraphd_go_gc_pause_seconds_sum"] / series["sqlgraphd_go_gc_pause_seconds_count"]; mean > 1 {
		t.Errorf("mean GC pause %vs", mean)
	}
}
