package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// topSample mirrors one entry of the server's /debug/history response:
// a timestamp plus every metric series value at that instant.
type topSample struct {
	T time.Time          `json:"t"`
	V map[string]float64 `json:"v"`
}

type topHistory struct {
	IntervalMs float64     `json:"interval_ms"`
	Retention  int         `json:"retention"`
	Samples    []topSample `json:"samples"`
}

type topEvent struct {
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
	DurMs  float64   `json:"dur_ms"`
	Err    string    `json:"error"`
}

type topEvents struct {
	Events []topEvent `json:"events"`
}

// runTop is the `sqlgraph top` subcommand: a dependency-free polling
// dashboard over a live sqlgraphd's /debug/history and /debug/events
// endpoints. Rates (qps, fsync/s) and latency quantiles are computed
// from deltas between the oldest and newest sample in the polled
// window, so they reflect recent traffic rather than process lifetime.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the sqlgraphd server")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	window := fs.Duration("window", 70*time.Second, "history window used for rate and quantile deltas")
	once := fs.Bool("once", false, "render a single frame and exit (no screen clearing)")
	fs.Parse(args)

	client := &http.Client{Timeout: 5 * time.Second}
	for {
		frame, err := topFrame(client, strings.TrimRight(*addr, "/"), *window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlgraph top: %v\n", err)
			os.Exit(1)
		}
		if *once {
			fmt.Print(frame)
			return
		}
		// Clear screen + home, repaint.
		fmt.Print("\x1b[2J\x1b[H" + frame)
		time.Sleep(*interval)
	}
}

func topGet(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, shorten(string(body), 120))
	}
	return json.Unmarshal(body, into)
}

// topFrame fetches history + events and renders one dashboard frame.
func topFrame(client *http.Client, addr string, window time.Duration) (string, error) {
	var hist topHistory
	if err := topGet(client, addr+"/debug/history?window="+window.String(), &hist); err != nil {
		return "", err
	}
	if len(hist.Samples) == 0 {
		return "", fmt.Errorf("no samples yet (is the sampler enabled?)")
	}
	var events topEvents
	if err := topGet(client, addr+"/debug/events", &events); err != nil {
		return "", err
	}

	oldest, newest := hist.Samples[0], hist.Samples[len(hist.Samples)-1]
	dt := newest.T.Sub(oldest.T).Seconds()

	var b strings.Builder
	fmt.Fprintf(&b, "sqlgraphd %s  —  %s  (window %s over %d samples, sampler %gms)\n\n",
		addr, newest.T.Format("15:04:05"), window, len(hist.Samples), hist.IntervalMs)

	qps := topRate(oldest.V, newest.V, "sqlgraphd_queries_total", dt)
	rps := topRate(oldest.V, newest.V, "sqlgraphd_requests_total", dt) // summed across routes
	errs := topRate(oldest.V, newest.V, "sqlgraphd_query_errors_total", dt)
	p50 := topQuantile(oldest.V, newest.V, "sqlgraphd_request_seconds_bucket", 0.50)
	p99 := topQuantile(oldest.V, newest.V, "sqlgraphd_request_seconds_bucket", 0.99)
	fmt.Fprintf(&b, "  queries   %8.1f qps   requests %8.1f rps   errors %6.2f/s\n", qps, rps, errs)
	fmt.Fprintf(&b, "  latency   p50 %s   p99 %s\n", topDur(p50), topDur(p99))
	fmt.Fprintf(&b, "  executor  stored rows/query mean %s   p99 %s\n",
		topCount(topRate(oldest.V, newest.V, "sqlgraphd_exec_materialized_rows_sum", dt)/topRate(oldest.V, newest.V, "sqlgraphd_exec_materialized_rows_count", dt)),
		topCount(topQuantile(oldest.V, newest.V, "sqlgraphd_exec_materialized_rows_bucket", 0.99)))
	fmt.Fprintf(&b, "  admission in-flight %s   queued %s   rejected %.2f/s\n",
		topInt(newest.V, "sqlgraphd_in_flight"), topInt(newest.V, "sqlgraphd_admission_queued"),
		topRate(oldest.V, newest.V, "sqlgraphd_admission_rejected_total", dt))
	fmt.Fprintf(&b, "  wal       fsyncs %6.1f/s   appends %8.1f/s   buffered %s\n",
		topRate(oldest.V, newest.V, "sqlgraphd_wal_fsyncs_total", dt),
		topRate(oldest.V, newest.V, "sqlgraphd_wal_appends_total", dt),
		topInt(newest.V, "sqlgraphd_wal_buffered_records"))
	// Checkpoints run beside the writers: "busy" is the share of the window
	// one was running, "exclusive" the share during which writers waited.
	fmt.Fprintf(&b, "  checkpnt  %5.2f/min   busy %4.1f%%   exclusive %5.2f%%   errors %s\n",
		60*topRate(oldest.V, newest.V, "sqlgraphd_checkpoints_total", dt),
		100*topRate(oldest.V, newest.V, "sqlgraphd_checkpoint_seconds_total", dt),
		100*topRate(oldest.V, newest.V, "sqlgraphd_checkpoint_exclusive_seconds_total", dt),
		topInt(newest.V, "sqlgraphd_checkpoint_errors_total"))
	fmt.Fprintf(&b, "  mvcc      gc backlog %s records   pins %s   oldest pin %s\n",
		topInt(newest.V, "sqlgraphd_mvcc_gc_backlog_records"),
		topInt(newest.V, "sqlgraphd_snapshot_pins"),
		topDur(newest.V["sqlgraphd_mvcc_oldest_pin_age_seconds"]))
	fmt.Fprintf(&b, "  caches    plan hit%% %s   prepared hit%% %s   statements %s\n",
		topHitRate(newest.V, "sqlgraphd_plan_cache_hits_total", "sqlgraphd_plan_cache_misses_total"),
		topHitRate(newest.V, "sqlgraphd_prepared_cache_hits_total", "sqlgraphd_prepared_cache_misses_total"),
		topInt(newest.V, "sqlgraphd_prepared_statements"))
	// GC share of CPU as the benchmark's process.gc_cpu_pct defines it:
	// gc ÷ (gc + user) CPU seconds over the window. The runtime updates both
	// at each GC, so a window without a cycle reads "--".
	gcCPU := topRate(oldest.V, newest.V, "sqlgraphd_go_gc_cpu_seconds_total", dt)
	userCPU := topRate(oldest.V, newest.V, "sqlgraphd_go_user_cpu_seconds_total", dt)
	gcShare := "  --"
	if gcCPU+userCPU > 0 {
		gcShare = fmt.Sprintf("%4.1f%%", 100*gcCPU/(gcCPU+userCPU))
	}
	fmt.Fprintf(&b, "  runtime   heap live %.1f MB   gc cpu %s   goroutines %s\n",
		newest.V["sqlgraphd_go_heap_live_bytes"]/(1<<20), gcShare, topInt(newest.V, "sqlgraphd_go_goroutines"))

	// Replication: follower lag per /wal stream on a primary, or this
	// node's own lag when it is a replica.
	var lags []string
	for k, v := range newest.V {
		if peer, ok := seriesLabel(k, "sqlgraphd_wal_stream_lag_records", "peer"); ok {
			lags = append(lags, fmt.Sprintf("%s: %d records", peer, int64(v)))
		}
	}
	sort.Strings(lags)
	if len(lags) > 0 {
		fmt.Fprintf(&b, "  replicas  %s\n", strings.Join(lags, "   "))
	}
	if lag, ok := newest.V["sqlgraphd_replica_lag_seconds"]; ok {
		fmt.Fprintf(&b, "  replica   lag %s   connected %s   applied lsn %s\n",
			topDur(lag), topInt(newest.V, "sqlgraphd_replica_connected"),
			topInt(newest.V, "sqlgraphd_replica_applied_lsn"))
	}

	if len(events.Events) > 0 {
		fmt.Fprintf(&b, "\n  recent events\n")
		n := len(events.Events)
		if n > 6 {
			n = 6
		}
		for _, e := range events.Events[:n] {
			line := fmt.Sprintf("    %s  %-20s %s", e.Time.Format("15:04:05"), e.Kind, e.Detail)
			if e.DurMs > 0 {
				line += fmt.Sprintf(" (%.1fms)", e.DurMs)
			}
			if e.Err != "" {
				line += " error=" + e.Err
			}
			fmt.Fprintln(&b, shorten(line, 110))
		}
	}
	return b.String(), nil
}

// topRate sums all series of one metric family (a plain counter or
// every labeled child of a vec) in each sample and returns the
// per-second delta. Counter resets (server restart mid-window) clamp
// to zero rather than going negative.
func topRate(old, cur map[string]float64, family string, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	d := topFamilySum(cur, family) - topFamilySum(old, family)
	if d < 0 {
		return 0
	}
	return d / dt
}

func topFamilySum(v map[string]float64, family string) float64 {
	if x, ok := v[family]; ok {
		return x
	}
	var sum float64
	for k, x := range v {
		if strings.HasPrefix(k, family+"{") {
			sum += x
		}
	}
	return sum
}

// topQuantile computes an interpolated quantile from the delta of a
// cumulative histogram's buckets between two samples, summed across
// label sets (e.g. all routes). Falls back to the all-time histogram
// when the window saw no traffic. Returns NaN when there is no data.
func topQuantile(old, cur map[string]float64, bucketFamily string, q float64) float64 {
	delta := topBucketDeltas(old, cur, bucketFamily)
	if len(delta) == 0 {
		delta = topBucketDeltas(map[string]float64{}, cur, bucketFamily)
	}
	les := make([]float64, 0, len(delta))
	for le := range delta {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return math.NaN()
	}
	total := delta[les[len(les)-1]] // +Inf bucket is cumulative total
	if total <= 0 {
		return math.NaN()
	}
	target := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, le := range les {
		c := delta[le]
		if c >= target {
			if math.IsInf(le, 1) { // +Inf bucket: report the last finite bound
				return prevLe
			}
			if c == prevCount {
				return le
			}
			return prevLe + (le-prevLe)*(target-prevCount)/(c-prevCount)
		}
		prevLe, prevCount = le, c
	}
	return prevLe
}

// topBucketDeltas returns cumulative bucket counts (cur − old) keyed by
// le, summed across all other labels.
func topBucketDeltas(old, cur map[string]float64, family string) map[float64]float64 {
	out := map[float64]float64{}
	for k, v := range cur {
		le, ok := seriesLabel(k, family, "le")
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			if le == "+Inf" {
				bound = math.Inf(1)
			} else {
				continue
			}
		}
		d := v - old[k]
		if d < 0 {
			d = 0
		}
		out[bound] += d
	}
	return out
}

// seriesLabel extracts one label value from a full series key like
// `family{a="x",le="0.5"}`. Label values in this exposition never
// contain quotes or commas (routes, peers, bucket bounds), so a plain
// split is enough.
func seriesLabel(key, family, label string) (string, bool) {
	rest, ok := strings.CutPrefix(key, family+"{")
	if !ok {
		return "", false
	}
	rest, ok = strings.CutSuffix(rest, "}")
	if !ok {
		return "", false
	}
	for _, kv := range strings.Split(rest, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if ok && name == label {
			return strings.Trim(val, `"`), true
		}
	}
	return "", false
}

func topHitRate(v map[string]float64, hits, misses string) string {
	h, m := v[hits], v[misses]
	if h+m == 0 {
		return "  --"
	}
	return fmt.Sprintf("%4.1f", 100*h/(h+m))
}

func topInt(v map[string]float64, key string) string {
	return strconv.FormatInt(int64(v[key]), 10)
}

// topCount renders a row count, or "--" when the window has no data.
func topCount(n float64) string {
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return "--"
	}
	return strconv.FormatFloat(n, 'f', 0, 64)
}

// topDur renders a duration in seconds at a human scale.
func topDur(sec float64) string {
	switch {
	case math.IsNaN(sec): // no data
		return "   --"
	case sec <= 0:
		return "0"
	case sec < 0.001:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}
