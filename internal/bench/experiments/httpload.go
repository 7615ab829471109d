package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlgraph/internal/server"
)

// discardLog silences the servers the experiments boot.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// httpWorkload is one end-to-end serving shape: every iteration builds a
// request via req(i) and the runner measures wall-clock latency from
// client send to response drain.
type httpWorkload struct {
	name string
	desc string
	req  func(i int) (method, path, body string)
}

// HTTPLoadBench boots an in-process HTTP server over the benchmark
// store and drives each workload shape with `clients` concurrent
// connections for dur, reporting reqs/s and p50/p99 end-to-end latency.
// It returns one EngineBenchEntry per workload (figure "http",
// ns_per_op = p50 latency) so the run is gated against the committed
// BENCH_engine.json baseline the same way as the engine workloads. Any
// 5xx response fails the bench outright.
func HTTPLoadBench(env *DBpediaEnv, clients int, dur time.Duration, w io.Writer) ([]EngineBenchEntry, error) {
	header(w, "HTTP serving layer (end-to-end)")

	srv := server.New(env.Store, server.Config{
		MaxInFlight: 2 * clients,
		Logger:      discardLog,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	closed := false
	defer func() {
		if !closed {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Close(ctx)
		}
	}()

	// The default transport keeps only two idle conns per host; under
	// `clients` concurrent workers that burns a fresh connection (and an
	// ephemeral port) per request.
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * clients,
			MaxIdleConnsPerHost: 2 * clients,
		},
		Timeout: 30 * time.Second,
	}
	defer client.CloseIdleConnections()

	vids := env.Data.Graph.VertexIDs()
	if len(vids) == 0 {
		return nil, fmt.Errorf("http bench: empty dataset")
	}
	maxID := vids[0]
	for _, v := range vids {
		if v > maxID {
			maxID = v
		}
	}
	probes := make([]string, 0, 8)
	for i := 0; i < 8 && i < len(vids); i++ {
		probes = append(probes, fmt.Sprintf(`{"gremlin":"g.V(%d).out.count()"}`, vids[i*len(vids)/8]))
	}
	scratch := maxID + 2_000_000

	workloads := []httpWorkload{
		{
			name: "gremlin",
			desc: "POST /query g.V(id).out.count() over a fresh snapshot",
			req: func(i int) (string, string, string) {
				return "POST", "/query", probes[i%len(probes)]
			},
		},
		{
			name: "point_read",
			desc: "GET /vertex/{id} attribute fetch",
			req: func(i int) (string, string, string) {
				return "GET", fmt.Sprintf("/vertex/%d", vids[i%len(vids)]), ""
			},
		},
		{
			name: "neighbors",
			desc: "GET /vertex/{id}/out adjacency expansion",
			req: func(i int) (string, string, string) {
				return "GET", fmt.Sprintf("/vertex/%d/out", vids[i%len(vids)]), ""
			},
		},
		{
			name: "batch_write",
			desc: "POST /batch six-op transactional batch (add 2 vertices + edge, then remove all) in one writer txn",
			req: func(i int) (string, string, string) {
				// Self-contained per request: unique ids keyed off i, and the
				// batch removes everything it adds, so concurrent batches
				// never conflict and the store does not grow.
				a := scratch + 1_000_000 + int64(i)*3
				b, e := a+1, a+2
				body := fmt.Sprintf(`{"ops":[`+
					`{"op":"add_vertex","id":%d,"attrs":{"bench":true}},`+
					`{"op":"add_vertex","id":%d,"attrs":{"bench":true}},`+
					`{"op":"add_edge","id":%d,"from":%d,"to":%d,"label":"bench"},`+
					`{"op":"remove_edge","id":%d},`+
					`{"op":"remove_vertex","id":%d},`+
					`{"op":"remove_vertex","id":%d}]}`,
					a, b, e, a, b, e, a, b)
				return "POST", "/batch", body
			},
		},
		{
			name: "mixed_rw",
			desc: "90% reads with vertex add/remove churn through the serialized writer",
			req: func(i int) (string, string, string) {
				switch i % 20 {
				case 0:
					id := scratch + int64(i%256)
					return "POST", "/vertex", fmt.Sprintf(`{"id":%d,"attrs":{"bench":true}}`, id)
				case 10:
					id := scratch + int64(i%256)
					return "DELETE", fmt.Sprintf("/vertex/%d", id), ""
				case 5:
					return "POST", "/query", probes[i%len(probes)]
				default:
					return "GET", fmt.Sprintf("/vertex/%d", vids[i%len(vids)]), ""
				}
			},
		},
	}

	fmt.Fprintf(w, "clients=%d duration=%v\n", clients, dur)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", "workload", "reqs/s", "p50(us)", "p99(us)", "non-2xx")
	var entries []EngineBenchEntry
	for _, wl := range workloads {
		reqs, non2xx, p50, p99, err := runHTTPWorkload(client, ts.URL, wl, clients, dur)
		if err != nil {
			return nil, fmt.Errorf("http bench %s: %w", wl.name, err)
		}
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %12.0f %12d\n",
			wl.name, float64(reqs)/dur.Seconds(),
			float64(p50.Microseconds()), float64(p99.Microseconds()), non2xx)
		entries = append(entries, EngineBenchEntry{
			Figure:     "http",
			Query:      wl.name,
			Gremlin:    wl.desc,
			NsPerOp:    p50.Nanoseconds(),
			Rows:       int(reqs),
			MaxWorkers: clients,
		})
	}

	// Graceful drain, then prove the serving layer released every
	// snapshot it pinned.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		return nil, fmt.Errorf("http bench: drain: %w", err)
	}
	closed = true
	if pins := env.Store.PinnedSnapshots(); pins != 0 {
		return nil, fmt.Errorf("http bench: %d snapshot pin(s) leaked after drain", pins)
	}
	return entries, nil
}

// runHTTPWorkload drives one workload with `clients` goroutines for dur.
// Responses below 500 count as served (409/404 are expected in the
// mutation churn); any 5xx aborts with that response as the error.
func runHTTPWorkload(client *http.Client, base string, wl httpWorkload, clients int, dur time.Duration) (reqs, non2xx int64, p50, p99 time.Duration, err error) {
	stop := make(chan struct{})
	latCh := make(chan []time.Duration, clients)
	var total, bad int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(e error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		errMu.Unlock()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, 4096)
			for i := c; ; i += clients {
				select {
				case <-stop:
					latCh <- lats
					return
				default:
				}
				method, path, body := wl.req(i)
				var rd io.Reader
				if body != "" {
					rd = strings.NewReader(body)
				}
				req, e := http.NewRequest(method, base+path, rd)
				if e != nil {
					fail(e)
					latCh <- lats
					return
				}
				t0 := time.Now()
				resp, e := client.Do(req)
				if e != nil {
					fail(e)
					latCh <- lats
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lats = append(lats, time.Since(t0))
				atomic.AddInt64(&total, 1)
				if resp.StatusCode >= 500 {
					fail(fmt.Errorf("%s %s -> %d %s", method, path, resp.StatusCode, raw))
					latCh <- lats
					return
				}
				if resp.StatusCode >= 300 {
					atomic.AddInt64(&bad, 1)
				}
			}
		}(c)
	}

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	close(latCh)
	if firstErr != nil {
		return 0, 0, 0, 0, firstErr
	}

	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}
	if len(all) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no requests completed in %v", dur)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return total, bad, all[len(all)*50/100], all[len(all)*99/100], nil
}
