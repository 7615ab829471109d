package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlgraph/internal/core"
	"sqlgraph/internal/server"
)

// ReplicationLoadBench measures how snapshot-read throughput scales as
// followers are added. A durable primary is bulk-loaded with the
// benchmark dataset; for each point N in 1..maxReplicas, N followers
// bootstrap from its /snapshot and tail its /wal, then `clients`
// concurrent readers round-robin GET /vertex/{id} across the follower
// fleet for dur while a background writer keeps mutating the primary
// (so the stream is live, not idle). Each point reports aggregate
// reads/s and p50/p99 latency and becomes an EngineBenchEntry under
// figure "replication" (query "replicas_N", ns_per_op = p50), so
// follower-side regressions trip the same committed-baseline geomean
// gate as every other workload.
func ReplicationLoadBench(env *DBpediaEnv, maxReplicas, clients int, dur time.Duration, w io.Writer) ([]EngineBenchEntry, error) {
	header(w, "Replication read scaling (primary + N followers)")

	pdir, err := os.MkdirTemp("", "sqlgraph-repl-primary-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(pdir)
	primary, err := core.Load(env.Data.Graph, core.Options{Dir: pdir, SnapshotEvery: -1})
	if err != nil {
		return nil, fmt.Errorf("replication bench: load primary: %w", err)
	}
	defer primary.Close()
	pSrv := server.New(primary, server.Config{
		MaxInFlight: 2 * clients,
		Logger:      discardLog,
	})
	pTS := httptest.NewServer(pSrv.Handler())
	defer pTS.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pSrv.Close(ctx)
	}()

	vids := env.Data.Graph.VertexIDs()
	if len(vids) == 0 {
		return nil, fmt.Errorf("replication bench: empty dataset")
	}
	maxID := vids[0]
	for _, v := range vids {
		if v > maxID {
			maxID = v
		}
	}
	scratch := maxID + 3_000_000

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        4 * clients,
			MaxIdleConnsPerHost: 2 * clients,
		},
		Timeout: 30 * time.Second,
	}
	defer client.CloseIdleConnections()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	fmt.Fprintf(w, "clients=%d duration=%v dataset=%d vertices\n", clients, dur, len(vids))
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", "followers", "reads/s", "p50(us)", "p99(us)", "speedup")
	var entries []EngineBenchEntry
	var base float64
	for n := 1; n <= maxReplicas; n++ {
		reads, p50, p99, err := runReplicaPoint(client, quiet, pTS.URL, primary, vids, scratch+int64(n)*100_000, n, clients, dur)
		if err != nil {
			return nil, fmt.Errorf("replication bench (%d followers): %w", n, err)
		}
		rate := float64(reads) / dur.Seconds()
		if n == 1 {
			base = rate
		}
		fmt.Fprintf(w, "%-12d %12.0f %12.0f %12.0f %11.2fx\n",
			n, rate, float64(p50.Microseconds()), float64(p99.Microseconds()), rate/base)
		entries = append(entries, EngineBenchEntry{
			Figure:     "replication",
			Query:      fmt.Sprintf("replicas_%d", n),
			Gremlin:    fmt.Sprintf("GET /vertex/{id} round-robin across %d follower(s) under live writes", n),
			NsPerOp:    p50.Nanoseconds(),
			Rows:       int(reads),
			MaxWorkers: n,
		})
	}
	return entries, nil
}

// runReplicaPoint boots n followers against the primary, waits for them
// to catch up, then measures the read fleet for dur under write churn.
func runReplicaPoint(client *http.Client, quiet *slog.Logger, primaryURL string, primary *core.Store, vids []int64, scratch int64, n, clients int, dur time.Duration) (reads int64, p50, p99 time.Duration, err error) {
	type follower struct {
		dir string
		rep *server.Replicator
		srv *server.Server
		ts  *httptest.Server
	}
	fleet := make([]*follower, 0, n)
	defer func() {
		for _, f := range fleet {
			if f.rep != nil {
				f.rep.Stop()
			}
			if f.srv != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				f.srv.Close(ctx)
				cancel()
			}
			if f.ts != nil {
				f.ts.Close()
			}
			if f.rep != nil {
				f.rep.Store().Close()
			}
			os.RemoveAll(f.dir)
		}
	}()
	bootCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < n; i++ {
		f := &follower{}
		f.dir, err = os.MkdirTemp("", "sqlgraph-repl-follower-")
		if err != nil {
			return 0, 0, 0, err
		}
		fleet = append(fleet, f)
		f.rep, err = server.NewReplicator(bootCtx, server.ReplicaConfig{
			Primary: primaryURL,
			Dir:     f.dir,
			Client:  client,
			Logger:  quiet,
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bootstrap follower %d: %w", i, err)
		}
		f.srv = server.New(f.rep.Store(), server.Config{
			MaxInFlight: 2 * clients,
			Logger:      discardLog,
		})
		f.srv.AttachReplica(f.rep)
		f.ts = httptest.NewServer(f.srv.Handler())
		f.rep.Start()
	}
	// Let every follower reach the primary's current LSN before timing.
	target := primary.AppliedLSN()
	deadline := time.Now().Add(time.Minute)
	for _, f := range fleet {
		for f.rep.Store().AppliedLSN() < target {
			if time.Now().After(deadline) {
				return 0, 0, 0, fmt.Errorf("follower never caught up to LSN %d", target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Background writer: steady vertex add/remove churn on the primary so
	// followers measure read latency while applying a live stream.
	stopWrite := make(chan struct{})
	var writeWg sync.WaitGroup
	writeWg.Add(1)
	go func() {
		defer writeWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWrite:
				return
			default:
			}
			id := scratch + int64(i%512)
			method, path, body := "POST", "/vertex", fmt.Sprintf(`{"id":%d,"attrs":{"bench":true}}`, id)
			if i%2 == 1 {
				method, path, body = "DELETE", fmt.Sprintf("/vertex/%d", id), ""
			}
			var rd io.Reader
			if body != "" {
				rd = strings.NewReader(body)
			}
			req, e := http.NewRequest(method, primaryURL+path, rd)
			if e != nil {
				return
			}
			resp, e := client.Do(req)
			if e != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(500 * time.Microsecond)
		}
	}()
	defer writeWg.Wait()
	defer close(stopWrite)

	stop := make(chan struct{})
	latCh := make(chan []time.Duration, clients)
	var total int64
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
				base := fleet[i%len(fleet)].ts.URL
				path := fmt.Sprintf("/vertex/%d", vids[i%len(vids)])
				t0 := time.Now()
				resp, e := client.Get(base + path)
				if e != nil {
					fail(e)
					latCh <- lats
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lats = append(lats, time.Since(t0))
				atomic.AddInt64(&total, 1)
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("GET %s -> %d", path, resp.StatusCode))
					latCh <- lats
					return
				}
			}
		}(c)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	close(latCh)
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}
	if len(all) == 0 {
		return 0, 0, 0, fmt.Errorf("no reads completed in %v", dur)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return total, all[len(all)*50/100], all[len(all)*99/100], nil
}
