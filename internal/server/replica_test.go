package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sqlgraph/internal/core"
	"sqlgraph/internal/faultinject"
	"sqlgraph/internal/wal"
)

// replCfg is a Config tuned for fast replication tests: tight stream
// polling and heartbeats, quiet logs.
func replCfg() Config {
	return Config{
		ReplicationPoll:      2 * time.Millisecond,
		ReplicationHeartbeat: 15 * time.Millisecond,
		Logger:               quietLog,
	}
}

func quietSlog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// flakyProxy sits between the follower and the primary so tests can
// swap the primary's address across restarts (httptest URLs change),
// take the primary "off the network", and cut streams mid-frame after
// an exact number of bytes (faultinject.ByteLimit on the response
// path — the replication analogue of a torn disk write).
type flakyProxy struct {
	ts *httptest.Server

	mu      sync.Mutex
	backend string
	down    bool
	limit   int // bytes per /wal response; < 0 means unlimited
}

func newFlakyProxy(backend string) *flakyProxy {
	p := &flakyProxy{backend: backend, limit: -1}
	p.ts = httptest.NewServer(http.HandlerFunc(p.handle))
	return p
}

func (p *flakyProxy) setBackend(url string) { p.mu.Lock(); p.backend = url; p.mu.Unlock() }
func (p *flakyProxy) setDown(d bool)        { p.mu.Lock(); p.down = d; p.mu.Unlock() }
func (p *flakyProxy) setLimit(n int)        { p.mu.Lock(); p.limit = n; p.mu.Unlock() }

func (p *flakyProxy) handle(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	backend, down := p.backend, p.down
	p.mu.Unlock()
	if down {
		http.Error(w, "proxy: primary unreachable", http.StatusBadGateway)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// down and limit are re-read per chunk so a live /wal stream is cut
	// the moment the test flips them, not just on the next connection.
	var gate func([]byte) (int, error)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 512)
	for {
		n, rerr := resp.Body.Read(buf)
		p.mu.Lock()
		down, limit := p.down, p.limit
		p.mu.Unlock()
		if down {
			panic(http.ErrAbortHandler)
		}
		if gate == nil && limit >= 0 && r.URL.Path == "/wal" {
			gate = faultinject.ByteLimit(limit)
		}
		if n > 0 {
			chunk := buf[:n]
			if gate != nil {
				m, gerr := gate(chunk)
				if gerr != nil {
					// Forward the partial frame, then sever the connection
					// abruptly: the follower sees a mid-frame cut.
					_, _ = w.Write(chunk[:m])
					if fl != nil {
						fl.Flush()
					}
					panic(http.ErrAbortHandler)
				}
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// replEnv is a full primary/proxy/follower topology.
type replEnv struct {
	t *testing.T

	pDir   string
	pStore *core.Store
	pSrv   *Server
	pTS    *httptest.Server

	proxy *flakyProxy

	rDir string
	rep  *Replicator
	rSrv *Server
	rTS  *httptest.Server
}

func (e *replEnv) startPrimary() {
	e.t.Helper()
	var err error
	if hasStoreState(e.pDir) {
		e.pStore, err = core.Open(core.Options{Dir: e.pDir})
	} else {
		e.pStore, err = core.Load(figure2a(e.t), core.Options{Dir: e.pDir, SnapshotEvery: -1})
	}
	if err != nil {
		e.t.Fatal(err)
	}
	e.pSrv = New(e.pStore, replCfg())
	e.pTS = httptest.NewServer(e.pSrv.Handler())
	if e.proxy != nil {
		e.proxy.setBackend(e.pTS.URL)
	}
}

// stopPrimary simulates a primary crash/shutdown: active /wal streams
// are cut and the address dies (the restarted primary gets a new one).
func (e *replEnv) stopPrimary() {
	e.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.pSrv.Close(ctx); err != nil {
		e.t.Fatalf("primary close: %v", err)
	}
	e.pTS.Close()
	if err := e.pStore.Close(); err != nil {
		e.t.Fatalf("primary store close: %v", err)
	}
}

func (e *replEnv) startFollower() {
	e.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := NewReplicator(ctx, ReplicaConfig{
		Primary:     e.proxy.ts.URL,
		Dir:         e.rDir,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Logger:      quietSlog(),
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.rep = rep
	if e.rSrv == nil {
		e.rSrv = New(rep.Store(), replCfg())
		e.rTS = httptest.NewServer(e.rSrv.Handler())
	} else {
		e.rSrv.SetStore(rep.Store())
	}
	e.rSrv.AttachReplica(rep)
	rep.Start()
}

// stopFollower halts tailing and closes the follower's store (its
// durable state stays on disk for the next start).
func (e *replEnv) stopFollower() {
	e.t.Helper()
	e.rep.Stop()
	if err := e.rep.Store().Close(); err != nil {
		e.t.Fatalf("follower store close: %v", err)
	}
}

func newReplEnv(t *testing.T) *replEnv {
	e := &replEnv{t: t, pDir: t.TempDir(), rDir: t.TempDir()}
	e.startPrimary()
	e.proxy = newFlakyProxy(e.pTS.URL)
	e.startFollower()
	t.Cleanup(func() {
		e.rep.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.rSrv.Close(ctx); err != nil {
			t.Errorf("follower server close: %v", err)
		}
		e.rTS.Close()
		if err := e.rep.Store().Close(); err != nil {
			t.Errorf("follower store close: %v", err)
		}
		if err := e.pSrv.Close(ctx); err != nil {
			t.Errorf("primary server close: %v", err)
		}
		e.pTS.Close()
		e.proxy.ts.Close()
		if err := e.pStore.Close(); err != nil {
			t.Errorf("primary store close: %v", err)
		}
	})
	return e
}

// do issues one request against a base URL and returns status and body.
func do(t testing.TB, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func waitUntil(t testing.TB, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// addVertex writes one vertex through the primary.
func (e *replEnv) addVertex(id int64) {
	e.t.Helper()
	code, body := do(e.t, "POST", e.pTS.URL+"/vertex", vertexBody{ID: id, Attrs: map[string]any{"n": id}})
	if code != http.StatusCreated {
		e.t.Fatalf("primary POST /vertex %d: %d %s", id, code, body)
	}
}

// followerSees reports whether the follower serves the vertex.
func (e *replEnv) followerSees(id int64) bool {
	code, _ := do(e.t, "GET", fmt.Sprintf("%s/vertex/%d", e.rTS.URL, id), nil)
	return code == http.StatusOK
}

func (e *replEnv) followerHealth() map[string]any {
	e.t.Helper()
	code, body := do(e.t, "GET", e.rTS.URL+"/healthz", nil)
	if code != http.StatusOK {
		e.t.Fatalf("follower /healthz: %d %s", code, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		e.t.Fatal(err)
	}
	return m
}

// assertConvergedEnv waits until the follower's applied LSN matches the
// primary's, then compares served state and runs fsck on both dirs.
func (e *replEnv) assertConverged(timeout time.Duration) {
	e.t.Helper()
	want := e.pStore.AppliedLSN()
	waitUntil(e.t, timeout, fmt.Sprintf("follower to reach LSN %d", want), func() bool {
		return e.rep.Store().AppliedLSN() >= want
	})
	p, f := e.pStore, e.rep.Store()
	if pc, fc := p.CountVertices(), f.CountVertices(); pc != fc {
		e.t.Fatalf("vertices: primary %d, follower %d", pc, fc)
	}
	if pc, fc := p.CountEdges(), f.CountEdges(); pc != fc {
		e.t.Fatalf("edges: primary %d, follower %d", pc, fc)
	}
	if vs := core.Check(f); len(vs) != 0 {
		e.t.Fatalf("follower invariants: %v", vs)
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	e := newReplEnv(t)

	// Bootstrap carried the bulk-loaded graph over.
	if !e.followerSees(1) {
		t.Fatal("follower does not serve bootstrapped vertex 1")
	}

	// A write through the primary shows up on the follower.
	e.addVertex(100)
	waitUntil(t, 5*time.Second, "vertex 100 on follower", func() bool { return e.followerSees(100) })
	e.assertConverged(5 * time.Second)

	// Roles on /healthz: primary side.
	codeP, bodyP := do(t, "GET", e.pTS.URL+"/healthz", nil)
	var hp map[string]any
	if err := json.Unmarshal(bodyP, &hp); err != nil || codeP != http.StatusOK {
		t.Fatalf("primary /healthz: %d %s (%v)", codeP, bodyP, err)
	}
	if hp["role"] != "primary" || hp["status"] != "ok" || hp["durable"] != true {
		t.Fatalf("primary health = %v", hp)
	}

	// Follower side: role, LSNs, connection state.
	waitUntil(t, 5*time.Second, "follower to report connected", func() bool {
		return e.followerHealth()["connected"] == true
	})
	h := e.followerHealth()
	if h["role"] != "replica" || h["status"] != "ok" || h["state"] != "streaming" {
		t.Fatalf("follower health = %v", h)
	}
	if h["applied_lsn"].(float64) != float64(e.pStore.AppliedLSN()) {
		t.Fatalf("follower applied_lsn = %v, primary at %d", h["applied_lsn"], e.pStore.AppliedLSN())
	}

	// Mutations on the follower are refused with 421 + the primary URL.
	for _, reqCase := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/vertex", vertexBody{ID: 999}},
		{"DELETE", "/vertex/1", nil},
		{"PATCH", "/vertex/1/attrs", attrPatch{Set: map[string]any{"x": 1}}},
		{"POST", "/edge", edgeBody{ID: 999, From: 1, To: 2, Label: "knows"}},
		{"DELETE", "/edge/7", nil},
		{"PATCH", "/edge/7/attrs", attrPatch{Set: map[string]any{"x": 1}}},
		{"POST", "/admin/vacuum", nil},
		{"POST", "/admin/checkpoint", nil},
	} {
		code, body := do(t, reqCase.method, e.rTS.URL+reqCase.path, reqCase.body)
		if code != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s on follower: %d %s, want 421", reqCase.method, reqCase.path, code, body)
		}
		if !bytes.Contains(body, []byte(e.proxy.ts.URL)) {
			t.Fatalf("%s %s: 421 body %s does not name the primary", reqCase.method, reqCase.path, body)
		}
	}
	// Reads still work on the follower, and the primary still mutates.
	if !e.followerSees(1) {
		t.Fatal("follower stopped serving reads")
	}
	e.addVertex(101)

	// Replication gauges are exposed on the follower's /metrics.
	_, met := do(t, "GET", e.rTS.URL+"/metrics", nil)
	for _, name := range []string{
		"sqlgraphd_replica_applied_lsn", "sqlgraphd_replica_primary_lsn",
		"sqlgraphd_replica_lag_seconds", "sqlgraphd_replica_connected",
		"sqlgraphd_replica_reconnects_total", "sqlgraphd_replica_resyncs_total",
	} {
		if !bytes.Contains(met, []byte(name)) {
			t.Fatalf("follower /metrics missing %s:\n%s", name, met)
		}
	}
	// The primary does not report replica gauges.
	_, pmet := do(t, "GET", e.pTS.URL+"/metrics", nil)
	if bytes.Contains(pmet, []byte("sqlgraphd_replica_applied_lsn")) {
		t.Fatal("primary /metrics reports replica gauges")
	}
}

func TestReplicaDegradedServingAndAutoResume(t *testing.T) {
	e := newReplEnv(t)
	e.addVertex(100)
	waitUntil(t, 5*time.Second, "initial convergence", func() bool { return e.followerSees(100) })

	// Primary drops off the network. The follower keeps serving what it
	// has, flags the disconnect, and reports growing staleness.
	e.proxy.setDown(true)
	e.addVertex(200) // lands on the primary only
	waitUntil(t, 5*time.Second, "follower to notice disconnect", func() bool {
		return e.followerHealth()["connected"] == false
	})
	if !e.followerSees(100) || !e.followerSees(1) {
		t.Fatal("degraded follower stopped serving snapshot reads")
	}
	if e.followerSees(200) {
		t.Fatal("follower sees a write it cannot have received")
	}
	var lag1 float64
	waitUntil(t, 5*time.Second, "nonzero lag", func() bool {
		lag1 = e.followerHealth()["lag_seconds"].(float64)
		return lag1 > 0
	})
	time.Sleep(30 * time.Millisecond)
	if lag2 := e.followerHealth()["lag_seconds"].(float64); lag2 <= lag1 {
		t.Fatalf("lag did not grow while disconnected: %g then %g", lag1, lag2)
	}

	// The primary returns; the follower resumes on its own (backoff-capped
	// retry loop), catches up, and the lag collapses.
	e.proxy.setDown(false)
	waitUntil(t, 10*time.Second, "auto-resume", func() bool { return e.followerSees(200) })
	e.assertConverged(5 * time.Second)
	waitUntil(t, 5*time.Second, "lag back to zero", func() bool {
		h := e.followerHealth()
		return h["connected"] == true && h["lag_seconds"].(float64) == 0
	})
	if n := e.rep.Status().Reconnects; n < 2 {
		t.Fatalf("reconnects = %d, want >= 2 after an outage", n)
	}
}

func TestReplicationSurvivesMidFrameCuts(t *testing.T) {
	e := newReplEnv(t)
	waitUntil(t, 5*time.Second, "initial connect", func() bool { return e.rep.Status().Connected })

	// Every /wal response is severed after 150 bytes — a few frames plus a
	// partial one. The follower must verify checksums, drop the torn
	// tail, and resume from its applied LSN each time.
	e.proxy.setLimit(150)
	for i := int64(100); i < 130; i++ {
		e.addVertex(i)
	}
	e.assertConverged(30 * time.Second)
	e.proxy.setLimit(-1)

	// Torn deliveries forced many reconnects, never a duplicate apply:
	// replaying the full primary log against the converged follower is a
	// pure no-op.
	e.rep.Stop()
	tr, err := wal.OpenTail(e.pDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	replayed := 0
	for {
		b, infos, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if infos == nil {
			break
		}
		sr := wal.NewStreamReader(bytes.NewReader(b))
		for {
			rec, rerr := sr.Next()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				t.Fatal(rerr)
			}
			applied, aerr := e.rep.Store().ApplyReplicated(rec)
			if aerr != nil {
				t.Fatalf("double replay LSN %d: %v", rec.LSN, aerr)
			}
			if applied {
				t.Fatalf("double replay applied LSN %d again", rec.LSN)
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("double replay exercised no records")
	}
	if n := e.rep.Status().Reconnects; n < 3 {
		t.Fatalf("reconnects = %d, want several under repeated cuts", n)
	}
}

func TestReplicaResyncAfterCheckpointGap(t *testing.T) {
	e := newReplEnv(t)
	e.addVertex(100)
	waitUntil(t, 5*time.Second, "initial convergence", func() bool { return e.followerSees(100) })
	baseResyncs := e.rep.Status().Resyncs

	// While the follower is cut off, the primary advances AND checkpoints,
	// truncating the log records the follower would need.
	e.proxy.setDown(true)
	for i := int64(200); i < 210; i++ {
		e.addVertex(i)
	}
	if code, body := do(t, "POST", e.pTS.URL+"/admin/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("primary checkpoint: %d %s", code, body)
	}

	// On reconnect the follower gets 410, re-bootstraps from /snapshot,
	// and the follower's HTTP server serves the swapped store.
	e.proxy.setDown(false)
	waitUntil(t, 10*time.Second, "resync convergence", func() bool { return e.followerSees(209) })
	e.assertConverged(5 * time.Second)
	if n := e.rep.Status().Resyncs; n <= baseResyncs {
		t.Fatalf("resyncs = %d, want > %d after checkpoint gap", n, baseResyncs)
	}
	if h := e.followerHealth(); h["role"] != "replica" {
		t.Fatalf("follower health after resync = %v", h)
	}
	// The loop passes through "degraded" for an instant between the
	// resync returning and the next stream attempt, so poll for the
	// steady state rather than sampling it.
	waitUntil(t, 5*time.Second, "streaming state after resync", func() bool {
		return e.followerHealth()["state"] == "streaming"
	})
}

// TestReplicationCrashRestartSweep kills the primary, kills the
// follower, and cuts streams mid-frame at random, checking after every
// fault that the follower reconverges to the primary's exact state and
// both directories recover fsck-clean.
func TestReplicationCrashRestartSweep(t *testing.T) {
	e := newReplEnv(t)
	rng := rand.New(rand.NewPCG(7, 11))
	next := int64(1000)
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		fault := rng.IntN(3)
		switch fault {
		case 0: // mid-frame stream cuts while writes flow
			e.proxy.setLimit(100 + rng.IntN(200))
		case 1: // primary crash/restart (new address, same data dir)
			e.stopPrimary()
			e.startPrimary()
		case 2: // follower crash/restart (reopens its own durable state)
			e.stopFollower()
			e.startFollower()
		}
		n := 3 + rng.IntN(5)
		for i := 0; i < n; i++ {
			e.addVertex(next)
			next++
		}
		e.proxy.setLimit(-1)
		e.assertConverged(30 * time.Second)
		if vs := core.Check(e.pStore); len(vs) != 0 {
			t.Fatalf("round %d (fault %d): primary invariants: %v", round, fault, vs)
		}
	}
	// Final offline verification of the follower's directory.
	e.rep.Stop()
	if vs, err := core.Fsck(e.rDir); err != nil || len(vs) != 0 {
		t.Fatalf("follower fsck: %v, %v", vs, err)
	}
	if vs, err := core.Fsck(e.pDir); err != nil || len(vs) != 0 {
		t.Fatalf("primary fsck: %v, %v", vs, err)
	}
}
