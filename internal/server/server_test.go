package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
)

var update = flag.Bool("update", false, "rewrite golden files")

// figure2a builds the paper's Figure 2a sample graph.
func figure2a(t testing.TB) *blueprints.MemGraph {
	t.Helper()
	g := blueprints.NewMemGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddVertex(1, map[string]any{"name": "marko", "age": 29}))
	must(g.AddVertex(2, map[string]any{"name": "vadas", "age": 27}))
	must(g.AddVertex(3, map[string]any{"name": "lop", "lang": "java"}))
	must(g.AddVertex(4, map[string]any{"name": "josh", "age": 32}))
	must(g.AddEdge(7, 1, 2, "knows", map[string]any{"weight": 0.5}))
	must(g.AddEdge(8, 1, 4, "knows", map[string]any{"weight": 1.0}))
	must(g.AddEdge(9, 1, 3, "created", map[string]any{"weight": 0.4}))
	must(g.AddEdge(10, 4, 2, "likes", map[string]any{"weight": 0.2}))
	must(g.AddEdge(11, 4, 3, "created", map[string]any{"weight": 0.8}))
	return g
}

// testEnv is one live server over the Figure 2a graph.
type testEnv struct {
	store *core.Store
	srv   *Server
	ts    *httptest.Server
}

// quietLog keeps the servers the tests boot from writing to stderr.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func newTestEnv(t testing.TB, cfg Config) *testEnv {
	t.Helper()
	store, err := core.Load(figure2a(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLog // keep panic-path tests quiet
	}
	srv := New(store, cfg)
	ts := httptest.NewServer(srv.Handler())
	env := &testEnv{store: store, srv: srv, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
		if pins := store.PinnedSnapshots(); pins != 0 {
			t.Errorf("%d snapshot pin(s) leaked after shutdown", pins)
		}
	})
	return env
}

// doJSON performs one request and returns the status and raw body.
func (e *testEnv) doJSON(t testing.TB, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		switch b := body.(type) {
		case string:
			rd = strings.NewReader(b)
		default:
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
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

// goldenTraceID pins the trace id in golden responses: the golden
// queries send a traceparent carrying it, so the server adopts it
// instead of minting a random one and the bodies stay byte-stable.
const goldenTraceID = "0af7651916cd43dd8448eb211c80319c"

// doJSONTraced is doJSON with a fixed W3C traceparent attached.
func (e *testEnv) doJSONTraced(t testing.TB, method, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+goldenTraceID+"-b7ad6b7169203331-01")
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeInto[T any](t testing.TB, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "GET", "/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

// TestGoldenQueries locks the wire format: the Figure 2a demo queries
// must produce byte-for-byte identical JSON responses, golden files
// committed under testdata/golden. Regenerate with -update.
func TestGoldenQueries(t *testing.T) {
	env := newTestEnv(t, Config{})
	queries := []struct {
		name    string
		gremlin string
	}{
		{"marko_knows_names", "g.V.has('name', 'marko').out('knows').name"},
		{"age_filter_count", "g.V.filter{it.age > 27}.count()"},
		{"heavy_edges_count", "g.E.has('weight', T.gt, 0.5).count()"},
		{"knows_created_path", "g.V(1).out('knows').out('created').path"},
		{"both_dedup_count", "g.V.both.dedup().count()"},
		{"created_langs", "g.V.out('created').lang.dedup()"},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			code, body := env.doJSONTraced(t, "POST", "/query", map[string]any{"gremlin": q.gremlin})
			if code != http.StatusOK {
				t.Fatalf("query %q: %d %s", q.gremlin, code, body)
			}
			golden := filepath.Join("testdata", "golden", q.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("response drifted from golden %s:\n got: %s\nwant: %s", golden, body, want)
			}
		})
	}
}

// TestNegatedStringClosureAnswers: a closure that negates a string is the
// client's to write and the store's to answer — NULL, as the oracle has
// it — whatever else the closure holds, never a 500.
func TestNegatedStringClosureAnswers(t *testing.T) {
	env := newTestEnv(t, Config{})
	for _, text := range []string{
		"g.V.filter{-it.name < 0}.count()",
		"g.V.filter{it.age > 100 && -it.name < 0}.count()",
		"g.V.filter{-it.age < -28 || -it.name < 0}.count()",
	} {
		q, err := gremlin.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := interp.Eval(figure2a(t), q)
		if err != nil {
			t.Fatalf("oracle %s: %v", text, err)
		}
		code, body := env.doJSON(t, "POST", "/query", map[string]any{"gremlin": text})
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", text, code, body)
		}
		got := decodeInto[struct{ Values []int64 }](t, body).Values
		if fmt.Sprint(got) != fmt.Sprint(want.Values()) {
			t.Errorf("%s: %v, the oracle counts %v", text, got, want.Values())
		}
	}
}

func TestQueryParseErrorIs400WithPosition(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.has('name',"})
	if code != http.StatusBadRequest {
		t.Fatalf("want 400, got %d: %s", code, body)
	}
	if !strings.Contains(string(body), "position") {
		t.Fatalf("parse error should report a position: %s", body)
	}
}

func TestQueryUnsupportedTranslationIs400(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.dedup().path"})
	if code != http.StatusBadRequest {
		t.Fatalf("want 400, got %d: %s", code, body)
	}
}

func TestQueryMalformedJSONIs400(t *testing.T) {
	env := newTestEnv(t, Config{})
	for _, body := range []string{"", "{", `{"gremlin": 7}`, `{"nope": "field"}`, `[1,2]`} {
		code, raw := env.doJSON(t, "POST", "/query", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %q: want 400, got %d: %s", body, code, raw)
		}
	}
}

// TestRecursiveLoopsOptionIs400: every loop unrolls, so the wire has no
// recursive_loops option, and a request that still sends it is refused
// by name rather than run with a default.
func TestRecursiveLoopsOptionIs400(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "POST", "/query", `{"gremlin":"g.V.count","options":{"recursive_loops":true}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("want 400, got %d: %s", code, body)
	}
	if !strings.Contains(string(body), "recursive_loops") {
		t.Fatalf("the error should name the field: %s", body)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	env := newTestEnv(t, Config{MaxBodyBytes: 256})
	big := fmt.Sprintf(`{"gremlin": "g.V.has('name', '%s').count()"}`, strings.Repeat("x", 4096))
	code, body := env.doJSON(t, "POST", "/query", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("want 413, got %d: %s", code, body)
	}
}

func TestTranslateEndpoint(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "POST", "/translate", map[string]any{"gremlin": "g.V.has('name', 'marko').out('knows').name"})
	if code != http.StatusOK {
		t.Fatalf("translate: %d %s", code, body)
	}
	resp := decodeInto[translateResponse](t, body)
	if !strings.Contains(resp.SQL, "= 'marko'") || !strings.Contains(resp.Template, "= ?1") || resp.ElemType != "value" {
		t.Fatalf("unexpected translation: %+v", resp)
	}
	// Untranslatable input is the client's fault.
	code, _ = env.doJSON(t, "POST", "/translate", map[string]any{"gremlin": "g.nope"})
	if code != http.StatusBadRequest {
		t.Fatalf("want 400 for untranslatable, got %d", code)
	}
}

// TestSessionLifecycle covers create → isolated reads → close → 410.
func TestSessionLifecycle(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "POST", "/sessions", nil)
	if code != http.StatusCreated {
		t.Fatalf("session create: %d %s", code, body)
	}
	sess := decodeInto[sessionResponse](t, body)

	// A write lands after the session pin: the session must not see it.
	code, body = env.doJSON(t, "POST", "/vertex", vertexBody{ID: 99, Attrs: map[string]any{"name": "newcomer"}})
	if code != http.StatusCreated {
		t.Fatalf("add vertex: %d %s", code, body)
	}
	code, body = env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.count", "session": sess.Session})
	if code != http.StatusOK {
		t.Fatalf("session query: %d %s", code, body)
	}
	got := decodeInto[queryResponse](t, body)
	if len(got.Values) != 1 || got.Values[0] != float64(4) {
		t.Fatalf("session should see the pinned version (4 vertices), got %v", got.Values)
	}
	if got.Version != sess.Version {
		t.Fatalf("session query ran at version %d, session pinned %d", got.Version, sess.Version)
	}
	// The live path sees the write.
	code, body = env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.count"})
	if code != http.StatusOK {
		t.Fatal("live query failed")
	}
	if live := decodeInto[queryResponse](t, body); live.Values[0] != float64(5) {
		t.Fatalf("live query should see 5 vertices, got %v", live.Values)
	}
	// Point reads honor ?session=.
	code, body = env.doJSON(t, "GET", "/vertex/99?session="+sess.Session, nil)
	if code != http.StatusNotFound {
		t.Fatalf("vertex 99 must be invisible to the session: %d %s", code, body)
	}
	// GET /sessions/{id} renews and reports.
	code, body = env.doJSON(t, "GET", "/sessions/"+sess.Session, nil)
	if code != http.StatusOK {
		t.Fatalf("session get: %d %s", code, body)
	}

	// Close, then everything is 410.
	code, _ = env.doJSON(t, "DELETE", "/sessions/"+sess.Session, nil)
	if code != http.StatusOK {
		t.Fatalf("session delete: %d", code)
	}
	for _, probe := range []func() (int, []byte){
		func() (int, []byte) {
			return env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.count", "session": sess.Session})
		},
		func() (int, []byte) { return env.doJSON(t, "GET", "/vertex/1?session="+sess.Session, nil) },
		func() (int, []byte) { return env.doJSON(t, "GET", "/sessions/"+sess.Session, nil) },
	} {
		if code, body := probe(); code != http.StatusGone {
			t.Fatalf("closed session: want 410, got %d %s", code, body)
		}
	}
	// Unknown sessions are 404, not 410.
	if code, _ := env.doJSON(t, "GET", "/sessions/ffffffffffffffffffffffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: want 404, got %d", code)
	}
	if pins := env.store.PinnedSnapshots(); pins != 0 {
		t.Fatalf("pins should be released after session close, have %d", pins)
	}
}

// TestSessionExpiry covers the TTL lease: an abandoned session expires,
// unpins, and answers 410 afterwards.
func TestSessionExpiry(t *testing.T) {
	env := newTestEnv(t, Config{SessionTTL: 50 * time.Millisecond})
	code, body := env.doJSON(t, "POST", "/sessions", nil)
	if code != http.StatusCreated {
		t.Fatalf("session create: %d %s", code, body)
	}
	sess := decodeInto[sessionResponse](t, body)
	deadline := time.Now().Add(5 * time.Second)
	for env.store.PinnedSnapshots() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired session never unpinned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, body = env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.count", "session": sess.Session})
	if code != http.StatusGone {
		t.Fatalf("expired session: want 410, got %d %s", code, body)
	}
}

// TestDeadline covers 504: a mutation blocked behind a held table lock
// exceeds its deadline; the abandoned worker finishes after the lock is
// released and the server still drains to zero pins (the cleanup hook
// asserts that).
func TestDeadline(t *testing.T) {
	env := newTestEnv(t, Config{})
	tx, err := env.store.Catalog().Begin([]string{core.TableVA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, body := env.doJSON(t, "POST", "/vertex?timeout_ms=100", vertexBody{ID: 50})
		if code != http.StatusGatewayTimeout {
			t.Errorf("want 504, got %d %s", code, body)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked mutation never timed out")
	}
	tx.Rollback()
	// The abandoned worker should complete and release its slot.
	deadline := time.Now().Add(5 * time.Second)
	for env.srv.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned worker never released its admission slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPointReadsAndMutations(t *testing.T) {
	env := newTestEnv(t, Config{})

	code, body := env.doJSON(t, "GET", "/vertex/1", nil)
	if code != http.StatusOK {
		t.Fatalf("vertex get: %d %s", code, body)
	}
	v := decodeInto[vertexBody](t, body)
	if v.Attrs["name"] != "marko" {
		t.Fatalf("vertex 1: %+v", v)
	}
	if code, _ = env.doJSON(t, "GET", "/vertex/999", nil); code != http.StatusNotFound {
		t.Fatalf("missing vertex: want 404, got %d", code)
	}
	if code, _ = env.doJSON(t, "GET", "/vertex/banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: want 400, got %d", code)
	}

	code, body = env.doJSON(t, "GET", "/edge/9", nil)
	if code != http.StatusOK {
		t.Fatalf("edge get: %d %s", code, body)
	}
	e := decodeInto[edgeBody](t, body)
	if e.From != 1 || e.To != 3 || e.Label != "created" || e.Attrs["weight"] != 0.4 {
		t.Fatalf("edge 9: %+v", e)
	}
	if code, _ = env.doJSON(t, "GET", "/edge/999", nil); code != http.StatusNotFound {
		t.Fatalf("missing edge: want 404, got %d", code)
	}

	code, body = env.doJSON(t, "GET", "/vertex/1/out?label=knows", nil)
	if code != http.StatusOK {
		t.Fatalf("out edges: %d %s", code, body)
	}
	if el := decodeInto[edgeList](t, body); el.Count != 2 {
		t.Fatalf("vertex 1 -knows->: want 2 edges, got %+v", el)
	}
	code, body = env.doJSON(t, "GET", "/vertex/3/in", nil)
	if code != http.StatusOK || decodeInto[edgeList](t, body).Count != 2 {
		t.Fatalf("in edges of 3: %d %s", code, body)
	}

	// Mutations: insert, duplicate, patch, delete.
	code, body = env.doJSON(t, "POST", "/vertex", vertexBody{ID: 42, Attrs: map[string]any{"name": "new"}})
	if code != http.StatusCreated {
		t.Fatalf("add vertex: %d %s", code, body)
	}
	if code, _ = env.doJSON(t, "POST", "/vertex", vertexBody{ID: 42}); code != http.StatusConflict {
		t.Fatalf("duplicate vertex: want 409, got %d", code)
	}
	if code, _ = env.doJSON(t, "POST", "/vertex", `{"id": -5}`); code != http.StatusBadRequest {
		t.Fatalf("negative id: want 400, got %d", code)
	}
	code, body = env.doJSON(t, "POST", "/edge", edgeBody{ID: 40, From: 42, To: 1, Label: "knows"})
	if code != http.StatusCreated {
		t.Fatalf("add edge: %d %s", code, body)
	}
	if code, _ = env.doJSON(t, "POST", "/edge", edgeBody{ID: 41, From: 42, To: 999, Label: "knows"}); code != http.StatusNotFound {
		t.Fatalf("edge to missing vertex: want 404, got %d", code)
	}
	code, body = env.doJSON(t, "PATCH", "/vertex/42/attrs", attrPatch{Set: map[string]any{"age": 1, "name": "renamed"}, Remove: []string{"nope"}})
	if code != http.StatusOK {
		t.Fatalf("attr patch: %d %s", code, body)
	}
	code, body = env.doJSON(t, "GET", "/vertex/42", nil)
	if v := decodeInto[vertexBody](t, body); v.Attrs["name"] != "renamed" || v.Attrs["age"] != float64(1) {
		t.Fatalf("patched vertex: %+v", v)
	}
	code, body = env.doJSON(t, "PATCH", "/edge/40/attrs", attrPatch{Set: map[string]any{"weight": 0.9}})
	if code != http.StatusOK {
		t.Fatalf("edge attr patch: %d %s", code, body)
	}
	if code, _ = env.doJSON(t, "DELETE", "/edge/40", nil); code != http.StatusOK {
		t.Fatalf("edge delete: %d", code)
	}
	if code, _ = env.doJSON(t, "DELETE", "/vertex/42", nil); code != http.StatusOK {
		t.Fatalf("vertex delete: %d", code)
	}
	if code, _ = env.doJSON(t, "DELETE", "/vertex/42", nil); code != http.StatusNotFound {
		t.Fatalf("double delete: want 404, got %d", code)
	}

	// The graph still checks clean after the churn.
	code, body = env.doJSON(t, "GET", "/check", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"healthy":true`) {
		t.Fatalf("check: %d %s", code, body)
	}
}

func TestStatsAndAdminEndpoints(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "GET", "/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["vertices"] != float64(4) || stats["edges"] != float64(5) {
		t.Fatalf("stats counts: %v", stats)
	}

	// Vacuum after a delete reclaims rows.
	if code, _ := env.doJSON(t, "DELETE", "/vertex/2", nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	code, body = env.doJSON(t, "POST", "/admin/vacuum", nil)
	if code != http.StatusOK {
		t.Fatalf("vacuum: %d %s", code, body)
	}
	// Checkpoint on an in-memory store is a client error, not a crash.
	code, body = env.doJSON(t, "POST", "/admin/checkpoint", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("checkpoint on memory store: want 400, got %d %s", code, body)
	}
}

func TestCheckpointOnDurableStore(t *testing.T) {
	dir := t.TempDir()
	store, err := core.Load(figure2a(t), core.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, Config{Logger: quietLog})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close(context.Background())

	// A multi-key attribute patch is one write: one record per key, all
	// appended by a single commit.
	env := &testEnv{store: store, srv: srv, ts: ts}
	lsn, syncs := store.AppliedLSN(), store.Tracer().WriteStats().WALFsyncs
	code, body := env.doJSON(t, "PATCH", "/vertex/1/attrs", attrPatch{Set: map[string]any{"age": 30, "city": "rome"}, Remove: []string{"nope"}})
	if code != http.StatusOK || strings.TrimSpace(string(body)) != `{"id":1,"removed":1,"set":2}` {
		t.Fatalf("attr patch: %d %s", code, body)
	}
	if got := store.AppliedLSN(); got != lsn+3 {
		t.Fatalf("3-key patch moved the log from LSN %d to %d, want %d", lsn, got, lsn+3)
	}
	if got := store.Tracer().WriteStats().WALFsyncs - syncs; got != 1 {
		t.Fatalf("3-key patch took %d log flushes, want 1", got)
	}

	resp, err := http.Post(ts.URL+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
	// Synchronous: the answer means the snapshot is installed, counted and
	// journaled with what it wrote and how long it kept writers out.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sqlgraphd_checkpoints_total 2", // the load's and this one
		"sqlgraphd_checkpoint_errors_total 0",
		"# TYPE sqlgraphd_checkpoint_exclusive_seconds_total counter",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(string(text), "sqlgraphd_checkpoint_exclusive_seconds_total 0\n") {
		t.Error("no exclusive time recorded for two checkpoints")
	}
	ev := store.Events().Events()[0]
	if ev.Kind != "checkpoint" || !strings.Contains(ev.Detail, " bytes=") || !strings.Contains(ev.Detail, " tail_records=0 exclusive_us=") {
		t.Errorf("journal: %+v", ev)
	}
}

func TestMetricsExposition(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "g.V.has('name', 'marko').out('knows').name"})
	env.doJSON(t, "POST", "/query", map[string]any{"gremlin": "not gremlin ("})
	code, body := env.doJSON(t, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`sqlgraphd_requests_total{route="/query",code="200"} 1`,
		`sqlgraphd_requests_total{route="/query",code="400"} 1`,
		"sqlgraphd_request_seconds_bucket",
		"sqlgraphd_queries_total 2",
		"sqlgraphd_query_errors_total 1",
		"sqlgraphd_snapshot_pins 0",
		"sqlgraphd_exec_scans_total",
		"sqlgraphd_admission_admitted_total",
		// Every series carries HELP and TYPE lines.
		"# HELP sqlgraphd_requests_total ",
		"# TYPE sqlgraphd_requests_total counter",
		"# HELP sqlgraphd_request_seconds ",
		"# TYPE sqlgraphd_request_seconds histogram",
		// Subsystems instrumented through the registry.
		// The query misses the prepared cache; the unparsable one has no
		// shape to look up.
		"sqlgraphd_prepared_cache_misses_total 1",
		"sqlgraphd_prepared_statements 1",
		"sqlgraphd_plan_cache_hits_total",
		"sqlgraphd_plan_cache_misses_total",
		"sqlgraphd_plan_cache_invalidations_total",
		"sqlgraphd_mvcc_oldest_pin_age_seconds",
		"sqlgraphd_mvcc_gc_backlog_records",
		"sqlgraphd_mvcc_gc_reclaimed_rows_total",
		"sqlgraphd_wal_flush_seconds_bucket",
		"sqlgraphd_wal_buffered_records",
		"sqlgraphd_wal_streams_active",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestPanicRecovery routes a panicking handler through the recovery
// middleware: the response is a 500 and the panic counter moves.
func TestPanicRecovery(t *testing.T) {
	env := newTestEnv(t, Config{})
	h := env.srv.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/panic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d", rec.Code)
	}
	if panics := env.srv.met.panics.Value(); panics != 1 {
		t.Fatalf("panic counter: %d", panics)
	}
}

// TestWorkerPanicIs500 panics inside the worker goroutine (the path the
// outer middleware cannot see).
func TestWorkerPanicIs500(t *testing.T) {
	env := newTestEnv(t, Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/panic", nil)
	env.srv.run(rec, req, func() (any, int, error) { panic("worker boom") })
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d: %s", rec.Code, rec.Body)
	}
	if env.srv.InFlight() != 0 {
		t.Fatal("panicked worker leaked its admission slot")
	}
}

func TestShutdownRejectsNewRequests(t *testing.T) {
	store, err := core.Load(figure2a(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{Logger: quietLog})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"gremlin":"g.V.count"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: want 503, got %d", resp.StatusCode)
	}
	if pins := store.PinnedSnapshots(); pins != 0 {
		t.Fatalf("pins after shutdown: %d", pins)
	}
}
