package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sqlgraph/internal/core"
	"sqlgraph/internal/trace"
)

// TestExplainAnalyzeResponse checks that /query with explain set returns
// a full EXPLAIN ANALYZE: the translated SQL, the timed span tree as
// JSON, its text rendering, and the legacy stats string.
func TestExplainAnalyzeResponse(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "POST", "/query", map[string]any{
		"gremlin": "g.V.has('name', 'marko').out('knows').name",
		"explain": true,
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	resp := decodeInto[queryResponse](t, body)
	if resp.TraceID == "" {
		t.Fatal("explain response missing trace_id")
	}
	if !strings.Contains(resp.SQL, "SELECT") {
		t.Fatalf("explain response SQL: %q", resp.SQL)
	}
	if resp.Plan == nil || resp.Plan.Root == nil {
		t.Fatal("explain response missing plan tree")
	}
	if resp.Stats == "" || resp.PlanText == "" {
		t.Fatalf("explain response missing stats/plan_text: %+v", resp)
	}

	// The root's children are the stages; execute must carry per-operator
	// children, each with a wall time and row counts.
	var exec *trace.Span
	for _, sp := range resp.Plan.Root.Children {
		if sp.Name == "execute" {
			exec = sp
		}
	}
	if exec == nil {
		t.Fatalf("plan tree has no execute span: %s", body)
	}
	if exec.DurNs <= 0 {
		t.Fatalf("execute span has no wall time: %+v", exec)
	}
	if len(exec.Children) == 0 {
		t.Fatal("execute span has no operator children")
	}
	sawScan := false
	for _, op := range exec.Children {
		if op.DurNs < 0 || op.StartNs < 0 {
			t.Fatalf("operator %s has negative timing: %+v", op.Name, op)
		}
		if op.Name == "scan" {
			sawScan = true
			if op.RowsIn == 0 {
				t.Fatalf("scan operator reports no input rows: %+v", op)
			}
		}
	}
	if !sawScan {
		t.Fatalf("no scan operator in plan tree: %s", body)
	}
}

// TestDebugQueriesEndpoint is the acceptance path: run a query, then
// fetch its trace back by id from /debug/queries/{id}.
func TestDebugQueriesEndpoint(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, body := env.doJSON(t, "POST", "/query", map[string]any{
		"gremlin": "g.V.has('name', 'marko').out('knows').name",
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	id := decodeInto[queryResponse](t, body).TraceID
	if id == "" {
		t.Fatal("query response missing trace_id")
	}

	code, body = env.doJSON(t, "GET", "/debug/queries", nil)
	if code != http.StatusOK {
		t.Fatalf("debug list: %d %s", code, body)
	}
	list := decodeInto[debugQueriesResponse](t, body)
	found := false
	for _, tr := range list.Recent {
		if tr.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not retained in /debug/queries recent list", id)
	}

	code, body = env.doJSON(t, "GET", "/debug/queries/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("debug get: %d %s", code, body)
	}
	got := decodeInto[trace.Trace](t, body)
	if got.ID != id || got.Root == nil {
		t.Fatalf("retrieved trace mismatch: %+v", got)
	}
	// The statement as the shared template, this request's arguments, and
	// the two written together; the name is the request's own text.
	if !strings.Contains(got.Template, "JSON_VAL(ATTR, 'name') = ?1") || !reflect.DeepEqual(got.Args, []string{"'marko'"}) ||
		!strings.Contains(got.SQL, "JSON_VAL(ATTR, 'name') = 'marko'") || strings.Contains(got.SQL, "?") ||
		got.Name != "g.V.has('name', 'marko').out('knows').name" {
		t.Fatalf("trace statement: name %q template %q args %q sql %q", got.Name, got.Template, got.Args, got.SQL)
	}

	// The same shape with another literal runs the cached statement: one
	// plan span saying so, and its own arguments in its own trace.
	code, body = env.doJSON(t, "POST", "/query", map[string]any{
		"gremlin": "g.V.has('name', 'josh').out('knows').name", "explain": true,
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	second := decodeInto[queryResponse](t, body)
	if !strings.Contains(second.PlanText, "plan [cached shape g.V.has('name', ?s).out('knows').name args=1]") ||
		strings.Contains(second.PlanText, "translate") {
		t.Fatalf("plan of the shape's second query:\n%s", second.PlanText)
	}
	if !strings.Contains(second.SQL, "= 'josh'") || second.Plan.Template != got.Template || !reflect.DeepEqual(second.Plan.Args, []string{"'josh'"}) {
		t.Fatalf("second query's statement: sql %q template %q args %q", second.SQL, second.Plan.Template, second.Plan.Args)
	}

	code, _ = env.doJSON(t, "GET", "/debug/queries/"+strings.Repeat("0", 32), nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace id: want 404, got %d", code)
	}

	// Text form for humans.
	code, body = env.doJSON(t, "GET", "/debug/queries/"+id+"?format=text", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "trace "+id) ||
		!strings.Contains(string(body), "= ?1") || !strings.Contains(string(body), "args: 'marko'") {
		t.Fatalf("debug text form: %d %s", code, body)
	}
}

// TestTraceparentPropagation covers the W3C header contract: a valid
// incoming traceparent is adopted and echoed, a malformed one is
// replaced with a freshly minted id.
func TestTraceparentPropagation(t *testing.T) {
	env := newTestEnv(t, Config{})
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"

	req, err := http.NewRequest("GET", env.ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+id+"-00f067aa0ba902b7-01")
	resp, err := env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != id {
		t.Fatalf("X-Trace-Id: want %s, got %s", id, got)
	}
	tp := resp.Header.Get("Traceparent")
	if ok, _ := regexp.MatchString("^00-"+id+"-[0-9a-f]{16}-01$", tp); !ok {
		t.Fatalf("response traceparent malformed: %q", tp)
	}

	// Malformed header: a fresh id is minted instead.
	req, _ = http.NewRequest("GET", env.ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "00-zzzz-bad-01")
	resp, err = env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("X-Trace-Id")
	if len(got) != 32 || got == id {
		t.Fatalf("malformed traceparent should mint a fresh 128-bit id, got %q", got)
	}
}

// TestPprofGating: the profiling endpoints exist only when opted in.
func TestPprofGating(t *testing.T) {
	on := newTestEnv(t, Config{EnablePprof: true})
	code, body := on.doJSON(t, "GET", "/debug/pprof/", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("pprof enabled: %d", code)
	}

	off := newTestEnv(t, Config{})
	code, _ = off.doJSON(t, "GET", "/debug/pprof/", nil)
	if code != http.StatusNotFound {
		t.Fatalf("pprof disabled: want 404, got %d", code)
	}
}

// TestRequestLogLine drives one request synchronously through the
// handler and checks the structured summary line carries every field
// the issue asks for.
func TestRequestLogLine(t *testing.T) {
	store, err := core.Load(figure2a(t), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	srv := New(store, Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	defer srv.Close(t.Context())

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/query", strings.NewReader(`{"gremlin":"g.V.count()"}`))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}

	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("log line is not JSON: %q: %v", line, err)
	}
	if entry["msg"] != "request" || entry["method"] != "POST" || entry["path"] != "/query" {
		t.Fatalf("log line fields: %q", line)
	}
	if entry["status"] != float64(http.StatusOK) {
		t.Fatalf("log line status: %q", line)
	}
	for _, key := range []string{"dur", "trace_id", "admission_wait"} {
		if _, ok := entry[key]; !ok {
			t.Fatalf("log line missing %q: %q", key, line)
		}
	}
	if id, _ := entry["trace_id"].(string); len(id) != 32 {
		t.Fatalf("log line trace_id: %q", line)
	}
}

// timingRE matches the rendered durations so the EXPLAIN ANALYZE golden
// is stable across machines.
var timingRE = regexp.MustCompile(`(time|total)=[^ \n]+`)

// TestExplainAnalyzeGoldenText locks the EXPLAIN ANALYZE text shape:
// stage and operator lines with rows, details, and (normalized) times —
// among them dedups that name the order they emitted their rows in:
// ascending ids from an order-free input, first occurrences after a sort.
func TestExplainAnalyzeGoldenText(t *testing.T) {
	env := newTestEnv(t, Config{})
	for file, gremlin := range map[string]string{
		"explain_analyze.txt":              "g.V.has('name', 'marko').out('knows').name",
		"explain_analyze_dedup.txt":        "g.V.both.dedup()",
		"explain_analyze_sorted_dedup.txt": "g.V.order{it.name}.dedup()",
	} {
		code, body := env.doJSONTraced(t, "POST", "/query", map[string]any{
			"gremlin": gremlin,
			"explain": true,
		})
		if code != http.StatusOK {
			t.Fatalf("query: %d %s", code, body)
		}
		resp := decodeInto[queryResponse](t, body)
		text := timingRE.ReplaceAllString(resp.PlanText, "$1=X")

		golden := filepath.Join("testdata", "golden", file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if text != string(want) {
			t.Fatalf("EXPLAIN ANALYZE text of %s drifted:\n got: %q\nwant: %q", gremlin, text, want)
		}
	}
}
