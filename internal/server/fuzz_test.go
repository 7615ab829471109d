package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"sqlgraph/internal/core"
)

// fuzzServer is shared across fuzz iterations: the decoder and query
// path are stateless per request, and rebuilding the store per input
// would make fuzzing useless.
var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
)

func fuzzSetup(t testing.TB) http.Handler {
	fuzzOnce.Do(func() {
		store, err := core.Load(figure2a(t), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(store, Config{Logger: quietLog})
		fuzzHandler = srv.Handler()
	})
	return fuzzHandler
}

// FuzzServerRequest fuzzes the JSON request decoder and the Gremlin
// query endpoint: any byte sequence posted to /query must produce a
// well-formed non-5xx response — parse and translation failures are the
// client's fault (4xx), and nothing may panic (a panic would surface as
// a 500 via the recovery middleware and fail here).
//
// Inputs starting with "GET /debug/" are instead routed as GET requests
// to the debug surface (/debug/events, /debug/history and friends), so
// the fuzzer also hammers the observability endpoints' query-string
// parsing. Those responses may be text/plain (?format=text), so the
// JSON content-type invariant only applies to the POST /query path.
//
// Crashers found by fuzzing are committed under
// testdata/fuzz/FuzzServerRequest and replayed by `go test -run
// FuzzServerRequest` as regression seeds.
func FuzzServerRequest(f *testing.F) {
	seeds := []string{
		`{"gremlin":"g.V.count"}`,
		`{"gremlin":"g.V.has('name', 'marko').out('knows').name"}`,
		`{"gremlin":"g.V(1).out('knows').out('created').path"}`,
		`{"gremlin":"g.V.filter{it.age > 27}.count()"}`,
		`{"gremlin":"g.E.has('weight', T.gt, 0.5).count()"}`,
		`{"gremlin":"g.V.both.dedup().count()","explain":true}`,
		`{"gremlin":"g.V.count","session":"0123456789abcdef0123456789abcdef"}`,
		`{"gremlin":"g.V.count","options":{"force_ea":true}}`,
		`{"gremlin":"g.V.count","options":{"force_hash_tables":true,"recursive_loops":true}}`,
		`{"gremlin":""}`,
		`{"gremlin":"g.V.has('name',"}`,
		`{"gremlin":"g.nope.nope"}`,
		`{"gremlin":"g.V.loop(3){it.loops < 2}.name"}`,
		`{"gremlin":"g.V.out.out.out.out.out.count"}`,
		"{\"gremlin\":\"\x00\xff\"}",
		`{"gremlin":42}`,
		`{"gremlin":"g.V.count","unknown_field":1}`,
		`{`,
		``,
		`null`,
		`[{"gremlin":"g.V.count"}]`,
		`{"gremlin":"g.V.has('name', 'marko')"}`,
		strings.Repeat(`{"gremlin":"g.V.count"}`, 100),
		"GET /debug/events",
		"GET /debug/events?format=text",
		"GET /debug/events?format=%00%ff",
		"GET /debug/history",
		"GET /debug/history?window=1s",
		"GET /debug/history?window=-5m",
		"GET /debug/history?window=banana",
		"GET /debug/history?window=9999999h&window=1s",
		"GET /debug/queries?kind=slow&limit=nope",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzSetup(t)
		if target, ok := strings.CutPrefix(string(body), "GET /debug/"); ok {
			target = "/debug/" + target
			// Only well-formed request targets reach a real server; skip
			// the rest rather than fight httptest.NewRequest's panic.
			if !validRequestTarget(target) {
				t.Skip()
			}
			req := httptest.NewRequest("GET", target, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("GET %q produced %d: %s", target, rec.Code, rec.Body)
			}
			return
		}
		req := httptest.NewRequest("POST", "/query", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("request %q produced %d: %s", body, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("non-JSON response %q for %q", ct, body)
		}
	})
}

// validRequestTarget reports whether target parses as an origin-form
// request URI that httptest.NewRequest will accept without panicking.
func validRequestTarget(target string) bool {
	u, err := url.ParseRequestURI(target)
	return err == nil && u.Path != "" && !strings.ContainsAny(target, " \x00\n\r")
}
