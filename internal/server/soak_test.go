package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlgraph/internal/core"
)

// TestServerSoak hammers a live durable server with concurrent HTTP
// readers (fresh-snapshot queries, session queries, point reads),
// mutating writers, session churn, and periodic Vacuum for a fixed
// window, then shuts down gracefully and asserts the three safety
// properties the serving layer promises:
//
//  1. zero 5xx responses under churn,
//  2. zero snapshot pins after drain, and
//  3. a clean core.Check on the final store.
//
// Run with -race (CI does); -tags slow lengthens the window.
func TestServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	dir := t.TempDir()
	store, err := core.Load(figure2a(t), core.Options{Dir: dir, SnapshotEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Config{
		MaxInFlight: 32,
		MaxQueue:    64,
		SessionTTL:  150 * time.Millisecond, // force lease expiry under load
		Logger:      quietLog,
	})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	client.Timeout = 10 * time.Second

	var (
		requests  atomic.Int64
		server5xx atomic.Int64
		firstBad  sync.Once
		badBody   atomic.Value
	)
	do := func(method, path string, body string) (int, []byte) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp, err := client.Do(req)
		if err != nil {
			// Transport errors can only come from shutdown races; the
			// clients stop before the server does, so report them.
			t.Errorf("%s %s: %v", method, path, err)
			return 0, nil
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		requests.Add(1)
		if resp.StatusCode >= 500 {
			server5xx.Add(1)
			firstBad.Do(func() { badBody.Store(fmt.Sprintf("%s %s -> %d %s", method, path, resp.StatusCode, raw)) })
		}
		return resp.StatusCode, raw
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: live queries, point reads, and an explain now and then.
	queries := []string{
		`{"gremlin":"g.V.count"}`,
		`{"gremlin":"g.V.has('name', 'marko').out('knows').name"}`,
		`{"gremlin":"g.E.count"}`,
		`{"gremlin":"g.V.both.dedup().count()","explain":true}`,
		`{"gremlin":"g.V(1).out('knows').out('created').path"}`,
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					do("POST", "/query", queries[i%len(queries)])
				case 1:
					do("GET", fmt.Sprintf("/vertex/%d", 1+i%4), "")
				case 2:
					do("GET", fmt.Sprintf("/vertex/%d/out", 1+i%4), "")
				}
			}
		}(r)
	}

	// Session churn: create a session, read through it a few times
	// (some after the short TTL has expired it — 410s are expected and
	// fine), sometimes close it explicitly, sometimes abandon it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code, raw := do("POST", "/sessions", "")
			if code != http.StatusCreated {
				continue // e.g. 429 under load
			}
			var sess sessionResponse
			if err := json.Unmarshal(raw, &sess); err != nil {
				t.Errorf("session body: %v", err)
				continue
			}
			for j := 0; j < 4; j++ {
				do("POST", "/query", fmt.Sprintf(`{"gremlin":"g.V.count","session":"%s"}`, sess.Session))
				do("GET", "/vertex/1?session="+sess.Session, "")
				if j == 2 {
					time.Sleep(160 * time.Millisecond) // outlive the lease sometimes
				}
			}
			if i%2 == 0 {
				do("DELETE", "/sessions/"+sess.Session, "")
			}
		}
	}()

	// Writers: two goroutines churning disjoint vertex ranges with
	// edges into the stable Figure 2a core.
	for wid := 0; wid < 2; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			base := int64(1000 + wid*1000)
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := base + i%64
				eid := int64(1<<40) + id
				code, _ := do("POST", "/vertex", fmt.Sprintf(`{"id":%d,"attrs":{"soak":%d}}`, id, i))
				if code == http.StatusCreated {
					do("POST", "/edge", fmt.Sprintf(`{"id":%d,"from":%d,"to":1,"label":"soak"}`, eid, id))
					do("PATCH", fmt.Sprintf("/vertex/%d/attrs", id), `{"set":{"touched":true}}`)
				} else {
					do("DELETE", fmt.Sprintf("/vertex/%d", id), "") // drops the soak edge too
				}
			}
		}(wid)
	}

	// Vacuum + checkpoint ticker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				do("POST", "/admin/vacuum", "")
				do("GET", "/metrics", "")
			}
		}
	}()

	time.Sleep(soakDuration)
	close(stop)
	wg.Wait()

	// Graceful shutdown: drain, then verify the safety properties.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	t.Logf("soak: %d requests in %v", requests.Load(), soakDuration)
	if n := server5xx.Load(); n != 0 {
		t.Fatalf("%d 5xx responses during soak; first: %v", n, badBody.Load())
	}
	if pins := store.PinnedSnapshots(); pins != 0 {
		t.Fatalf("%d snapshot pin(s) leaked after drain", pins)
	}
	if vs := core.Check(store); len(vs) != 0 {
		for _, v := range vs {
			t.Error(v.String())
		}
		t.Fatalf("store failed fsck after soak: %d violation(s)", len(vs))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// And the durable directory recovers clean.
	if vs, err := core.Fsck(dir); err != nil || len(vs) != 0 {
		t.Fatalf("offline fsck after soak: err=%v violations=%v", err, vs)
	}
}
