package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/server"
)

// env is one booted serving stack: the store, the server in front of it
// on a loopback listener, and the oracle graph the answers are checked
// against.
type env struct {
	graph *blueprints.MemGraph // generator output: oracle for reads, model for writes
	store *core.Store
	srv   *server.Server
	ts    *httptest.Server
	http  *http.Client
	dir   string // durable directory, "" for in-memory stores

	userBytes int64   // attribute JSON + edge triples + labels loaded
	loadS     float64 // core.Load alone

	spans *spanLog // nil unless the run is traced
}

// boot puts the server in front of e.store, configured as cmd/sqlgraphd
// does by default: 64 in flight, executor parallelism GOMAXPROCS, the
// request log formatted (into io.Discard, not stderr) and the history
// sampler on.
func (e *env) boot(clients int) {
	e.store.SetParallelism(0)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	e.srv = server.New(e.store, server.Config{
		MaxInFlight:    64,
		RequestTimeout: 30 * time.Second,
		SessionTTL:     60 * time.Second,
		MaxBodyBytes:   1 << 20,
		Logger:         logger,
		SlowQuery:      250 * time.Millisecond,
		TraceBuffer:    128,
		SampleInterval: time.Second,
	})
	h := e.srv.Handler()
	if e.spans != nil {
		h = e.spans.wrap(h)
	}
	e.ts = httptest.NewServer(h)
	e.http = &http.Client{
		Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients},
		Timeout:   60 * time.Second,
	}
}

// stopServer drains the serving layer and checks it released every
// snapshot it pinned. The store stays open.
func (e *env) stopServer() error {
	if e.ts == nil {
		return nil
	}
	e.http.CloseIdleConnections()
	e.ts.Close()
	e.ts = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Close(ctx); err != nil {
		return err
	}
	if pins := e.store.PinnedSnapshots(); pins != 0 {
		return fmt.Errorf("%d snapshot pin(s) leaked after drain", pins)
	}
	return nil
}

// close releases everything, including the durable directory. It is
// called on every exit path.
func (e *env) close() {
	if e == nil {
		return
	}
	_ = e.stopServer() // best effort: the caller is tearing down
	if e.store != nil {
		_ = e.store.Close() // a killed log reports its crash here; nothing to do about it
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// userBytesOf is the size of the data a user handed over: each vertex's
// attribute JSON, and per edge its attribute JSON, the (id, from, to)
// triple and the label.
func userBytesOf(g *blueprints.MemGraph) (int64, error) {
	var n int64
	for _, v := range g.VertexIDs() {
		attrs, err := g.VertexAttrs(v)
		if err != nil {
			return 0, err
		}
		n += attrBytes(attrs)
	}
	for _, id := range g.EdgeIDs() {
		rec, err := g.Edge(id)
		if err != nil {
			return 0, err
		}
		attrs, err := g.EdgeAttrs(id)
		if err != nil {
			return 0, err
		}
		n += attrBytes(attrs) + edgeTripleBytes + int64(len(rec.Label))
	}
	return n, nil
}

const edgeTripleBytes = 24

func attrBytes(attrs map[string]any) int64 {
	b, err := json.Marshal(attrs)
	if err != nil {
		return 0 // generator attributes are plain scalars; cannot happen
	}
	return int64(len(b))
}

// ---- requests and answers ----------------------------------------------

// op is one request of a workload together with what the harness knows
// about its answer.
type op struct {
	kind   string // template or LinkBench operation name
	write  bool
	method string
	path   string
	body   string

	gremlin string                  // query ops: the text, for the core and stage levels
	core    func(*core.Store) error // other ops: the call the handler makes
	// again returns an equivalent op with a text not sent before, for
	// workloads whose requests never repeat; nil when replaying the same
	// text is what the workload does anyway.
	again func() op

	// check validates a response the model predicted. It runs after the
	// body is drained and is part of the measured latency.
	check func(status int, body []byte) error
	// ack applies an acknowledged write to the model.
	ack func()
	// userBytes is the user data a write carries.
	userBytes int
}

// source yields a client's operation sequence. It is seed-determined and
// owned by one goroutine.
type source interface {
	next() op
}

// caller sends ops over HTTP and reuses its buffers.
type caller struct {
	e   *env
	buf bytes.Buffer
}

// do performs o and returns the latency from send to validated answer.
func (c *caller) do(o *op, requestID int) (time.Duration, int, error) {
	var rd io.Reader
	if o.body != "" {
		rd = bytes.NewBufferString(o.body)
	}
	req, err := http.NewRequest(o.method, c.e.ts.URL+o.path, rd)
	if err != nil {
		return 0, 0, err
	}
	if requestID >= 0 {
		req.Header.Set(requestHeader, strconv.Itoa(requestID))
	}
	t0 := time.Now()
	resp, err := c.e.http.Do(req)
	if err != nil {
		return time.Since(t0), 0, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return time.Since(t0), 0, err
	}
	err = o.check(resp.StatusCode, c.buf.Bytes())
	return time.Since(t0), c.buf.Len(), err
}

// queryBody is the POST /query request body for a Gremlin text.
func queryBody(text string) string {
	b, _ := json.Marshal(map[string]string{"gremlin": text}) // strings always marshal
	return string(b)
}

// answer is an order-independent digest of a result: its size and the
// wrapping sum of the FNV-1a hashes of its elements' JSON encodings. The
// store and the oracle may emit a set in different orders; both encode
// elements with encoding/json, so equal elements hash equally.
type answer struct {
	n   int
	sum uint64
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func answerOf(vals []any) (answer, error) {
	a := answer{n: len(vals)}
	for _, v := range vals {
		b, err := json.Marshal(v)
		if err != nil {
			return answer{}, err
		}
		a.sum += hashBytes(b)
	}
	return a, nil
}

// queryAnswer digests a POST /query response.
func queryAnswer(status int, body []byte) (answer, error) {
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", status, truncate(body))
	}
	var resp struct {
		Count  int               `json:"count"`
		Values []json.RawMessage `json:"values"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{}, fmt.Errorf("bad body: %v", err)
	}
	if resp.Count != len(resp.Values) {
		return answer{}, fmt.Errorf("count %d but %d values", resp.Count, len(resp.Values))
	}
	a := answer{n: len(resp.Values)}
	for _, raw := range resp.Values {
		a.sum += hashBytes(raw)
	}
	return a, nil
}

// expectAnswer is the check of a query whose answer is known beforehand.
func expectAnswer(want answer) func(int, []byte) error {
	return func(status int, body []byte) error {
		got, err := queryAnswer(status, body)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("wrong answer: got %d values (digest %x), want %d (digest %x)", got.n, got.sum, want.n, want.sum)
		}
		return nil
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// ---- the closed loop -----------------------------------------------------

// window is what one timed closed-loop run produced.
type window struct {
	elapsed    time.Duration
	attempted  int
	failed     int
	firstErr   error
	readUs     []float64 // sorted
	writeUs    []float64 // sorted
	allUs      []float64 // sorted
	byKindUs   map[string][]float64
	writeBytes int64 // user bytes carried by acknowledged writes
}

// runWindow drives one closed-loop client per source: each sends its next
// request only when the previous answer has been read and validated. The
// clients run for at least d, then on until atBoundary (if given) says
// the sequence is at a point where every run has done the same mix.
// Client 0 runs cal's kernel between two requests, every calibEvery.
func runWindow(e *env, cal *calibrator, sources []source, d time.Duration, atBoundary func(client, done int) bool, cycleEnd func() bool) *window {
	type perClient struct {
		read, write []float64
		byKind      map[string][]float64
		attempted   int
		failed      int
		firstErr    error
		writeBytes  int64
	}
	var stop atomic.Bool
	res := make([]perClient, len(sources))
	var wg sync.WaitGroup
	start := time.Now()
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src source) {
			defer wg.Done()
			pc := &res[i]
			pc.byKind = map[string][]float64{}
			c := &caller{e: e}
			for done := 0; ; done++ {
				if stop.Load() && (atBoundary == nil || atBoundary(i, done)) {
					return
				}
				if i == 0 && cal.due() {
					cal.sample()
				}
				o := src.next()
				lat, _, err := c.do(&o, -1)
				pc.attempted++
				if err != nil {
					pc.failed++
					if pc.firstErr == nil {
						pc.firstErr = fmt.Errorf("%s %s %s: %w", o.kind, o.method, o.path, err)
					}
					continue
				}
				us := float64(lat.Nanoseconds()) / 1e3
				if o.write {
					pc.write = append(pc.write, us)
					pc.writeBytes += int64(o.userBytes)
				} else {
					pc.read = append(pc.read, us)
				}
				pc.byKind[o.kind] = append(pc.byKind[o.kind], us)
				if o.ack != nil {
					o.ack()
				}
			}
		}(i, src)
	}
	time.Sleep(d)
	if cycleEnd != nil {
		// Whole cycles of background work: a run that ends just before a
		// checkpoint and one that ends just after would otherwise differ
		// by a tenth in throughput.
		limit := time.Now().Add(d)
		for !cycleEnd() && time.Now().Before(limit) {
			time.Sleep(time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	w := &window{elapsed: time.Since(start), byKindUs: map[string][]float64{}}
	for i := range res {
		pc := &res[i]
		w.attempted += pc.attempted
		w.failed += pc.failed
		if w.firstErr == nil {
			w.firstErr = pc.firstErr
		}
		w.readUs = append(w.readUs, pc.read...)
		w.writeUs = append(w.writeUs, pc.write...)
		w.writeBytes += pc.writeBytes
		for k, v := range pc.byKind {
			w.byKindUs[k] = append(w.byKindUs[k], v...)
		}
	}
	w.allUs = append(append(w.allUs, w.readUs...), w.writeUs...)
	slices.Sort(w.readUs)
	slices.Sort(w.writeUs)
	slices.Sort(w.allUs)
	return w
}
