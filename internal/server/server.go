// Package server is the HTTP serving layer over a sqlgraph store: a
// stdlib-only JSON API exposing Gremlin queries, translation, point
// reads, mutations, statistics, and health, built for concurrent
// multi-client traffic.
//
// Reads run on pinned MVCC snapshots — one per request, or one per
// client-held session with a TTL lease (see session.go) — so they never
// block the store's serialized writer. Production-shaped robustness is
// layered as middleware: admission control bounds in-flight work (429 +
// Retry-After on saturation), every request carries a context deadline
// (504 on expiry), panics become 500s, and graceful shutdown drains
// admitted requests before unpinning every snapshot.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/metrics"
	"sqlgraph/internal/trace"
)

// maxSessions bounds concurrently open sessions.
const maxSessions = 1024

// retryAfter is the hint returned with 429 responses.
const retryAfter = time.Second

// Config tunes the serving layer. Zero values pick production-shaped
// defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (default 64).
	MaxInFlight int
	// MaxQueue bounds requests waiting for admission beyond MaxInFlight;
	// anything past that is answered 429 immediately (default MaxInFlight).
	MaxQueue int
	// RequestTimeout is the default per-request deadline; requests may
	// shorten (never extend) it with "timeout_ms" (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size; larger bodies get 413
	// (default 1 MiB).
	MaxBodyBytes int64
	// SessionTTL is the snapshot-session lease; every use renews it, and
	// an unused session expires and unpins (default 60s).
	SessionTTL time.Duration
	// Logger receives the structured request log: one summary line per
	// HTTP request plus panic stacks and slow-query warnings (default:
	// slog.Default()).
	Logger *slog.Logger
	// SlowQuery is the threshold above which a query trace lands in the
	// slow-query log (default 250ms; negative disables slow capture).
	SlowQuery time.Duration
	// TraceBuffer is how many recent traces per kind the /debug/queries
	// rings retain (default 128).
	TraceBuffer int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ when set.
	// Off by default: profiles expose internals, so turning them on is a
	// deliberate operator decision.
	EnablePprof bool
	// ReplicationPoll is how often an idle /wal stream re-checks the log
	// for new frames (default 25ms).
	ReplicationPoll time.Duration
	// ReplicationHeartbeat is how often an idle /wal stream emits a
	// heartbeat frame so followers can measure lag and liveness
	// (default 500ms).
	ReplicationHeartbeat time.Duration
	// SampleInterval is the history sampler cadence: every registered
	// metric is snapshotted this often into the /debug/history ring
	// (default 1s; negative disables sampling).
	SampleInterval time.Duration
	// SampleRetention is how many history samples the ring keeps
	// (default 600 — ten minutes at the default cadence).
	SampleRetention int
	// EventBuffer is how many lifecycle events /debug/events retains
	// (default 256).
	EventBuffer int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 60 * time.Second
	}
	if c.ReplicationPoll <= 0 {
		c.ReplicationPoll = 25 * time.Millisecond
	}
	if c.ReplicationHeartbeat <= 0 {
		c.ReplicationHeartbeat = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server serves one store over HTTP. Create with New, expose with
// Handler, and stop with Close (which drains in-flight requests and
// unpins every snapshot; the store itself is not closed).
type Server struct {
	// store is swappable: a replica re-bootstrapping from a primary
	// snapshot installs a fresh store under live traffic. Handlers grab
	// it once per request via st(); in-flight readers keep their pinned
	// snapshot on the old store, which stays valid in memory.
	store   atomic.Pointer[core.Store]
	replica atomic.Pointer[Replicator]
	cfg     Config
	adm     *admission
	met     *telemetry
	sess    *sessions
	mux     *http.ServeMux

	events  *metrics.Journal // lifecycle event journal, shared across store swaps
	sampler *metrics.Sampler // /debug/history ring (nil when disabled)

	// Per-follower /wal stream registry for primary-side lag gauges.
	walStreams   sync.Map // stream id (uint64) -> *walStreamInfo
	walStreamSeq atomic.Uint64

	lastSaturated atomic.Int64 // unix nanos of the last saturation event (episode debounce)

	closed atomic.Bool
	wg     sync.WaitGroup // in-flight handlers and abandoned workers
}

// New builds a Server over an open store.
func New(store *core.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		sess:   newSessions(cfg.SessionTTL, maxSessions),
		mux:    http.NewServeMux(),
		events: metrics.NewJournal(cfg.EventBuffer),
	}
	s.events.SetLogger(cfg.Logger)
	s.store.Store(store)
	// Telemetry callbacks read through st() so they follow store swaps.
	s.met = newTelemetry(s)
	s.configureTracer(store)
	store.SetEventJournal(s.events)
	if cfg.SampleInterval >= 0 {
		s.sampler = metrics.NewSampler(s.met.reg, cfg.SampleInterval, cfg.SampleRetention)
		s.sampler.Start()
	}
	s.routes()
	return s
}

// st returns the store currently being served.
func (s *Server) st() *core.Store { return s.store.Load() }

// SetStore atomically replaces the served store (replica re-bootstrap).
// The old store is not closed here: in-flight requests and open sessions
// may still hold its snapshots.
func (s *Server) SetStore(store *core.Store) {
	s.configureTracer(store)
	// The journal outlives store swaps: a freshly bootstrapped replica
	// store keeps appending to the same event history.
	store.SetEventJournal(s.events)
	s.store.Store(store)
}

// configureTracer wires the store's trace recorder: retention, slow
// threshold, and the structured logger for slow-query warnings. The
// metrics endpoint scrapes the recorder's counters live rather than
// mirroring them.
func (s *Server) configureTracer(store *core.Store) {
	rec := store.Tracer()
	if s.cfg.TraceBuffer > 0 {
		rec.SetRingSize(s.cfg.TraceBuffer)
	}
	rec.SetSlowThreshold(s.cfg.SlowQuery)
	rec.SetLogger(s.cfg.Logger)
}

// AttachReplica marks this server as a read-only follower fed by rep:
// mutations are refused with 421 pointing at the primary, /healthz and
// /metrics report replication state, and rep's re-bootstraps swap the
// served store.
func (s *Server) AttachReplica(rep *Replicator) {
	s.replica.Store(rep)
	rep.onSwap = s.SetStore
	// Carry events recorded before attachment (bootstrap resync,
	// snapshot install) into the server's journal, then share it.
	if prev := rep.events.Swap(s.events); prev != nil && prev != s.events {
		s.events.Replay(prev.Events())
	}
	s.met.registerReplica(func() ReplicaStatus { return s.replica.Load().Status() })
}

func (s *Server) routes() {
	// Health and metrics bypass admission so they stay responsive under
	// saturation (that is when you need them).
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))

	admit := func(route string, h http.HandlerFunc) http.HandlerFunc {
		return s.instrument(route, s.gated(h))
	}
	// Mutations are refused on followers: there is one serialized writer,
	// and it lives on the primary.
	mutate := func(route string, h http.HandlerFunc) http.HandlerFunc {
		return s.instrument(route, s.gated(s.primaryOnly(h)))
	}
	s.mux.HandleFunc("POST /query", admit("/query", s.handleQuery))
	s.mux.HandleFunc("POST /translate", admit("/translate", s.handleTranslate))

	s.mux.HandleFunc("POST /sessions", admit("/sessions", s.handleSessionCreate))
	s.mux.HandleFunc("GET /sessions/{id}", admit("/sessions/{id}", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /sessions/{id}", admit("/sessions/{id}", s.handleSessionDelete))

	s.mux.HandleFunc("GET /vertex/{id}", admit("/vertex/{id}", s.handleVertexGet))
	s.mux.HandleFunc("GET /vertex/{id}/out", admit("/vertex/{id}/out", s.handleVertexEdges))
	s.mux.HandleFunc("GET /vertex/{id}/in", admit("/vertex/{id}/in", s.handleVertexEdges))
	s.mux.HandleFunc("GET /edge/{id}", admit("/edge/{id}", s.handleEdgeGet))

	s.mux.HandleFunc("POST /vertex", mutate("/vertex", s.handleVertexAdd))
	s.mux.HandleFunc("DELETE /vertex/{id}", mutate("/vertex/{id}", s.handleVertexDelete))
	s.mux.HandleFunc("PATCH /vertex/{id}/attrs", mutate("/vertex/{id}/attrs", s.handleVertexAttrs))
	s.mux.HandleFunc("POST /edge", mutate("/edge", s.handleEdgeAdd))
	s.mux.HandleFunc("DELETE /edge/{id}", mutate("/edge/{id}", s.handleEdgeDelete))
	s.mux.HandleFunc("PATCH /edge/{id}/attrs", mutate("/edge/{id}/attrs", s.handleEdgeAttrs))
	s.mux.HandleFunc("POST /batch", mutate("/batch", s.handleBatch))

	s.mux.HandleFunc("GET /stats", admit("/stats", s.handleStats))
	s.mux.HandleFunc("GET /check", admit("/check", s.handleCheck))
	s.mux.HandleFunc("POST /admin/vacuum", mutate("/admin/vacuum", s.handleVacuum))
	s.mux.HandleFunc("POST /admin/checkpoint", mutate("/admin/checkpoint", s.handleCheckpoint))

	// Replication: a follower bootstraps from /snapshot, then tails /wal.
	// Both bypass admission — /wal connections are long-lived (they would
	// permanently occupy admission slots), and both must stay available
	// while the primary is saturated with queries, or replicas fall
	// behind exactly when write volume is highest.
	s.mux.HandleFunc("GET /wal", s.instrument("/wal", s.handleWALStream))
	s.mux.HandleFunc("GET /snapshot", s.instrument("/snapshot", s.handleSnapshot))

	// Trace inspection bypasses admission for the same reason /metrics
	// does: the slow-query log is most valuable when the server is busy.
	s.mux.HandleFunc("GET /debug/queries", s.instrument("/debug/queries", s.handleDebugQueries))
	s.mux.HandleFunc("GET /debug/queries/{id}", s.instrument("/debug/queries/{id}", s.handleDebugQueryGet))

	// Lifecycle events and metric history also bypass admission: they are
	// the tools for diagnosing a saturated or misbehaving server.
	s.mux.HandleFunc("GET /debug/events", s.instrument("/debug/events", s.handleDebugEvents))
	s.mux.HandleFunc("GET /debug/history", s.instrument("/debug/history", s.handleDebugHistory))

	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// Handler returns the root handler (panic recovery wraps everything).
func (s *Server) Handler() http.Handler { return s.recovered(s.mux) }

// Sessions reports the number of open snapshot sessions.
func (s *Server) Sessions() int { return s.sess.Open() }

// InFlight reports the number of admitted requests.
func (s *Server) InFlight() int { return s.adm.InFlight() }

// Close drains the server: new requests are rejected (503), queued
// requests are woken rejected, admitted requests (including workers
// whose clients already timed out) run to completion or until ctx
// expires, and every session snapshot is unpinned. The store is left
// open for the caller. Close is idempotent; only the first call drains.
func (s *Server) Close(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.sampler != nil {
		s.sampler.Stop()
	}
	s.adm.Close()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		// A mutation answered moments ago may have started the store's
		// background checkpoint, which reads on a pinned snapshot: drained
		// means that is over too, so the store is quiescent (and holds no
		// pin) when Close returns.
		s.st().WaitCheckpointIdle()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain: %w", ctx.Err())
	}
	s.sess.Shutdown()
	return err
}

// recovered is the outermost middleware: any panic in request handling
// becomes a 500 instead of tearing the daemon down.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.addPanic()
				s.cfg.Logger.Error("panic serving request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())))
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// reqState carries per-request observability state between middleware
// layers: the trace id adopted from (or minted for) the request, and the
// time it spent queued for admission. run writes admissionWait before
// the handler returns, so instrument's read after next() never races.
type reqState struct {
	traceID       string
	admissionWait time.Duration
}

type reqStateKey struct{}

// stateFrom returns the request's observability state, or nil outside
// the instrument middleware (direct handler tests).
func stateFrom(ctx context.Context) *reqState {
	st, _ := ctx.Value(reqStateKey{}).(*reqState)
	return st
}

// traceIDFor adopts the trace-id from an incoming W3C traceparent
// header, or mints a fresh one.
func traceIDFor(r *http.Request) string {
	if id := trace.ParseTraceparent(r.Header.Get("traceparent")); id != "" {
		return id
	}
	return trace.NewID()
}

// instrument is the observability middleware: it resolves the request's
// trace id (honoring an incoming traceparent), echoes it in the response
// headers, records per-route counts and latency, tracks the handler in
// the drain group, and emits one structured summary line per request.
func (s *Server) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.wg.Add(1)
		defer s.wg.Done()
		t0 := time.Now()
		st := &reqState{traceID: traceIDFor(r)}
		r = r.WithContext(context.WithValue(r.Context(), reqStateKey{}, st))
		w.Header().Set("X-Trace-Id", st.traceID)
		w.Header().Set("Traceparent", trace.Traceparent(st.traceID))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next(sw, r)
		d := time.Since(t0)
		s.met.observeRequest(route, sw.code, d)
		s.cfg.Logger.Info("request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Duration("dur", d),
			slog.String("trace_id", st.traceID),
			slog.Duration("admission_wait", st.admissionWait))
	}
}

// gated applies the request deadline and body cap, and fails fast
// during shutdown. It is the gate every store-touching route passes;
// admission itself happens in run, after the (cheap) body decode.
func (s *Server) gated(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.closed.Load() {
			s.met.addShutdownDrop()
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(r))
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		next(w, r)
	}
}

// timeoutFor derives the request deadline: the configured default,
// optionally shortened by a timeout_ms query parameter or X-Timeout-Ms
// header.
func (s *Server) timeoutFor(r *http.Request) time.Duration {
	d := s.cfg.RequestTimeout
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		raw = r.Header.Get("X-Timeout-Ms")
	}
	if raw != "" {
		var ms int64
		if _, err := fmt.Sscanf(raw, "%d", &ms); err == nil && ms > 0 {
			if t := time.Duration(ms) * time.Millisecond; t < d {
				d = t
			}
		}
	}
	return d
}

// run admits the request, executes fn on a worker goroutine, and waits
// for it or the request deadline, whichever comes first. The admission
// slot and the drain group follow the worker, not the handler: a query
// the client gave up on still occupies a slot until it finishes, so
// MaxInFlight truly bounds executing work, and Close waits for it
// before declaring the store quiesced. fn must not touch the
// ResponseWriter.
func (s *Server) run(w http.ResponseWriter, r *http.Request, fn func() (any, int, error)) {
	admT := time.Now()
	err := s.adm.Acquire(r.Context())
	if st := stateFrom(r.Context()); st != nil {
		st.admissionWait = time.Since(admT)
	}
	switch {
	case err == nil:
		s.met.addAdmitted()
	case errors.Is(err, ErrSaturated):
		s.met.addRejected()
		// One journal entry per saturation episode, not per rejected
		// request: a new episode starts after 5s without rejections.
		now := time.Now().UnixNano()
		if last := s.lastSaturated.Swap(now); now-last > int64(5*time.Second) {
			s.events.Record("admission-saturated",
				fmt.Sprintf("in_flight=%d queued=%d", s.adm.InFlight(), s.adm.Queued()))
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, "server saturated, retry later")
		return
	case errors.Is(err, ErrShuttingDown):
		s.met.addShutdownDrop()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	default: // context expired while queued for admission
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded waiting for admission")
		return
	}
	type outcome struct {
		body any
		code int
		err  error
	}
	ch := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.adm.Release()
		defer func() {
			if rec := recover(); rec != nil {
				s.met.addPanic()
				s.cfg.Logger.Error("panic in request worker",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())))
				ch <- outcome{nil, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec)}
			}
		}()
		body, code, err := fn()
		ch <- outcome{body, code, err}
	}()

	select {
	case out := <-ch:
		if out.err != nil {
			writeError(w, out.code, out.err.Error())
			return
		}
		writeJSON(w, out.code, out.body)
	case <-r.Context().Done():
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	}
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so chunked streams (the /wal
// endpoint) push frames to the client instead of sitting in the buffer.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg, Status: code})
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if body == nil {
		return
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// statusFor maps store and session errors onto HTTP codes: unparsable
// or untranslatable Gremlin is the client's fault (400, with the parse
// position in the message), missing elements are 404, duplicate ids
// 409, dead sessions 410, and anything else is ours (500).
func statusFor(err error) int {
	switch {
	case errors.Is(err, blueprints.ErrNotFound), errors.Is(err, ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, blueprints.ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrSessionGone), errors.Is(err, core.ErrSnapshotClosed):
		return http.StatusGone
	case errors.Is(err, ErrTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrUnknownColumn):
		// A translated query referencing a nonexistent column (e.g. a
		// bare identifier in a has() step) is the query's fault.
		return http.StatusBadRequest
	}
	msg := err.Error()
	if strings.HasPrefix(msg, "gremlin:") || strings.HasPrefix(msg, "translate:") ||
		strings.HasPrefix(msg, "core: vertex ids") || strings.HasPrefix(msg, "core: edge ids") ||
		strings.HasPrefix(msg, "core: checkpoint: store is not durable") ||
		strings.HasPrefix(msg, "core: snapshot export") ||
		strings.HasPrefix(msg, "core: batch op") {
		// Batch errors not already mapped by errors.Is above are the
		// request's fault: invalid ids, unparsable docs, unbatchable ops.
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
