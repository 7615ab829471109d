package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/metrics"
	"sqlgraph/internal/trace"
	"sqlgraph/internal/translate"
	"sqlgraph/internal/wal"
)

// ---- request/response shapes --------------------------------------------

// queryOptions mirrors the translation options at the wire.
type queryOptions struct {
	ForceEA         bool `json:"force_ea,omitempty"`
	ForceHashTables bool `json:"force_hash_tables,omitempty"`
}

func (o queryOptions) internal() translate.Options {
	return translate.Options{ForceEA: o.ForceEA, ForceHashTables: o.ForceHashTables}
}

// queryRequest is the /query (and /translate) body.
type queryRequest struct {
	Gremlin string       `json:"gremlin"`
	Session string       `json:"session,omitempty"`
	Options queryOptions `json:"options,omitempty"`
	Explain bool         `json:"explain,omitempty"`
}

// queryResponse is the /query result. Version is the MVCC version the
// query read at; TraceID names the trace retained at /debug/queries/{id}.
// The explain fields (SQL, Plan, PlanText, Stats) are populated only
// when the request sets "explain": the translated SQL, the timed span
// tree (EXPLAIN ANALYZE as JSON), its pretty-printed text form, and the
// legacy executor-stats string.
type queryResponse struct {
	Count    int          `json:"count"`
	Values   []any        `json:"values"`
	Version  uint64       `json:"version"`
	TraceID  string       `json:"trace_id,omitempty"`
	SQL      string       `json:"sql,omitempty"`
	Plan     *trace.Trace `json:"plan,omitempty"`
	PlanText string       `json:"plan_text,omitempty"`
	Stats    string       `json:"stats,omitempty"`
}

type translateResponse struct {
	SQL      string `json:"sql"`      // the literal statement
	Template string `json:"template"` // the statement prepared for the query's shape, ?N where its literals are bound
	ElemType string `json:"elem_type"`
}

type sessionResponse struct {
	Session string `json:"session"`
	Version uint64 `json:"version"`
	TTLMs   int64  `json:"ttl_ms"`
}

type vertexBody struct {
	ID    int64          `json:"id"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

type edgeBody struct {
	ID    int64          `json:"id"`
	From  int64          `json:"from"`
	To    int64          `json:"to"`
	Label string         `json:"label"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

type attrPatch struct {
	Set    map[string]any `json:"set,omitempty"`
	Remove []string       `json:"remove,omitempty"`
}

type edgeList struct {
	Count int        `json:"count"`
	Edges []edgeBody `json:"edges"`
}

// ---- decoding helpers ---------------------------------------------------

// decode reads a JSON body, answering 413 for oversized bodies and 400
// for anything unparsable. Unknown fields are rejected so typos fail
// loudly instead of silently running with defaults.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		}
		return false
	}
	return true
}

// pathID parses the {id} path segment.
func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad id: "+r.PathValue("id"))
		return 0, false
	}
	return id, true
}

// acquireRead resolves the view a read request runs on: the session's
// pinned snapshot when sessionID names one, otherwise a fresh snapshot
// pinned for just this request. release must be called when done.
func (s *Server) acquireRead(sessionID string) (view *core.Snap, release func(), err error) {
	if sessionID != "" {
		sess, err := s.sess.Acquire(sessionID)
		if err != nil {
			return nil, nil, err
		}
		return sess.snap, func() { s.sess.Done(sess) }, nil
	}
	snap := s.st().Snapshot()
	return snap, snap.Close, nil
}

// ---- health, metrics, stats ---------------------------------------------

// handleHealth answers liveness plus role detail. The body stays a
// single small JSON object and always carries "status":"ok" with a 200,
// so load-balancer probes that just match the status line or the "ok"
// token keep their fast path; orchestration that cares about roles
// reads the rest. A degraded follower is still "ok" — it serves reads —
// with its staleness spelled out in lag_seconds/connected.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok"}
	if rep := s.replica.Load(); rep != nil {
		st := rep.Status()
		body["role"] = "replica"
		body["primary"] = st.Primary
		body["state"] = st.State
		body["connected"] = st.Connected
		body["applied_lsn"] = st.AppliedLSN
		body["primary_lsn"] = st.PrimaryLSN
		body["lag_seconds"] = st.LagSeconds
	} else {
		body["role"] = "primary"
		body["applied_lsn"] = s.st().AppliedLSN()
		body["durable"] = s.st().Dir() != ""
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	s.met.write(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.run(w, r, func() (any, int, error) {
		out, in, va, err := s.st().Stats()
		if err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{
			"hash_tables":      map[string]any{"out": out.String(), "in": in.String()},
			"vertex_attr_rows": va.Rows,
			"vertices":         s.st().CountVertices(),
			"edges":            s.st().CountEdges(),
			"bytes":            s.st().TotalBytes(),
			"pinned_snapshots": s.st().PinnedSnapshots(),
			"sessions_open":    s.sess.Open(),
			"version":          uint64(s.st().Catalog().CurrentVersion()),
			"optimizer":        s.st().OptimizerStats().Describe(16),
		}, http.StatusOK, nil
	})
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.run(w, r, func() (any, int, error) {
		vs := core.Check(s.st())
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.String()
		}
		return map[string]any{"violations": out, "healthy": len(out) == 0}, http.StatusOK, nil
	})
}

func (s *Server) handleVacuum(w http.ResponseWriter, r *http.Request) {
	s.run(w, r, func() (any, int, error) {
		n, err := s.st().Vacuum()
		if err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{"removed": n}, http.StatusOK, nil
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.run(w, r, func() (any, int, error) {
		if err := s.st().Checkpoint(); err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{"checkpointed": true}, http.StatusOK, nil
	})
}

// ---- trace inspection ---------------------------------------------------

// debugQueriesResponse is the GET /debug/queries body: recent query and
// write traces plus the slow-query log, all newest first.
type debugQueriesResponse struct {
	Recent    []*trace.Trace `json:"recent"`
	Slow      []*trace.Trace `json:"slow"`
	Writes    []*trace.Trace `json:"writes"`
	SlowCount uint64         `json:"slow_count"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	rec := s.st().Tracer()
	writeJSON(w, http.StatusOK, debugQueriesResponse{
		Recent:    rec.Queries(),
		Slow:      rec.Slow(),
		Writes:    rec.Writes(),
		SlowCount: rec.SlowCount(),
	})
}

func (s *Server) handleDebugQueryGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.st().Tracer().Get(id)
	if t == nil {
		writeError(w, http.StatusNotFound, "no retained trace with id "+id)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, t.Text())
		if _, args := t.Statement(); t.Template != "" {
			// The statement as prepared for the query's shape, and what this
			// request bound to it (the sql: line above is the two together).
			fmt.Fprintf(w, "template: %s\nargs: %s\n", t.Template, strings.Join(args, " | "))
		}
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// debugEventsResponse is the GET /debug/events body: retained lifecycle
// events newest first, plus the total ever recorded (so a reader can
// tell when the ring has evicted).
type debugEventsResponse struct {
	Events []metrics.Event `json:"events"`
	Total  uint64          `json:"total"`
}

func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	evs := s.events.Events()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		for _, e := range evs {
			fmt.Fprintln(w, e.Text())
		}
		return
	}
	writeJSON(w, http.StatusOK, debugEventsResponse{Events: evs, Total: s.events.Total()})
}

// debugHistoryResponse is the GET /debug/history body: sampler metadata
// plus the retained samples inside the requested window, oldest first.
type debugHistoryResponse struct {
	IntervalMs float64          `json:"interval_ms"`
	Retention  int              `json:"retention"`
	Samples    []metrics.Sample `json:"samples"`
}

func (s *Server) handleDebugHistory(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeError(w, http.StatusNotFound, "history sampling is disabled")
		return
	}
	var window time.Duration
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad window: "+raw)
			return
		}
		window = d
	}
	writeJSON(w, http.StatusOK, debugHistoryResponse{
		IntervalMs: float64(s.sampler.Interval()) / float64(time.Millisecond),
		Retention:  s.sampler.Retention(),
		Samples:    s.sampler.History(window),
	})
}

// ---- query & translate --------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	traceID := ""
	if st := stateFrom(r.Context()); st != nil {
		traceID = st.traceID
	}
	s.run(w, r, func() (any, int, error) {
		view, release, err := s.acquireRead(req.Session)
		if err != nil {
			return nil, statusFor(err), err
		}
		defer release()
		res, err := view.QueryTraced(req.Gremlin, req.Options.internal(), traceID)
		if err != nil {
			s.met.observeExec(nil, err)
			return nil, statusFor(err), err
		}
		s.met.observeExec(&res.Stats, nil)
		s.met.observeTrace(res.Trace)
		vals := res.Values
		if vals == nil {
			vals = []any{}
		}
		resp := queryResponse{Count: len(vals), Values: vals, Version: view.Version()}
		if tr := res.Trace; tr != nil {
			resp.TraceID = tr.ID
			if req.Explain {
				resp.SQL, _ = tr.Statement()
				resp.Plan = tr
				resp.PlanText = tr.Text()
				resp.Stats = res.Stats.String()
			}
		}
		return resp, http.StatusOK, nil
	})
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.run(w, r, func() (any, int, error) {
		tr, err := s.st().Translate(req.Gremlin, req.Options.internal())
		if err != nil {
			return nil, statusFor(err), err
		}
		return translateResponse{SQL: tr.SQL, Template: tr.Template, ElemType: tr.ElemType.String()}, http.StatusOK, nil
	})
}

// ---- sessions -----------------------------------------------------------

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.run(w, r, func() (any, int, error) {
		sess, err := s.sess.Create(s.st())
		if err != nil {
			return nil, statusFor(err), err
		}
		return sessionResponse{Session: sess.id, Version: sess.snap.Version(), TTLMs: s.cfg.SessionTTL.Milliseconds()},
			http.StatusCreated, nil
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.run(w, r, func() (any, int, error) {
		sess, err := s.sess.Acquire(id)
		if err != nil {
			return nil, statusFor(err), err
		}
		defer s.sess.Done(sess)
		return sessionResponse{Session: sess.id, Version: sess.snap.Version(), TTLMs: s.cfg.SessionTTL.Milliseconds()},
			http.StatusOK, nil
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.run(w, r, func() (any, int, error) {
		if err := s.sess.Close(id); err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{"closed": id}, http.StatusOK, nil
	})
}

// ---- point reads --------------------------------------------------------

func (s *Server) handleVertexGet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	s.run(w, r, func() (any, int, error) {
		view, release, err := s.acquireRead(r.URL.Query().Get("session"))
		if err != nil {
			return nil, statusFor(err), err
		}
		defer release()
		attrs, err := view.VertexAttrs(id)
		if err != nil {
			return nil, statusFor(err), err
		}
		return vertexBody{ID: id, Attrs: attrs}, http.StatusOK, nil
	})
}

func (s *Server) handleVertexEdges(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var labels []string
	if l := r.URL.Query().Get("label"); l != "" {
		labels = []string{l}
	}
	outgoing := r.URL.Path[len(r.URL.Path)-4:] == "/out"
	s.run(w, r, func() (any, int, error) {
		view, release, err := s.acquireRead(r.URL.Query().Get("session"))
		if err != nil {
			return nil, statusFor(err), err
		}
		defer release()
		var recs []blueprints.EdgeRec
		if outgoing {
			recs, err = view.OutEdges(id, labels...)
		} else {
			recs, err = view.InEdges(id, labels...)
		}
		if err != nil {
			return nil, statusFor(err), err
		}
		list := edgeList{Count: len(recs), Edges: make([]edgeBody, len(recs))}
		for i, rec := range recs {
			list.Edges[i] = edgeBody{ID: rec.ID, From: rec.Out, To: rec.In, Label: rec.Label}
		}
		return list, http.StatusOK, nil
	})
}

func (s *Server) handleEdgeGet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	s.run(w, r, func() (any, int, error) {
		view, release, err := s.acquireRead(r.URL.Query().Get("session"))
		if err != nil {
			return nil, statusFor(err), err
		}
		defer release()
		rec, err := view.Edge(id)
		if err != nil {
			return nil, statusFor(err), err
		}
		attrs, err := view.EdgeAttrs(id)
		if err != nil {
			return nil, statusFor(err), err
		}
		return edgeBody{ID: rec.ID, From: rec.Out, To: rec.In, Label: rec.Label, Attrs: attrs}, http.StatusOK, nil
	})
}

// ---- mutations ----------------------------------------------------------

func (s *Server) handleVertexAdd(w http.ResponseWriter, r *http.Request) {
	var body vertexBody
	if !s.decode(w, r, &body) {
		return
	}
	s.run(w, r, func() (any, int, error) {
		if err := s.st().AddVertex(body.ID, body.Attrs); err != nil {
			return nil, statusFor(err), err
		}
		return vertexBody{ID: body.ID, Attrs: body.Attrs}, http.StatusCreated, nil
	})
}

func (s *Server) handleVertexDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	s.run(w, r, func() (any, int, error) {
		if err := s.st().RemoveVertex(id); err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{"removed": id}, http.StatusOK, nil
	})
}

func (s *Server) handleEdgeAdd(w http.ResponseWriter, r *http.Request) {
	var body edgeBody
	if !s.decode(w, r, &body) {
		return
	}
	s.run(w, r, func() (any, int, error) {
		if err := s.st().AddEdge(body.ID, body.From, body.To, body.Label, body.Attrs); err != nil {
			return nil, statusFor(err), err
		}
		return body, http.StatusCreated, nil
	})
}

func (s *Server) handleEdgeDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	s.run(w, r, func() (any, int, error) {
		if err := s.st().RemoveEdge(id); err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{"removed": id}, http.StatusOK, nil
	})
}

// handleVertexAttrs and handleEdgeAttrs apply a {"set": {...},
// "remove": [...]} patch as one write: sets in sorted key order (so a
// patch is deterministic), then removes, all committed or none.
func (s *Server) handleVertexAttrs(w http.ResponseWriter, r *http.Request) {
	s.handleAttrPatch(w, r, false)
}

func (s *Server) handleEdgeAttrs(w http.ResponseWriter, r *http.Request) {
	s.handleAttrPatch(w, r, true)
}

func (s *Server) handleAttrPatch(w http.ResponseWriter, r *http.Request, edge bool) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var patch attrPatch
	if !s.decode(w, r, &patch) {
		return
	}
	set, remove := core.BatchSetVertexAttr, core.BatchRemoveVertexAttr
	if edge {
		set, remove = core.BatchSetEdgeAttr, core.BatchRemoveEdgeAttr
	}
	s.run(w, r, func() (any, int, error) {
		keys := make([]string, 0, len(patch.Set))
		for k := range patch.Set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		recs := make([]wal.Record, 0, len(keys)+len(patch.Remove))
		for _, k := range keys {
			recs = append(recs, set(id, k, patch.Set[k]))
		}
		for _, k := range patch.Remove {
			recs = append(recs, remove(id, k))
		}
		if err := s.st().ApplyBatch(recs); err != nil {
			return nil, statusFor(err), err
		}
		return map[string]any{"id": id, "set": len(keys), "removed": len(patch.Remove)}, http.StatusOK, nil
	})
}
