package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sqlgraph/internal/core"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/translate"
)

// The traced pass records spans from outside the program, around the
// calls into each layer. One execution cannot be cut at a boundary the
// harness cannot reach into, so each sampled op is executed once per
// level:
//
//	level 0  the HTTP round trip; the handler span inside it is recorded
//	         by a wrapper around the server's root handler
//	level 1  the call the handler makes into core
//	level 2  the calls core makes: gremlin.Parse, translate, sql.Parse,
//	         engine.QueryStmtHintedAt (queries only)
//
// Spans of one op share its request id. Within a level, children lie
// inside their parent in time. A span's parent on another level is the
// span it would have run under had it been the same execution; self
// times across levels are therefore differences between executions,
// taken per op and then as a median over ops.

const requestHeader = "X-Bench-Request"

// span is one timed call. StartNs and EndNs count from the start of the
// traced pass.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Request int    `json:"request"`
	Level   int    `json:"level"`
	Name    string `json:"name"`
	Kind    string `json:"kind"` // the op's template or operation name
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Derived marks a span whose duration comes from the program's own
	// counters (WAL append and commit wait) and whose position inside its
	// parent is therefore assigned, not observed.
	Derived bool `json:"derived,omitempty"`
}

func (s *span) dur() float64 { return float64(s.EndNs-s.StartNs) / 1e3 } // µs

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	on      atomic.Bool
	pending map[int]int // request id -> id of its client.http span
}

func newSpanLog() *spanLog { return &spanLog{pending: map[int]int{}} }

func (l *spanLog) now() int64 { return time.Since(l.t0).Nanoseconds() }

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// wrap records a server.handler span for every request that carries a
// request id while recording is on. With recording off it costs one
// atomic load, which is what the untraced window of a traced run pays.
func (l *spanLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, err := strconv.Atoi(r.Header.Get(requestHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := l.now()
		next.ServeHTTP(w, r)
		end := l.now()
		l.mu.Lock()
		parent := l.pending[req]
		l.mu.Unlock()
		l.add(span{Parent: parent, Request: req, Level: 0, Name: "server.handler", StartNs: start, EndNs: end})
	})
}

// byKind holds one time per sampled op, in µs, grouped by op kind.
type byKind map[string][]float64

func (b byKind) add(kind string, us float64) { b[kind] = append(b[kind], us) }

func (b byKind) n() int {
	n := 0
	for _, v := range b {
		n += len(v)
	}
	return n
}

// perOp is the time this layer is busy per op of the mix: each kind's
// median, weighted by the kind's share of the sample. A median over all
// ops would sit on the border between the cheap and the dear kinds and
// jump with their order; a mean would carry the one op in a thousand
// that triggers a checkpoint.
func (b byKind) perOp() float64 {
	var sum float64
	for _, v := range b {
		sum += median(v) * float64(len(v))
	}
	return ratio(sum, float64(b.n()))
}

// traceSample is what the traced pass measured, per op.
type traceSample struct {
	netUs     byKind // http − handler, same execution
	handlerUs byKind
	coreQuery byKind
	// Self times across levels are differences between two executions of
	// one op, so their noise grows with the op's cost while they do not:
	// the median over all ops rests on the ops that resolve them.
	serverSelf []float64 // handler − core call
	coreSelf   []float64 // core.query − its stage calls
	respBytes  []float64

	texts                                       []string // distinct texts compiled at level 2, for the allocation probe
	parseUs, translateUs, sqlParseUs, executeUs byKind
	sqlBytes, ctes, planVariants                []float64
	engineAllocs, engineAllocKB                 float64 // per op
	examined, results, cteRows                  int64
	scanNs, joinNs, aggSortNs, executeNs        int64
	maxWorkers                                  int
	failed                                      int
	firstErr                                    error
}

// prepared is a text compiled by the harness the way core compiles it on
// a prepared-cache miss.
type prepared struct {
	tr   *translate.Translation
	stmt *sql.SelectStmt
}

// tracedPass executes the sample: op i at level 0, then its counterpart
// at level 1, then (queries) at level 2, before moving to op i+1, so the
// three executions of one op see the same machine state.
func tracedPass(in instance, hot bool) *traceSample {
	e := in.base()
	l := e.spans
	l.t0 = time.Now()
	l.on.Store(true)
	defer l.on.Store(false)

	ts := &traceSample{netUs: byKind{}, handlerUs: byKind{}, coreQuery: byKind{},
		parseUs: byKind{}, translateUs: byKind{}, sqlParseUs: byKind{}, executeUs: byKind{}}
	fail := func(err error) {
		ts.failed++
		if ts.firstErr == nil {
			ts.firstErr = err
		}
	}
	s0, s1 := in.traceSource(0), in.traceSource(1)
	c := &caller{e: e}
	cache := map[string]*prepared{} // hot texts: compiled once, as core's prepared cache holds them
	var ms0, ms1 runtime.MemStats

	for i := 0; i < in.traceOps(); i++ {
		// Level 0.
		o := s0.next()
		httpID := l.add(span{Request: i, Level: 0, Name: "client.http", Kind: o.kind})
		l.mu.Lock()
		l.pending[i] = httpID
		l.mu.Unlock()
		start := l.now()
		_, nbytes, err := c.do(&o, i)
		end := l.now()
		l.mu.Lock()
		delete(l.pending, i)
		hs := &l.spans[httpID-1]
		hs.StartNs, hs.EndNs = start, end
		httpUs := hs.dur()
		handlerUs := -1.0
		if last := &l.spans[len(l.spans)-1]; last.Name == "server.handler" && last.Request == i {
			last.Kind = o.kind
			handlerUs = last.dur()
		}
		handlerID := len(l.spans)
		l.mu.Unlock()
		if err != nil {
			fail(fmt.Errorf("traced %s %s: %w", o.kind, o.path, err))
			continue
		}
		if o.ack != nil {
			o.ack()
		}
		if handlerUs < 0 {
			fail(fmt.Errorf("traced %s %s: no handler span recorded", o.kind, o.path))
			continue
		}
		ts.handlerUs.add(o.kind, handlerUs)
		ts.netUs.add(o.kind, httpUs-handlerUs)
		ts.respBytes = append(ts.respBytes, float64(nbytes))

		// Level 1.
		o1 := s1.next()
		if o1.gremlin == "" {
			before := e.store.Tracer().WriteStats()
			start = l.now()
			err = o1.core(e.store)
			end = l.now()
			after := e.store.Tracer().WriteStats()
			name := "core.read"
			if o1.write {
				name = "core.write"
			}
			id := l.add(span{Parent: handlerID, Request: i, Level: 1, Name: name, Kind: o1.kind, StartNs: start, EndNs: end})
			if err != nil {
				fail(fmt.Errorf("traced core %s: %w", o1.kind, err))
				continue
			}
			if o1.ack != nil {
				o1.ack()
			}
			ts.serverSelf = append(ts.serverSelf, handlerUs-float64(end-start)/1e3)
			// The log's own counters say how much of the call was WAL
			// append and commit wait; place them at the end of the call,
			// where core performs them.
			appendNs := after.WALAppendNs - before.WALAppendNs
			fsyncNs := after.WALFsyncNs - before.WALFsyncNs
			if appendNs+fsyncNs > 0 && appendNs+fsyncNs <= end-start && after.Checkpoints == before.Checkpoints {
				l.add(span{Parent: id, Request: i, Level: 1, Name: "wal.append", Kind: o1.kind, StartNs: end - fsyncNs - appendNs, EndNs: end - fsyncNs, Derived: true})
				l.add(span{Parent: id, Request: i, Level: 1, Name: "wal.commit", Kind: o1.kind, StartNs: end - fsyncNs, EndNs: end, Derived: true})
			}
			continue
		}
		start = l.now()
		snap := e.store.Snapshot()
		_, err = snap.QueryTraced(o1.gremlin, core.TranslateOptions{}, "")
		snap.Close()
		end = l.now()
		coreID := l.add(span{Parent: handlerID, Request: i, Level: 1, Name: "core.query", Kind: o1.kind, StartNs: start, EndNs: end})
		if err != nil {
			fail(fmt.Errorf("traced core query %q: %w", shorten(o1.gremlin), err))
			continue
		}
		coreUs := float64(end-start) / 1e3
		ts.coreQuery.add(o.kind, coreUs)
		ts.serverSelf = append(ts.serverSelf, handlerUs-coreUs)

		// Level 2.
		o2 := o1
		if o1.again != nil {
			o2 = o1.again()
		}
		stagesUs := 0.0
		stage := func(name string, fn func() error) error {
			st := l.now()
			err := fn()
			en := l.now()
			l.add(span{Parent: coreID, Request: i, Level: 2, Name: name, Kind: o2.kind, StartNs: st, EndNs: en})
			stagesUs += float64(en-st) / 1e3
			return err
		}
		p := cache[o2.gremlin]
		if p == nil {
			p = &prepared{}
			var q *gremlin.Query
			var stmt sql.Statement
			before := len(l.spans)
			err = stage("gremlin.parse", func() (err error) { q, err = gremlin.Parse(o2.gremlin); return })
			if err == nil {
				err = stage("translate.translate", func() (err error) {
					p.tr, _, err = translate.TranslateWithTail(q, e.store, translate.Options{})
					return
				})
			}
			if err == nil {
				err = stage("sql.parse", func() (err error) { stmt, err = sql.Parse(p.tr.SQL); return })
			}
			if err == nil {
				var isSelect bool
				if p.stmt, isSelect = stmt.(*sql.SelectStmt); !isSelect {
					err = fmt.Errorf("translated SQL is not a SELECT")
				}
			}
			if err != nil {
				fail(fmt.Errorf("traced stages %q: %w", shorten(o2.gremlin), err))
				continue
			}
			l.mu.Lock()
			ts.parseUs.add(o.kind, l.spans[before].dur())
			ts.translateUs.add(o.kind, l.spans[before+1].dur())
			ts.sqlParseUs.add(o.kind, l.spans[before+2].dur())
			l.mu.Unlock()
			ts.sqlBytes = append(ts.sqlBytes, float64(len(p.tr.SQL)))
			if len(ts.texts) < 500 {
				ts.texts = append(ts.texts, o2.gremlin)
			}
			if hot {
				// A hot text pays these three once, at warm-up; a request
				// of the window pays only the execution below.
				cache[o2.gremlin] = p
				stagesUs = 0
			}
		}
		var rows *engine.Rows
		runtime.ReadMemStats(&ms0)
		st := l.now()
		rows, err = e.store.Engine().QueryStmtHintedAt(p.stmt, rel.Latest, p.tr.Hints)
		en := l.now()
		runtime.ReadMemStats(&ms1)
		l.add(span{Parent: coreID, Request: i, Level: 2, Name: "engine.execute", Kind: o2.kind, StartNs: st, EndNs: en})
		if err != nil {
			fail(fmt.Errorf("traced execute %q: %w", shorten(o2.gremlin), err))
			continue
		}
		execUs := float64(en-st) / 1e3
		stagesUs += execUs
		ts.executeUs.add(o.kind, execUs)
		ts.coreSelf = append(ts.coreSelf, coreUs-stagesUs)
		ts.engineAllocs += float64(ms1.Mallocs - ms0.Mallocs)
		ts.engineAllocKB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
		ts.executeNs += en - st
		stt := &rows.Stats
		ts.ctes = append(ts.ctes, float64(len(stt.CTEs)))
		ts.planVariants = append(ts.planVariants, float64(stt.PlanVariants))
		for _, sc := range stt.Scans {
			ts.examined += int64(sc.RowsIn)
			ts.scanNs += sc.Nanos
		}
		for _, j := range stt.Joins {
			ts.examined += int64(j.ProbeRows)
			ts.joinNs += j.Nanos
		}
		for _, op := range stt.Ops {
			ts.aggSortNs += op.Nanos
		}
		for _, ct := range stt.CTEs {
			ts.cteRows += int64(ct.Rows)
		}
		ts.results += int64(max(len(rows.Data), 1))
		if w := stt.MaxWorkers(); w > ts.maxWorkers {
			ts.maxWorkers = w
		}
	}
	return ts
}

// traceOverhead is what recording adds to a round trip, measured where it
// is largest: on the cheapest request the API has, a point read, sent
// alternately with recording on and off. The spans it records are
// dropped again.
func traceOverhead(e *env, pairs int) (pct float64, err error) {
	l := e.spans
	l.mu.Lock()
	keep := len(l.spans)
	l.mu.Unlock()
	defer func() {
		l.on.Store(false)
		l.mu.Lock()
		l.spans = l.spans[:keep]
		l.mu.Unlock()
	}()
	c := &caller{e: e}
	o := op{kind: "probe", method: http.MethodGet, path: fmt.Sprintf("/vertex/%d", e.graph.VertexIDs()[0]), check: wantStatus(http.StatusOK)}
	var on, off []float64
	for i := 0; i < 2*pairs; i++ {
		traced := i%2 == 0
		l.on.Store(traced)
		start := l.now()
		lat, _, err := c.do(&o, i)
		if err != nil {
			return 0, err
		}
		if traced {
			// What the traced pass does around a request of its own.
			l.add(span{Request: i, Name: "client.http", StartNs: start, EndNs: l.now()})
			on = append(on, float64(lat.Nanoseconds()))
		} else {
			off = append(off, float64(lat.Nanoseconds()))
		}
	}
	return 100 * (ratio(median(on), median(off)) - 1), nil
}

// checkSpans verifies the span log is well formed: ids are dense, every
// parent exists and belongs to the same request, a child on its parent's
// level lies inside it, and the children of a span on its own level do
// not cover more time than it has (its self time is not negative).
func checkSpans(spans []span) error {
	childNs := map[int]int64{}
	for i := range spans {
		s := &spans[i]
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := &spans[s.Parent-1]
		if p.Request != s.Request {
			return fmt.Errorf("span %d (%s) is request %d, its parent %d is request %d", s.ID, s.Name, s.Request, p.ID, p.Request)
		}
		if p.Level == s.Level {
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
			childNs[p.ID] += s.EndNs - s.StartNs
		}
	}
	for id, ns := range childNs {
		p := &spans[id-1]
		if ns > p.EndNs-p.StartNs {
			return fmt.Errorf("span %d (%s) has negative self time", p.ID, p.Name)
		}
	}
	return nil
}
