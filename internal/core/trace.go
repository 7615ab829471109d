package core

import (
	"fmt"
	"time"

	"sqlgraph/internal/engine"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/trace"
	"sqlgraph/internal/translate"
)

// Tracer exposes the store's trace recorder: the recent/slow query rings,
// write-path traces, and WAL/checkpoint counters.
func (s *Store) Tracer() *trace.Recorder { return s.tracer }

// QueryTraced is QueryWithOptions with an explicit trace id (usually from
// an incoming W3C traceparent; empty mints a fresh one). The returned
// Result carries the full span tree; the trace is also retained in the
// store's ring buffer for /debug/queries, success or failure.
func (s *Store) QueryTraced(gremlinText string, opts TranslateOptions, traceID string) (*Result, error) {
	return s.queryTraced(gremlinText, opts, traceID, rel.Latest)
}

// QueryTraced mirrors Store.QueryTraced for a pinned snapshot.
func (sn *Snap) QueryTraced(gremlinText string, opts TranslateOptions, traceID string) (*Result, error) {
	if !sn.ok() {
		return nil, ErrSnapshotClosed
	}
	return sn.s.queryTraced(gremlinText, opts, traceID, sn.ver)
}

// queryTraced is the one Gremlin execution path: parse → translate → plan
// on a prepared-cache miss (a hit collapses the three into one "plan
// [cached]" span), then execute with per-operator spans lifted from the
// executor's stats. ver is rel.Latest for the store head or a pinned
// snapshot version.
func (s *Store) queryTraced(gremlinText string, opts TranslateOptions, traceID string, ver rel.Version) (*Result, error) {
	b := trace.NewBuilder(traceID, "query", gremlinText)
	res, err := s.runQuery(b, gremlinText, opts, ver)
	tr := b.Finish(err)
	s.tracer.Record(tr)
	if err != nil {
		return nil, err
	}
	res.Trace = tr
	return res, nil
}

func (s *Store) runQuery(b *trace.Builder, gremlinText string, opts TranslateOptions, ver rel.Version) (*Result, error) {
	key := fmt.Sprintf("%+v|%s", opts, gremlinText)
	var prep *preparedQuery
	if cached, ok := s.prepared.Load(key); ok {
		s.preparedHits.Add(1)
		prep = cached.(*preparedQuery)
		sp := b.Begin("plan")
		sp.Detail = "cached"
		b.End(sp)
	} else {
		s.preparedMisses.Add(1)
		sp := b.Begin("parse")
		q, err := gremlin.Parse(gremlinText)
		b.End(sp)
		if err != nil {
			return nil, err
		}
		sp = b.Begin("translate")
		tr, err := translate.Translate(q, s, opts)
		b.End(sp)
		if err != nil {
			return nil, err
		}
		sp = b.Begin("plan")
		stmt, err := sql.Parse(tr.SQL)
		b.End(sp)
		if err != nil {
			return nil, fmt.Errorf("core: parsing translated SQL: %w", err)
		}
		sel, ok := stmt.(*sql.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("core: translated SQL is not a SELECT")
		}
		prep = &preparedQuery{translation: tr, stmt: sel}
		// Past maxPrepared the cache is emptied, not evicted piecemeal: a
		// text still in use re-enters on its next request for one
		// parse+translate, and a stream of texts that never repeat cannot
		// grow the heap without bound.
		if s.preparedLen.Add(1) > maxPrepared {
			s.prepared.Range(func(k, _ any) bool { s.prepared.Delete(k); return true })
			s.preparedLen.Store(1)
		}
		s.prepared.Store(key, prep)
	}
	b.SetSQL(prep.translation.SQL)

	sp := b.Begin("execute")
	rows, err := s.eng.QueryStmtHintedAt(prep.stmt, ver, prep.translation.Hints)
	b.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: executing translated SQL: %w", err)
	}
	attachOperatorSpans(b, sp, &rows.Stats)

	out := &Result{ElemType: prep.translation.ElemType, Stats: rows.Stats}
	out.Values = make([]any, 0, len(rows.Data))
	for _, row := range rows.Data {
		out.Values = append(out.Values, valueToAny(row[0]))
	}
	return out, nil
}

// attachOperatorSpans lifts the executor's per-operator timings into
// children of the execute span. Stat offsets are relative to the query's
// start inside QueryStmtAt, which is itself inside the execute span, so
// children always nest within their parent.
//
// The executor times runs, not operators (engine.PipelineStat): a run of
// two or more operators becomes one "pipeline" span carrying the run's
// time, with its join stages and terminal beneath it carrying their row
// counts and no time of their own. A run of one operator is that
// operator's span, as before.
func attachOperatorSpans(b *trace.Builder, exec *trace.Span, st *engine.ExecStats) {
	for i := range st.CTEs {
		c := &st.CTEs[i]
		detail := c.Name
		if c.Fused {
			detail += " fused"
		}
		if c.EstRows >= 0 {
			detail += fmt.Sprintf(" est=%d act=%d", c.EstRows, c.Rows)
		}
		b.Child(exec, "cte", detail, c.StartNs, c.Nanos, int64(c.Rows), int64(c.Rows))
	}
	for i := range st.Scans {
		sc := &st.Scans[i]
		detail := fmt.Sprintf("%s %s workers=%d", sc.Table, sc.Access, sc.Workers)
		if sc.EstRows >= 0 {
			detail += fmt.Sprintf(" est=%d act=%d", sc.EstRows, sc.RowsOut)
		}
		b.Child(exec, "scan", detail, sc.StartNs, sc.Nanos, int64(sc.RowsIn), int64(sc.RowsOut))
	}
	join := func(parent *trace.Span, j *engine.JoinStat, startNs, nanos int64) {
		detail := fmt.Sprintf("%s %s", j.Table, j.Strategy)
		if j.BuildSide != "" {
			detail += " build=" + j.BuildSide
		}
		if j.Workers > 1 {
			detail += fmt.Sprintf(" workers=%d", j.Workers)
		}
		if j.EstRows >= 0 {
			detail += fmt.Sprintf(" est=%d act=%d cost=%.0f", j.EstRows, j.OutRows, j.EstCost)
		}
		if j.AltStrategy != engine.StrategyAuto {
			detail += fmt.Sprintf(" alt=%s", j.AltStrategy)
			if j.AltCost >= 0 {
				detail += fmt.Sprintf("(cost=%.0f)", j.AltCost)
			}
		}
		b.Child(parent, "join", detail, startNs, nanos, int64(j.BuildRows+j.ProbeRows), int64(j.OutRows))
	}
	op := func(parent *trace.Span, op *engine.OpStat, startNs, nanos int64) {
		detail := ""
		if op.Kind == "agg" {
			detail = fmt.Sprintf("groups=%d", op.Groups)
		}
		b.Child(parent, op.Kind, detail, startNs, nanos, int64(op.RowsIn), int64(op.RowsOut))
	}
	pipedJoins, pipedOps := make([]bool, len(st.Joins)), make([]bool, len(st.Ops))
	for i := range st.Pipelines {
		p := &st.Pipelines[i]
		n := len(p.Joins)
		if p.Op >= 0 {
			n++
		}
		if n < 2 {
			continue
		}
		rowsOut := int64(0)
		if p.Op >= 0 {
			rowsOut = int64(st.Ops[p.Op].RowsOut)
		} else {
			rowsOut = int64(st.Joins[p.Joins[len(p.Joins)-1]].OutRows)
		}
		sp := b.Child(exec, "pipeline", fmt.Sprintf("%d stages", n), p.StartNs, p.Nanos, int64(p.RowsIn), rowsOut)
		for _, ji := range p.Joins {
			pipedJoins[ji] = true
			join(sp, &st.Joins[ji], 0, 0)
		}
		if p.Op >= 0 {
			pipedOps[p.Op] = true
			op(sp, &st.Ops[p.Op], 0, 0)
		}
	}
	for i := range st.Joins {
		if j := &st.Joins[i]; !pipedJoins[i] {
			join(exec, j, j.StartNs, j.Nanos)
		}
	}
	for i := range st.Ops {
		if o := &st.Ops[i]; !pipedOps[i] {
			op(exec, o, o.StartNs, o.Nanos)
		}
	}
}

// writeOp traces one graph mutation or maintenance operation (kind
// "write"): WAL append and fsync times appear as child spans, and the
// finished trace lands in the recorder's write ring. A nil *writeOp is
// valid and inert.
type writeOp struct {
	s *Store
	b *trace.Builder
	// lsn is the last WAL LSN this operation appended; logCommit waits
	// for it to become durable.
	lsn uint64
}

// startWrite opens a write trace named after the operation.
func (s *Store) startWrite(name string) *writeOp {
	return &writeOp{s: s, b: trace.NewBuilder("", "write", name)}
}

// observe attaches a measured child span.
func (w *writeOp) observe(name string, start time.Time, d time.Duration) {
	if w != nil {
		w.b.Observe(name, "", start, d)
	}
}

// observeDetail attaches a measured child span with a detail string.
func (w *writeOp) observeDetail(name, detail string, start time.Time, d time.Duration) {
	if w != nil {
		w.b.Observe(name, detail, start, d)
	}
}

// done seals the trace with the mutation's outcome and records it.
func (w *writeOp) done(err error) {
	if w != nil {
		w.s.tracer.Record(w.b.Finish(err))
	}
}
