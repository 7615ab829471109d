package core

import (
	"fmt"
	"strconv"
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

// Query parses, translates, and executes a Gremlin query as one SQL
// statement (the paper's core execution model, Section 4.2) at the view's
// version. Statements are cached per query shape and bound to each
// query's literals.
func (v *View) Query(gremlinText string) (*Result, error) {
	return v.QueryTraced(gremlinText, TranslateOptions{}, "")
}

// QueryTraced is Query with explicit translation options (ablation
// modes) and trace id (usually from an incoming W3C traceparent; empty
// mints a fresh one). It is the one Gremlin execution path: parse the
// text into a shape and its arguments, find the statement prepared for
// the shape (translate → plan on a miss, a single "plan [cached shape …]"
// span on a hit), bind the arguments and execute, with per-operator spans
// lifted from the executor's stats. The returned Result carries the full
// span tree; the trace is also retained in the store's ring buffer for
// /debug/queries, success or failure.
func (v *View) QueryTraced(gremlinText string, opts TranslateOptions, traceID string) (*Result, error) {
	if v.released.Load() {
		return nil, ErrSnapshotClosed
	}
	b := trace.NewBuilder(traceID, "query", gremlinText)
	res, err := v.st.runQuery(b, gremlinText, opts, v.ver)
	tr := b.Finish(err)
	v.st.tracer.Record(tr)
	if err != nil {
		return nil, err
	}
	res.Trace = tr
	return res, nil
}

func (s *Store) runQuery(b *trace.Builder, gremlinText string, opts TranslateOptions, ver rel.Version) (*Result, error) {
	sp := b.Begin("parse")
	q, err := gremlin.Parse(gremlinText)
	b.End(sp)
	if err != nil {
		return nil, err
	}
	prep, err := s.prepare(b, q, opts)
	if err != nil {
		return nil, err
	}
	tr, qargs := prep.translation, q.Args // the trace keeps these two, not the parsed query
	b.SetStatement(tr.Template, func() (string, []string) {
		args := make([]string, len(qargs))
		for i, a := range qargs {
			args[i] = translate.ArgSQL(a)
		}
		return tr.Render(qargs), args
	})

	// The statement is shared; what this request binds to it goes beside
	// it, to the execution alone.
	args := make([]engine.Arg, len(q.Args))
	for i, a := range q.Args {
		if a.IDs != nil {
			args[i].IDs = a.IDs
		} else {
			args[i].Val = rel.FromAny(a.Val)
		}
	}
	sp = b.Begin("execute")
	rows, err := s.eng.QueryStmtAt(prep.stmt, ver, args)
	b.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: executing translated SQL: %w", err)
	}
	attachOperatorSpans(b, sp, &rows.Stats)

	out := &Result{ElemType: tr.ElemType, Stats: rows.Stats}
	out.Values = make([]any, 0, len(rows.Data))
	for _, row := range rows.Data {
		out.Values = append(out.Values, valueToAny(row[0]))
	}
	return out, nil
}

// prepare returns the statement for q's shape under opts, translating and
// parsing it on the first query of the shape.
func (s *Store) prepare(b *trace.Builder, q *gremlin.Query, opts TranslateOptions) (*preparedQuery, error) {
	key := preparedKey{opts: opts, shape: q.Shape}
	s.preparedMu.RLock()
	prep := s.prepared[key]
	s.preparedMu.RUnlock()
	if prep != nil {
		s.preparedHits.Add(1)
		sp := b.Begin("plan")
		sp.Detail = prep.cachedDetail
		b.End(sp)
		return prep, nil
	}
	s.preparedMisses.Add(1)
	sp := b.Begin("translate")
	tr, err := translate.Translate(q, s, opts)
	b.End(sp)
	if err != nil {
		return nil, err
	}
	sp = b.Begin("plan")
	stmt, err := sql.Parse(tr.Template)
	b.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: parsing translated SQL: %w", err)
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: translated SQL is not a SELECT")
	}
	prep = &preparedQuery{
		translation:  tr,
		stmt:         sel,
		cachedDetail: fmt.Sprintf("cached shape %s args=%d", q.Shape, len(q.Args)),
	}
	s.preparedMu.Lock()
	// Past maxPrepared the cache is emptied, not evicted piecemeal: a
	// shape still in use re-enters on its next request for one translate
	// and parse, and a client minting shapes (keys, labels, pipe
	// sequences) cannot grow the heap without bound.
	if s.prepared == nil || len(s.prepared) >= maxPrepared {
		s.prepared = map[preparedKey]*preparedQuery{}
	}
	s.prepared[key] = prep
	s.preparedMu.Unlock()
	return prep, nil
}

// attachOperatorSpans lifts the executor's per-operator timings into
// children of the execute span. Stat offsets are relative to the query's
// start inside QueryStmtAt, which is itself inside the execute span, so
// children always nest within their parent.
//
// The executor times runs, not operators (engine.PipelineStat): a run of
// two or more operators becomes one "pipeline" span carrying the run's
// time, with the full scan it started at, its join stages and its
// terminal beneath it carrying their row counts and no time of their
// own. A run of one operator is that operator's span, as before.
//
// Only EXPLAIN and /debug/queries read a span's detail, and every request
// pays for it: the details of one request are appended to one buffer and
// cut out of one string.
func attachOperatorSpans(b *trace.Builder, exec *trace.Span, st *engine.ExecStats) {
	d := spanDetails{buf: make([]byte, 0, 256), cuts: make([]detailCut, 0, 16)}
	estAct := func(est int64, act int) {
		if est >= 0 {
			d.buf = strconv.AppendInt(append(d.buf, " est="...), est, 10)
			d.buf = strconv.AppendInt(append(d.buf, " act="...), int64(act), 10)
		}
	}
	for i := range st.CTEs {
		c := &st.CTEs[i]
		d.buf = append(d.buf, c.Name...)
		if c.Fused {
			d.buf = append(d.buf, " fused"...)
		}
		d.cut(b.Child(exec, "cte", "", c.StartNs, c.Nanos, int64(c.Rows), int64(c.Rows)))
	}
	// A run of two or more operators, its full scan among them, is a
	// pipeline span: see which operators go beneath one first.
	stages := func(p *engine.PipelineStat) int {
		n := len(p.Joins)
		if p.Op >= 0 {
			n++
		}
		if p.Scan >= 0 {
			n++
		}
		return n
	}
	pipedScans := make([]bool, len(st.Scans))
	for i := range st.Pipelines {
		if p := &st.Pipelines[i]; p.Scan >= 0 && stages(p) >= 2 {
			pipedScans[p.Scan] = true
		}
	}
	scan := func(parent *trace.Span, sc *engine.ScanStat, startNs, nanos int64) {
		d.buf = append(append(append(d.buf, sc.Table...), ' '), sc.Access...)
		d.buf = strconv.AppendInt(append(d.buf, " workers="...), int64(sc.Workers), 10)
		estAct(sc.EstRows, sc.RowsOut)
		d.cut(b.Child(parent, "scan", "", startNs, nanos, int64(sc.RowsIn), int64(sc.RowsOut)))
	}
	for i := range st.Scans {
		if sc := &st.Scans[i]; !pipedScans[i] {
			scan(exec, sc, sc.StartNs, sc.Nanos)
		}
	}
	join := func(parent *trace.Span, j *engine.JoinStat, startNs, nanos int64) {
		d.buf = append(append(append(d.buf, j.Table...), ' '), j.Strategy...)
		if j.BuildSide != "" {
			d.buf = append(append(d.buf, " build="...), j.BuildSide...)
		}
		if j.Workers > 1 {
			d.buf = strconv.AppendInt(append(d.buf, " workers="...), int64(j.Workers), 10)
		}
		if j.EstRows >= 0 {
			estAct(j.EstRows, j.OutRows)
			d.buf = strconv.AppendFloat(append(d.buf, " cost="...), j.EstCost, 'f', 0, 64)
		}
		if j.AltStrategy != engine.StrategyAuto {
			d.buf = append(append(d.buf, " alt="...), j.AltStrategy...)
			if j.AltCost >= 0 {
				d.buf = strconv.AppendFloat(append(d.buf, "(cost="...), j.AltCost, 'f', 0, 64)
				d.buf = append(d.buf, ')')
			}
		}
		d.cut(b.Child(parent, "join", "", startNs, nanos, int64(j.BuildRows+j.ProbeRows), int64(j.OutRows)))
	}
	op := func(parent *trace.Span, op *engine.OpStat, startNs, nanos int64) {
		switch op.Kind {
		case "agg":
			d.buf = strconv.AppendInt(append(d.buf, "groups="...), int64(op.Groups), 10)
		case "dedup":
			d.buf = append(d.buf, op.Order...)
		}
		d.cut(b.Child(parent, op.Kind, "", startNs, nanos, int64(op.RowsIn), int64(op.RowsOut)))
	}
	pipedJoins, pipedOps := make([]bool, len(st.Joins)), make([]bool, len(st.Ops))
	for i := range st.Pipelines {
		p := &st.Pipelines[i]
		n := stages(p)
		if n < 2 {
			continue
		}
		rowsOut := int64(0)
		if p.Op >= 0 {
			rowsOut = int64(st.Ops[p.Op].RowsOut)
		} else {
			rowsOut = int64(st.Joins[p.Joins[len(p.Joins)-1]].OutRows)
		}
		d.buf = append(strconv.AppendInt(d.buf, int64(n), 10), " stages morsels="...)
		d.buf = append(strconv.AppendInt(d.buf, int64(p.Morsels), 10), "×"...)
		d.buf = append(strconv.AppendInt(d.buf, int64(p.MorselRows), 10), " workers="...)
		d.buf = strconv.AppendInt(d.buf, int64(p.Workers), 10)
		sp := b.Child(exec, "pipeline", "", p.StartNs, p.Nanos, int64(p.RowsIn), rowsOut)
		d.cut(sp)
		if p.Scan >= 0 {
			scan(sp, &st.Scans[p.Scan], 0, 0)
		}
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
	d.assign()
}

// spanDetails collects the detail strings of a request's operator spans
// in one buffer.
type spanDetails struct {
	buf  []byte
	cuts []detailCut
}

// detailCut is one span's share of the buffer: buf[from:to].
type detailCut struct {
	sp       *trace.Span
	from, to int
}

// cut ends the detail being appended and gives it to sp.
func (d *spanDetails) cut(sp *trace.Span) {
	from := 0
	if n := len(d.cuts); n > 0 {
		from = d.cuts[n-1].to
	}
	d.cuts = append(d.cuts, detailCut{sp: sp, from: from, to: len(d.buf)})
}

// assign hands each span its detail: slices of one string.
func (d *spanDetails) assign() {
	all := string(d.buf)
	for _, c := range d.cuts {
		c.sp.Detail = all[c.from:c.to]
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
