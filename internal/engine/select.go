package engine

import (
	"fmt"
	"slices"
	"time"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// queryState carries per-query evaluation state. Operator dispatch is
// single-goroutine; only morsel workers run concurrently, and they touch
// nothing here except the atomic ioMisses counter (stats are aggregated
// by the operator after its workers join).
type queryState struct {
	env      []cteBinding                  // the WITH names in scope, innermost last
	params   []Arg                         // this execution's arguments; never stored in the statement or a cached plan
	idSets   []*valueSet                   // by parameter index: the sets of the id lists among params, built when a frame first binds one
	subs     map[*sql.SelectStmt]*valueSet // the sets of the IN subqueries expressions hold
	ioMisses int64                         // buffer-pool misses (atomic; morsel workers add concurrently)
	par      int                           // morsel-parallelism budget (0 = GOMAXPROCS, 1 = serial)
	sizes    morselSizes                   // the engine's morsel work target and fan-out gate (zero: the defaults)
	force    JoinStrategy                  // forced join strategy, StrategyAuto for planner's choice
	asOf     rel.Version                   // snapshot version for base-table reads (zero = latest)
	t0       time.Time                     // query start; anchors operator StartNs offsets
	stats    ExecStats                     // per-operator execution statistics

	// Cost-based planner state.
	provider  StatsProvider // optimizer statistics, nil = legacy planning
	forcePlan int           // ExecOptions.ForcePlan (0 auto, -1 syntactic, k>=1 pinned)
}

// cteBinding is a WITH name bound to the relation of its query.
type cteBinding struct {
	name string
	rel  *relation
}

// cte returns the relation the innermost WITH entry of that name binds,
// and its slot in env, or nil and -1: a core, which always runs inside the
// same WITH entries, resolves a name to its slot once.
func (q *queryState) cte(name string) (int, *relation) {
	for i := len(q.env) - 1; i >= 0; i-- {
		if q.env[i].name == name {
			return i, q.env[i].rel
		}
	}
	return -1, nil
}

// idSet builds the set of the id list bound to parameter i, once.
func (q *queryState) idSet(i int) {
	if q.idSets == nil {
		q.idSets = make([]*valueSet, len(q.params))
	}
	if q.idSets[i] == nil {
		q.idSets[i] = &valueSet{}
		for _, id := range q.params[i].IDs {
			q.idSets[i].ids.add(id)
		}
	}
}

// sinceStart returns t's offset from the query start.
func (q *queryState) sinceStart(t time.Time) int64 { return t.Sub(q.t0).Nanoseconds() }

// evalSelect evaluates a statement into stored rows.
func (e *Engine) evalSelect(q *queryState, stmt *sql.SelectStmt) (*relation, error) {
	r, err := e.openSelect(q, stmt)
	if err == nil {
		err = e.materialize(q, r)
	}
	return r, err
}

// openSelect evaluates a statement as far as it must: a statement that is
// one SELECT core or UNION ALL of cores, without WITH, ORDER BY or LIMIT,
// comes back pending, for its reader to extend or run.
func (e *Engine) openSelect(q *queryState, stmt *sql.SelectStmt) (*relation, error) {
	sp := e.stmtPlanOf(stmt)
	// Bind CTEs in order; later CTEs may reference earlier ones. CTE names
	// shadow base tables and earlier same-named CTEs for the remainder of
	// the statement, and go out of scope with it.
	defer func(n int) { q.env = q.env[:n] }(len(q.env))
	for i, cte := range stmt.With {
		cteT := time.Now()
		r, err := e.openSelect(q, cte.Query)
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		stat := CTEStat{Name: cte.Name, StartNs: q.sinceStart(cteT)}
		// A CTE with exactly one reader is left pending for that reader to
		// splice into its own pipeline, or to store if it reads it any other
		// way than as its driving input. Every other CTE is stored now — as
		// is one with a subquery in a stage, whose names must mean what they
		// mean here, not what a later WITH entry or the reader's own WITH
		// rebinds them to.
		if r.src != nil && sp.readers[i] == 1 && !slices.ContainsFunc(r.src, func(p *pipe) bool { return p.serial }) {
			r = r.then(r.cols, cteMark(q, len(q.stats.CTEs)), oneToOne)
		} else if err := e.materialize(q, r); err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		stat.Rows = r.count()
		stat.Nanos = time.Since(cteT).Nanoseconds()
		q.stats.CTEs = append(q.stats.CTEs, stat)
		q.env = append(q.env, cteBinding{name: cte.Name, rel: r})
	}

	out, err := e.evalBody(q, stmt.Body)
	if err != nil || sp == nil {
		return out, err
	}
	// Run before the WITH names go out of scope (a stage's subquery may
	// read them), and before sorting or cutting.
	if err := e.materialize(q, out); err != nil {
		return nil, err
	}
	f, err := sp.frame(e, q)
	if err == nil {
		if err = sp.err; err == nil {
			err = f.bind(sp.subs)
		}
	}
	if err != nil {
		return nil, err
	}
	rows := out.rowsOf()
	start, end := 0, len(rows)
	if sp.offset != nil {
		start = min(max(int(sp.offset(f, nil).Int()), 0), end)
	}
	if sp.limit != nil {
		end = min(start+max(int(sp.limit(f, nil).Int()), 0), end)
	}
	if len(sp.order) > 0 {
		e.orderRows(f, out, sp.order, end)
		out.ordered = true
	}
	// Capacity is clamped: the rows may be shared (DESIGN.md §8), so a
	// later append must not write into the slice they came from.
	out.rows = out.rows[start:end:end]
	return out, nil
}

// stmtPlan is what a statement keeps between executions: the tables it
// reads, its WITH entries' readers, and its ORDER BY, OFFSET and LIMIT
// compiled over its body's columns (err, once its body has run).
type stmtPlan struct {
	prep
	schema        uint64
	tables        []string // base tables, sorted: the read locks an execution takes
	readers       []int    // per WITH entry: how often its name is read (cteReaders)
	order         []compiledExpr
	limit, offset compiledExpr
	err           error
}

// stmtPlanOf returns the statement's plan, made when its first execution
// (since the catalog last gained a table or an index) asks for it, or nil
// for a statement with no WITH list, ORDER BY or LIMIT: it has nothing
// to keep, and a one-shot text (VerticesByAttr) must not fill the cache.
func (e *Engine) stmtPlanOf(stmt *sql.SelectStmt) *stmtPlan {
	if len(stmt.With) == 0 && len(stmt.OrderBy) == 0 && stmt.Offset == nil && stmt.Limit == nil {
		return nil
	}
	schema := e.cat.SchemaVersion()
	if c, ok := e.planCache.Load(stmt); ok && c.(*stmtPlan).schema == schema {
		return c.(*stmtPlan)
	}
	sp := &stmtPlan{schema: schema, tables: e.baseTablesOf(stmt), readers: cteReaders(stmt)}
	sp.err = sp.prepareTail(stmt)
	e.cachePlan(stmt, sp)
	return sp
}

func (sp *stmtPlan) prepareTail(stmt *sql.SelectStmt) (err error) {
	if stmt.Offset != nil {
		if sp.offset, err = sp.compile(noCols, stmt.Offset); err != nil {
			return err
		}
	}
	if stmt.Limit != nil {
		if sp.limit, err = sp.compile(noCols, stmt.Limit); err != nil {
			return err
		}
	}
	cols := bodyCols(stmt.Body)
	for _, key := range stmt.OrderBy {
		fn := compiledExpr(nil)
		// Positional ORDER BY (ORDER BY 1).
		if lit, ok := key.(*sql.Literal); ok {
			if pos, isInt := lit.Val.(int64); isInt && pos >= 1 && int(pos) <= len(cols) {
				fn = func(_ *frame, row []rel.Value) rel.Value { return row[pos-1] }
			}
		}
		if fn == nil {
			if fn, err = sp.compile(newScope(cols), key); err != nil {
				return err
			}
		}
		sp.order = append(sp.order, fn)
	}
	return nil
}

// bodyCols returns the columns a statement body yields (evalBody).
func bodyCols(body sql.SelectBody) []colInfo {
	if u, ok := body.(*sql.UnionAll); ok {
		return anonymizeCols(bodyCols(u.Left))
	}
	return itemCols(body.(*sql.SimpleSelect).Items)
}

// cteReaders counts how often the names a WITH list binds are read
// (countTableRefs), per entry. A name bound twice counts as read twice.
func cteReaders(stmt *sql.SelectStmt) []int {
	if len(stmt.With) == 0 {
		return nil
	}
	n := map[string]int{}
	countTableRefs(stmt, n)
	readers := make([]int, len(stmt.With))
	for i, cte := range stmt.With {
		readers[i] = n[cte.Name]
		for j, other := range stmt.With {
			if j != i && other.Name == cte.Name {
				readers[i] += 2
			}
		}
	}
	return readers
}

// sortRow is a row with its ORDER BY keys and its input position, which
// breaks ties: equal keys keep their input order.
type sortRow struct {
	keys []rel.Value // a window of one array shared by all the rows kept
	row  []rel.Value
	seq  int
}

// orderRows sorts r's rows by keys, ascending, and keeps the first keep
// of them (all when keep is len(r.rows)). Fewer than all are chosen by a
// bounded heap, so a LIMIT over many rows holds only what it returns.
func (e *Engine) orderRows(f *frame, r *relation, keyFns []compiledExpr, keep int) {
	q := f.q
	opT := time.Now()
	compare := func(a, b *sortRow) int {
		for j := range keyFns {
			if c := rel.Compare(a.keys[j], b.keys[j]); c != 0 {
				return c
			}
		}
		return a.seq - b.seq
	}
	nk := len(keyFns)
	rows := r.rowsOf()
	bounded := keep < len(rows)
	flat := make([]rel.Value, keep*nk)
	kept := make([]sortRow, 0, keep)
	cand := sortRow{keys: make([]rel.Value, nk)}
	for i, row := range rows {
		cand.row, cand.seq = row, i
		for j, fn := range keyFns {
			cand.keys[j] = fn(f, row)
		}
		switch {
		case len(kept) < keep:
			keys := flat[len(kept)*nk : (len(kept)+1)*nk]
			copy(keys, cand.keys)
			kept = append(kept, sortRow{keys: keys, row: row, seq: i})
			if bounded {
				siftUp(kept, len(kept)-1, compare)
			}
		case keep > 0 && compare(&cand, &kept[0]) < 0:
			// The heap's root is the last of the rows kept so far.
			copy(kept[0].keys, cand.keys)
			kept[0].row, kept[0].seq = row, i
			siftDown(kept, 0, compare)
		}
	}
	slices.SortFunc(kept, func(a, b sortRow) int { return compare(&a, &b) })
	// The input slice may be shared with a CTE another branch still reads
	// (DESIGN.md §8): the order goes into a slice of its own.
	sorted := make([][]rel.Value, len(kept))
	for i := range kept {
		sorted[i] = kept[i].row
	}
	q.stats.Ops = append(q.stats.Ops, OpStat{
		Kind:    "sort",
		RowsIn:  len(rows),
		RowsOut: len(sorted),
		StartNs: q.sinceStart(opT),
		Nanos:   time.Since(opT).Nanoseconds(),
	})
	r.rows = sorted
}

// siftUp and siftDown keep h a max-heap under compare: its root is the
// row that sorts last.
func siftUp(h []sortRow, i int, compare func(a, b *sortRow) int) {
	for i > 0 {
		parent := (i - 1) / 2
		if compare(&h[i], &h[parent]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []sortRow, i int, compare func(a, b *sortRow) int) {
	for {
		top := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if compare(&h[c], &h[top]) > 0 {
				top = c
			}
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// evalBody evaluates a core, or a UNION ALL: its arms' pipelines one
// after the other, still pending.
func (e *Engine) evalBody(q *queryState, body sql.SelectBody) (*relation, error) {
	u, ok := body.(*sql.UnionAll)
	if !ok {
		return e.evalSimpleSelect(q, body.(*sql.SimpleSelect))
	}
	left, err := e.evalBody(q, u.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.evalBody(q, u.Right)
	if err != nil {
		return nil, err
	}
	if len(left.cols) != len(right.cols) {
		return nil, fmt.Errorf("engine: UNION ALL arity mismatch: %d vs %d", len(left.cols), len(right.cols))
	}
	return &relation{cols: anonymizeCols(left.cols), ordered: left.ordered || right.ordered,
		src: append(left.pipes(), right.pipes()...)}, nil
}

// anonymizeCols drops table qualifiers (a UNION ALL's outputs have no
// table).
func anonymizeCols(cols []colInfo) []colInfo {
	out := make([]colInfo, len(cols))
	for i, c := range cols {
		out[i] = colInfo{name: c.name}
	}
	return out
}

// subquerySet evaluates the nested SELECT of an IN (subquery) into the
// set it probes: its one column's non-NULL values. Subqueries are
// uncorrelated in this dialect, so one runs once per statement however
// many expressions hold it and rows probe it: the set is kept on the query
// state. It runs when the expression holding it compiles, so a subquery
// that fails fails the statement before any row is read, under every plan.
func (e *Engine) subquerySet(q *queryState, stmt *sql.SelectStmt) (*valueSet, error) {
	if set, ok := q.subs[stmt]; ok {
		return set, nil
	}
	r, err := e.evalSelect(q, stmt)
	if err != nil {
		return nil, err
	}
	if len(r.cols) != 1 {
		return nil, fmt.Errorf("engine: IN subquery must return one column, got %d", len(r.cols))
	}
	var set *valueSet
	if r.set != nil {
		set = &valueSet{ids: *r.set}
	} else {
		rows := r.rowsOf()
		vals := make([]rel.Value, len(rows))
		for i, row := range rows {
			vals[i] = row[0]
		}
		set = newValueSet(vals)
		set.null = false // a NULL the subquery returns is no member
	}
	if q.subs == nil {
		q.subs = map[*sql.SelectStmt]*valueSet{}
	}
	q.subs[stmt] = set
	return set, nil
}
