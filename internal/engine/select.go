package engine

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// maxRecursionIters bounds recursive CTE evaluation (unbounded Gremlin
// loop pipes translate to recursive SQL; a cyclic graph without a depth
// bound must fail cleanly rather than loop forever).
const maxRecursionIters = 10000

// queryState carries per-query evaluation state. Operator dispatch is
// single-goroutine; only morsel workers run concurrently, and they touch
// nothing here except the atomic ioMisses counter (stats are aggregated
// by the operator after its workers join).
type queryState struct {
	ctes     map[string]*relation
	params   []Arg                         // this execution's arguments; never stored in the statement or a cached plan
	idSets   []*valueSet                   // by parameter index: the sets of the id lists among params, which every worker's x IN (?) reads
	subs     map[*sql.SelectStmt]*valueSet // the sets of the IN subqueries expressions hold
	ioMisses int64                         // buffer-pool misses (atomic; morsel workers add concurrently)
	par      int                           // morsel-parallelism budget (0 = GOMAXPROCS, 1 = serial)
	sizes    morselSizes                   // the engine's morsel work target and fan-out gate (zero: the defaults)
	force    JoinStrategy                  // forced join strategy, StrategyAuto for planner's choice
	asOf     rel.Version                   // snapshot version for base-table reads (zero = latest)
	t0       time.Time                     // query start; anchors operator StartNs offsets
	stats    ExecStats                     // per-operator execution statistics

	// Cost-based planner state. All fields are zero-value-safe so an
	// expression index's key functions (compiled over a bare queryState)
	// stay on the legacy syntactic path.
	provider     StatsProvider // optimizer statistics, nil = legacy planning
	forcePlan    int           // ExecOptions.ForcePlan (0 auto, -1 syntactic, k>=1 pinned)
	scanEst      int64         // planner row estimate for the next base scan...
	scanEstValid bool          // ...consumed (and reset) by scanBase
}

// addIOMiss atomically charges one buffer-pool miss to the query.
func (q *queryState) addIOMiss() { atomic.AddInt64(&q.ioMisses, 1) }

// sinceStart returns t's offset from the query start, or 0 when the
// state was built without a clock (an expression index's key function).
func (q *queryState) sinceStart(t time.Time) int64 {
	if q.t0.IsZero() {
		return 0
	}
	return t.Sub(q.t0).Nanoseconds()
}

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
	// Bind CTEs in order; later CTEs may reference earlier ones. CTE names
	// shadow base tables and earlier same-named CTEs for the remainder of
	// the statement.
	saved := map[string]*relation{}
	defined := []string{}
	defer func() {
		// Restore shadowed names so sibling subqueries are unaffected.
		for _, name := range defined {
			if prev, ok := saved[name]; ok {
				q.ctes[name] = prev
			} else {
				delete(q.ctes, name)
			}
		}
	}()
	var readers map[string]int
	if len(stmt.With) > 0 {
		readers = cteReaders(stmt)
	}
	for _, cte := range stmt.With {
		cteT := time.Now()
		var r *relation
		var err error
		if cte.Recursive && referencesTable(cte.Query.Body, cte.Name) {
			r, err = e.evalRecursiveCTE(q, cte)
		} else {
			r, err = e.openSelect(q, cte.Query)
		}
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		if len(cte.Columns) > 0 {
			if len(cte.Columns) != len(r.cols) {
				return nil, fmt.Errorf("engine: CTE %s declares %d columns, query yields %d", cte.Name, len(cte.Columns), len(r.cols))
			}
			cols := make([]colInfo, len(r.cols))
			for i, c := range cte.Columns {
				cols[i] = colInfo{name: c}
			}
			r = r.as(cols)
		}
		stat := CTEStat{Name: cte.Name, StartNs: q.sinceStart(cteT)}
		// A CTE with exactly one reader is left pending for that reader to
		// splice into its own pipeline, or to store if it reads it any other
		// way than as its driving input. Every other CTE is stored now — as
		// is one with a subquery in a stage, which resolves the names it
		// reads when it runs: they must mean what they mean here, not what
		// a later WITH entry or the reader's own WITH rebinds them to.
		if r.src != nil && readers[cte.Name] == 1 && !slices.ContainsFunc(r.src, func(p *pipe) bool { return p.serial }) {
			r = r.then(r.cols, cteMark(q, len(q.stats.CTEs)), oneToOne)
		} else if err := e.materialize(q, r); err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		stat.Rows = r.count()
		stat.Nanos = time.Since(cteT).Nanoseconds()
		q.stats.CTEs = append(q.stats.CTEs, stat)
		if prev, ok := q.ctes[cte.Name]; ok {
			saved[cte.Name] = prev
		}
		defined = append(defined, cte.Name)
		q.ctes[cte.Name] = r
	}

	out, err := e.evalBody(q, stmt.Body)
	if err != nil {
		return nil, err
	}
	if len(stmt.With) == 0 && len(stmt.OrderBy) == 0 && stmt.Offset == nil && stmt.Limit == nil {
		return out, nil
	}
	// Run before the WITH names go out of scope (a stage's subquery may
	// read them), and before sorting or cutting.
	if err := e.materialize(q, out); err != nil {
		return nil, err
	}
	rows := out.rowsOf()
	start, end := 0, len(rows)
	if stmt.Offset != nil || stmt.Limit != nil {
		var err error
		if start, end, err = e.limitBounds(q, len(rows), stmt.Limit, stmt.Offset); err != nil {
			return nil, err
		}
	}
	if len(stmt.OrderBy) > 0 {
		if err := e.orderRows(q, out, stmt.OrderBy, end); err != nil {
			return nil, err
		}
		out.ordered = true
	}
	// Capacity is clamped: the rows may be shared (DESIGN.md §8), so a
	// later append must not write into the slice they came from.
	out.rows = out.rows[start:end:end]
	return out, nil
}

// cteReaders counts how often the names a WITH list binds are read
// (countTableRefs). A name bound twice counts as read twice.
func cteReaders(stmt *sql.SelectStmt) map[string]int {
	n := map[string]int{}
	countTableRefs(stmt, 1, n)
	for i, cte := range stmt.With {
		for _, other := range stmt.With[:i] {
			if other.Name == cte.Name {
				n[cte.Name] += 2
			}
		}
	}
	return n
}

// limitBounds returns the rows [start, end) of n that OFFSET and LIMIT
// keep.
func (e *Engine) limitBounds(q *queryState, n int, limit, offset sql.Expr) (start, end int, err error) {
	if offset != nil {
		v, err := e.constValue(q, offset)
		if err != nil {
			return 0, 0, err
		}
		start = min(max(int(v.Int()), 0), n)
	}
	end = n
	if limit != nil {
		v, err := e.constValue(q, limit)
		if err != nil {
			return 0, 0, err
		}
		end = min(start+max(int(v.Int()), 0), n)
	}
	return start, end, nil
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
func (e *Engine) orderRows(q *queryState, r *relation, keys []sql.Expr, keep int) error {
	opT := time.Now()
	sc := newScope(r.cols)
	keyFns := make([]compiledExpr, len(keys))
	for j, key := range keys {
		// Positional ORDER BY (ORDER BY 1).
		if lit, ok := key.(*sql.Literal); ok {
			if pos, isInt := lit.Val.(int64); isInt && pos >= 1 && int(pos) <= len(r.cols) {
				keyFns[j] = func(row []rel.Value) rel.Value { return row[pos-1] }
				continue
			}
		}
		var err error
		if keyFns[j], err = e.compile(q, sc, key); err != nil {
			return err
		}
	}
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
			cand.keys[j] = fn(row)
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
	return nil
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

// evalRecursiveCTE evaluates WITH RECURSIVE via semi-naive iteration: the
// base term seeds the result; the recursive term is re-evaluated against
// the previous iteration's rows until it yields none. The CTE is a
// breaker — base, delta and total are stored — but each term is a core
// like any other and runs through the same sinks.
func (e *Engine) evalRecursiveCTE(q *queryState, cte sql.CTE) (*relation, error) {
	top, ok := cte.Query.Body.(*sql.UnionAll)
	if !ok {
		return nil, fmt.Errorf("engine: recursive CTE %s must be base UNION ALL recursive", cte.Name)
	}
	// fresh runs a term and returns the rows it adds to the result.
	ordered := false
	fresh := func(term sql.SelectBody, arity int) ([][]rel.Value, []colInfo, error) {
		r, err := e.evalBody(q, term)
		if err != nil {
			return nil, nil, err
		}
		if arity >= 0 && len(r.cols) != arity {
			return nil, nil, fmt.Errorf("engine: recursive CTE %s arity changed", cte.Name)
		}
		ordered = ordered || r.ordered
		c := newCollect(len(r.cols), nil)
		if err := e.run(q, r, c, -1); err != nil {
			return nil, nil, err
		}
		out := &relation{}
		out.rows, out.ids = c.result()
		q.stats.MaterializedRows += out.count()
		return out.rowsOf(), r.cols, nil
	}
	rows, baseCols, err := fresh(top.Left, -1)
	if err != nil {
		return nil, err
	}
	cols := anonymizeCols(baseCols)
	if len(cte.Columns) > 0 {
		if len(cte.Columns) != len(cols) {
			return nil, fmt.Errorf("engine: CTE %s declares %d columns, base yields %d", cte.Name, len(cte.Columns), len(cols))
		}
		for i, c := range cte.Columns {
			cols[i] = colInfo{name: c}
		}
	}
	total := &relation{cols: cols, rows: rows}

	saved, had := q.ctes[cte.Name]
	defer func() {
		if had {
			q.ctes[cte.Name] = saved
		} else {
			delete(q.ctes, cte.Name)
		}
	}()
	for iter := 0; len(rows) > 0; iter++ {
		if iter >= maxRecursionIters {
			return nil, fmt.Errorf("engine: recursive CTE %s exceeded %d iterations", cte.Name, maxRecursionIters)
		}
		// The name means the last iteration's rows now: a subquery that
		// read it (or anything else) runs again.
		q.ctes[cte.Name] = &relation{cols: cols, rows: rows, ordered: ordered}
		clear(q.subs)
		if rows, _, err = fresh(top.Right, len(cols)); err != nil {
			return nil, err
		}
		total.rows = append(total.rows, rows...)
	}
	total.ordered = ordered
	return total, nil
}

// referencesTable reports whether a select body reads name in any FROM
// clause (used to detect genuine recursion).
func referencesTable(body sql.SelectBody, name string) bool {
	n := map[string]int{}
	countTableRefs(&sql.SelectStmt{Body: body}, 1, n)
	return n[name] > 0
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
	}
	if q.subs == nil {
		q.subs = map[*sql.SelectStmt]*valueSet{}
	}
	q.subs[stmt] = set
	return set, nil
}
