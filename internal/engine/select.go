package engine

import (
	"fmt"
	"sort"
	"strings"
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
	params   []rel.Value
	inSets   map[*sql.SelectStmt]map[string]bool // memoized IN-subquery results
	ioMisses int64                               // buffer-pool misses (atomic; morsel workers add concurrently)
	par      int                                 // morsel-parallelism budget (0 = GOMAXPROCS, 1 = serial)
	force    JoinStrategy                        // forced join strategy, StrategyAuto for planner's choice
	asOf     rel.Version                         // snapshot version for base-table reads (zero = latest)
	t0       time.Time                           // query start; anchors operator StartNs offsets
	stats    ExecStats                           // per-operator execution statistics

	// Cost-based planner state. All fields are zero-value-safe so DML
	// expression evaluation (which builds bare queryStates) stays on the
	// legacy syntactic path.
	provider     StatsProvider      // optimizer statistics, nil = legacy planning
	forcePlan    int                // ExecOptions.ForcePlan (0 auto, -1 syntactic, k>=1 pinned)
	hints        map[string]float64 // graph-level CTE cardinality hints from the translator
	scanEst      int64              // planner row estimate for the next base scan...
	scanEstValid bool               // ...consumed (and reset) by scanBase
}

// addIOMiss atomically charges one buffer-pool miss to the query.
func (q *queryState) addIOMiss() { atomic.AddInt64(&q.ioMisses, 1) }

// sinceStart returns t's offset from the query start, or 0 when the
// state was built without a clock (DML expression evaluation).
func (q *queryState) sinceStart(t time.Time) int64 {
	if q.t0.IsZero() {
		return 0
	}
	return t.Sub(q.t0).Nanoseconds()
}

func (e *Engine) evalSelect(q *queryState, stmt *sql.SelectStmt) (*relation, error) {
	// Materialize CTEs in order; later CTEs may reference earlier ones.
	// CTE names shadow base tables and earlier same-named CTEs for the
	// remainder of the statement.
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
	for _, cte := range stmt.With {
		cteT := time.Now()
		var r *relation
		var err error
		if cte.Recursive && referencesTable(cte.Query.Body, cte.Name) {
			r, err = e.evalRecursiveCTE(q, cte)
		} else {
			r, err = e.evalSelect(q, cte.Query)
		}
		if err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		est := int64(-1)
		if h, ok := q.hints[cte.Name]; ok {
			est = roundEst(h)
		}
		q.stats.CTEs = append(q.stats.CTEs, CTEStat{
			Name:    cte.Name,
			EstRows: est,
			Rows:    len(r.rows),
			StartNs: q.sinceStart(cteT),
			Nanos:   time.Since(cteT).Nanoseconds(),
		})
		if len(cte.Columns) > 0 {
			if len(cte.Columns) != len(r.cols) {
				return nil, fmt.Errorf("engine: CTE %s declares %d columns, query yields %d", cte.Name, len(cte.Columns), len(r.cols))
			}
			cols := make([]colInfo, len(r.cols))
			for i, c := range cte.Columns {
				cols[i] = colInfo{name: c}
			}
			r = &relation{cols: cols, rows: r.rows}
		}
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

	if len(stmt.OrderBy) > 0 {
		if err := e.orderRows(q, out, stmt.OrderBy); err != nil {
			return nil, err
		}
	}
	if stmt.Offset != nil || stmt.Limit != nil {
		if err := e.applyLimit(q, out, stmt.Limit, stmt.Offset); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *Engine) applyLimit(q *queryState, r *relation, limit, offset sql.Expr) error {
	emptyCtx := &evalCtx{eng: e, scope: newScope(nil), params: q.params, q: q}
	start := 0
	if offset != nil {
		v, err := e.eval(emptyCtx, offset)
		if err != nil {
			return err
		}
		start = int(v.Int())
		if start < 0 {
			start = 0
		}
	}
	end := len(r.rows)
	if limit != nil {
		v, err := e.eval(emptyCtx, limit)
		if err != nil {
			return err
		}
		n := int(v.Int())
		if n < 0 {
			n = 0
		}
		if start+n < end {
			end = start + n
		}
	}
	if start > len(r.rows) {
		start = len(r.rows)
	}
	if end < start {
		end = start
	}
	// Capacity is clamped: the rows may be shared (DESIGN.md §8), so a
	// later append must not write into the slice they came from.
	r.rows = r.rows[start:end:end]
	return nil
}

func (e *Engine) orderRows(q *queryState, r *relation, items []sql.OrderItem) error {
	opT := time.Now()
	sc := newScope(r.cols)
	type sortKey struct {
		keys []rel.Value
		row  []rel.Value
	}
	keyed := make([]sortKey, len(r.rows))
	for i, row := range r.rows {
		ctx := &evalCtx{eng: e, scope: sc, row: row, params: q.params, q: q}
		keys := make([]rel.Value, len(items))
		for j, item := range items {
			// Positional ORDER BY (ORDER BY 1).
			if lit, ok := item.Expr.(*sql.Literal); ok {
				if pos, isInt := lit.Val.(int64); isInt && pos >= 1 && int(pos) <= len(row) {
					keys[j] = row[pos-1]
					continue
				}
			}
			v, err := e.eval(ctx, item.Expr)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		keyed[i] = sortKey{keys: keys, row: row}
	}
	sort.SliceStable(keyed, func(a, b int) bool {
		for j, item := range items {
			c := rel.Compare(keyed[a].keys[j], keyed[b].keys[j])
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	// The input slice may be shared with a CTE another branch still reads
	// (DESIGN.md §8): the order goes into a slice of its own.
	sorted := make([][]rel.Value, len(keyed))
	for i := range keyed {
		sorted[i] = keyed[i].row
	}
	r.rows = sorted
	q.stats.Ops = append(q.stats.Ops, OpStat{
		Kind:    "sort",
		RowsIn:  len(r.rows),
		RowsOut: len(r.rows),
		StartNs: q.sinceStart(opT),
		Nanos:   time.Since(opT).Nanoseconds(),
	})
	return nil
}

func (e *Engine) evalBody(q *queryState, body sql.SelectBody) (*relation, error) {
	switch b := body.(type) {
	case *sql.SimpleSelect:
		return e.evalSimpleSelect(q, b)
	case *sql.SetOp:
		left, err := e.evalBody(q, b.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.evalBody(q, b.Right)
		if err != nil {
			return nil, err
		}
		return combineSetOp(b.Op, left, right)
	default:
		return nil, fmt.Errorf("engine: unknown select body %T", body)
	}
}

func combineSetOp(op string, left, right *relation) (*relation, error) {
	if len(left.cols) != len(right.cols) {
		return nil, fmt.Errorf("engine: set operation arity mismatch: %d vs %d", len(left.cols), len(right.cols))
	}
	out := &relation{cols: anonymizeCols(left.cols)}
	switch op {
	case "UNION ALL":
		out.rows = make([][]rel.Value, 0, len(left.rows)+len(right.rows))
		out.rows = append(out.rows, left.rows...)
		out.rows = append(out.rows, right.rows...)
	case "UNION":
		var seen deduper
		for _, rows := range [][][]rel.Value{left.rows, right.rows} {
			for _, row := range rows {
				if !seen.seen(row) {
					out.rows = append(out.rows, row)
				}
			}
		}
	case "INTERSECT":
		var rightSet deduper
		for _, row := range right.rows {
			rightSet.seen(row)
		}
		var seen deduper
		for _, row := range left.rows {
			if rightSet.has(row) && !seen.seen(row) {
				out.rows = append(out.rows, row)
			}
		}
	case "EXCEPT":
		var rightSet deduper
		for _, row := range right.rows {
			rightSet.seen(row)
		}
		var seen deduper
		for _, row := range left.rows {
			if !rightSet.has(row) && !seen.seen(row) {
				out.rows = append(out.rows, row)
			}
		}
	default:
		return nil, fmt.Errorf("engine: unknown set operation %s", op)
	}
	return out, nil
}

// anonymizeCols drops table qualifiers (set-op outputs have no table).
func anonymizeCols(cols []colInfo) []colInfo {
	out := make([]colInfo, len(cols))
	for i, c := range cols {
		out[i] = colInfo{name: c.name}
	}
	return out
}

func rowKey(row []rel.Value) string {
	var sb strings.Builder
	for _, v := range row {
		k := v.Key()
		sb.WriteString(k)
		sb.WriteByte(0xFF)
	}
	return sb.String()
}

// deduper tracks seen rows. Single-column integer rows — the dominant
// case for the translation's DISTINCT over element ids — use an int map;
// anything else falls back to canonical string keys (migrating already
// seen keys on the way).
type deduper struct {
	ints map[int64]struct{}
	strs map[string]struct{}
}

// seen records the row and reports whether it was already present.
func (d *deduper) seen(row []rel.Value) bool {
	if d.strs == nil && len(row) == 1 && row[0].Kind() == rel.KindInt {
		if d.ints == nil {
			d.ints = map[int64]struct{}{}
		}
		v := row[0].Int()
		if _, ok := d.ints[v]; ok {
			return true
		}
		d.ints[v] = struct{}{}
		return false
	}
	if d.strs == nil {
		d.strs = make(map[string]struct{}, len(d.ints))
		for v := range d.ints {
			d.strs[rowKey([]rel.Value{rel.NewInt(v)})] = struct{}{}
		}
		d.ints = nil
	}
	k := rowKey(row)
	if _, ok := d.strs[k]; ok {
		return true
	}
	d.strs[k] = struct{}{}
	return false
}

// has reports membership without recording.
func (d *deduper) has(row []rel.Value) bool {
	if d.strs == nil {
		if len(row) == 1 && row[0].Kind() == rel.KindInt {
			_, ok := d.ints[row[0].Int()]
			return ok
		}
		// Mixed probe against an int set: compare canonical keys.
		if d.ints == nil {
			return false
		}
		k := rowKey(row)
		for v := range d.ints {
			if rowKey([]rel.Value{rel.NewInt(v)}) == k {
				return true
			}
		}
		return false
	}
	_, ok := d.strs[rowKey(row)]
	return ok
}

// evalRecursiveCTE evaluates WITH RECURSIVE via semi-naive iteration: the
// base term seeds the result; the recursive term is re-evaluated against
// the previous iteration's delta until no new rows appear.
func (e *Engine) evalRecursiveCTE(q *queryState, cte sql.CTE) (*relation, error) {
	top, ok := cte.Query.Body.(*sql.SetOp)
	if !ok || (top.Op != "UNION" && top.Op != "UNION ALL") {
		return nil, fmt.Errorf("engine: recursive CTE %s must be base UNION [ALL] recursive", cte.Name)
	}
	dedupe := top.Op == "UNION"
	base, err := e.evalBody(q, top.Left)
	if err != nil {
		return nil, err
	}
	cols := anonymizeCols(base.cols)
	if len(cte.Columns) > 0 {
		if len(cte.Columns) != len(cols) {
			return nil, fmt.Errorf("engine: CTE %s declares %d columns, base yields %d", cte.Name, len(cte.Columns), len(cols))
		}
		for i, c := range cte.Columns {
			cols[i] = colInfo{name: c}
		}
	}
	total := &relation{cols: cols, rows: append([][]rel.Value(nil), base.rows...)}
	seen := map[string]bool{}
	if dedupe {
		deduped := total.rows[:0]
		for _, row := range total.rows {
			k := rowKey(row)
			if !seen[k] {
				seen[k] = true
				deduped = append(deduped, row)
			}
		}
		total.rows = deduped
	}
	delta := &relation{cols: cols, rows: total.rows}

	saved, had := q.ctes[cte.Name]
	defer func() {
		if had {
			q.ctes[cte.Name] = saved
		} else {
			delete(q.ctes, cte.Name)
		}
	}()
	for iter := 0; len(delta.rows) > 0; iter++ {
		if iter >= maxRecursionIters {
			return nil, fmt.Errorf("engine: recursive CTE %s exceeded %d iterations", cte.Name, maxRecursionIters)
		}
		q.ctes[cte.Name] = delta
		next, err := e.evalBody(q, top.Right)
		if err != nil {
			return nil, err
		}
		if len(next.cols) != len(cols) {
			return nil, fmt.Errorf("engine: recursive CTE %s arity changed", cte.Name)
		}
		var fresh [][]rel.Value
		if dedupe {
			for _, row := range next.rows {
				k := rowKey(row)
				if !seen[k] {
					seen[k] = true
					fresh = append(fresh, row)
				}
			}
		} else {
			fresh = next.rows
		}
		total.rows = append(total.rows, fresh...)
		delta = &relation{cols: cols, rows: fresh}
	}
	return total, nil
}

// referencesTable reports whether a select body references name in any
// FROM clause (used to detect genuine recursion).
func referencesTable(body sql.SelectBody, name string) bool {
	switch b := body.(type) {
	case *sql.SetOp:
		return referencesTable(b.Left, name) || referencesTable(b.Right, name)
	case *sql.SimpleSelect:
		for _, ref := range b.From {
			if tableRefMentions(ref, name) {
				return true
			}
		}
	}
	return false
}

func tableRefMentions(ref sql.TableRef, name string) bool {
	if ref.Table == name {
		return true
	}
	if ref.Subquery != nil && referencesTable(ref.Subquery.Body, name) {
		return true
	}
	for _, j := range ref.Joins {
		if tableRefMentions(j.Right, name) {
			return true
		}
	}
	return false
}

// subquery evaluates a nested SELECT with the current query state.
func (e *Engine) subquery(ctx *evalCtx, stmt *sql.SelectStmt) (*relation, error) {
	return e.evalSelect(ctx.q, stmt)
}

// subqueryKeySet evaluates an IN-subquery once and returns the key set of
// its single output column. Results are memoized per query so repeated
// probes do not re-execute the subquery.
func (e *Engine) subqueryKeySet(ctx *evalCtx, stmt *sql.SelectStmt) (map[string]bool, error) {
	if ctx.q.inSets == nil {
		ctx.q.inSets = map[*sql.SelectStmt]map[string]bool{}
	}
	if set, ok := ctx.q.inSets[stmt]; ok {
		return set, nil
	}
	rows, err := e.subquery(ctx, stmt)
	if err != nil {
		return nil, err
	}
	if len(rows.cols) != 1 {
		return nil, fmt.Errorf("engine: IN subquery must return one column, got %d", len(rows.cols))
	}
	set := make(map[string]bool, len(rows.rows))
	for _, row := range rows.rows {
		if !row[0].IsNull() {
			set[row[0].Key()] = true
		}
	}
	ctx.q.inSets[stmt] = set
	return set, nil
}
