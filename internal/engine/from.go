package engine

import (
	"fmt"
	"slices"
	"time"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// conjunct is one AND-term of the WHERE clause, tracked so each term is
// applied exactly once, as early as possible (predicate pushdown).
type conjunct struct {
	expr    sql.Expr
	refs    *exprRefs // columns the term reads (see colNeeds)
	applied bool
}

// splitConjuncts flattens a boolean expression into AND-terms.
func splitConjuncts(e sql.Expr, out []*conjunct) []*conjunct {
	if e == nil {
		return out
	}
	if b, ok := e.(*sql.Binary); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, &conjunct{expr: e, refs: refsOf(e)})
}

// exprRefs collects the qualified columns (and their table aliases) and
// the bare column names an expression references. An expression names a
// few columns at most and most name none (a literal or parameter
// operand), so the sets are slices, empty until something is added.
type exprRefs struct {
	qualified []string  // table aliases
	cols      []colInfo // qualified column references
	bare      []string  // unqualified column names
}

// reads reports whether the expression may read the column: a qualified
// reference names it exactly, a bare one matches it by name under any
// alias (so a name two tables share stays ambiguous downstream too).
func (r *exprRefs) reads(c colInfo) bool {
	return slices.Contains(r.bare, c.name) || slices.Contains(r.cols, c)
}

func addOnce[T comparable](set []T, x T) []T {
	if slices.Contains(set, x) {
		return set
	}
	return append(set, x)
}

// collectRefs adds the columns e references to r. A subquery is
// uncorrelated: it reads no column of the outer row.
func collectRefs(e sql.Expr, r *exprRefs) {
	v, ok := e.(*sql.ColumnRef)
	switch {
	case !ok:
		sql.Children(e, func(c sql.Expr) { collectRefs(c, r) })
	case v.Table != "":
		r.qualified = addOnce(r.qualified, v.Table)
		r.cols = addOnce(r.cols, colInfo{table: v.Table, name: v.Column})
	default:
		r.bare = addOnce(r.bare, v.Column)
	}
}

func refsOf(e sql.Expr) *exprRefs {
	r := &exprRefs{}
	collectRefs(e, r)
	return r
}

// resolvableIn reports whether every column the expression references can
// be resolved in the scope.
func resolvableIn(e sql.Expr, sc *scope) bool {
	var r exprRefs
	collectRefs(e, &r)
	return r.resolvableIn(sc)
}

func (r *exprRefs) resolvableIn(sc *scope) bool {
	for _, alias := range r.qualified {
		if !slices.ContainsFunc(sc.cols, func(c colInfo) bool { return c.table == alias }) {
			return false
		}
	}
	for _, name := range r.bare {
		if !sc.has(name) {
			return false
		}
	}
	return true
}

// onlyReferences reports whether the expression references columns of the
// single alias (and nothing else). Bare names are accepted when they
// resolve within the alias's column set.
func (r *exprRefs) onlyReferences(alias string, cols []colInfo) bool {
	for _, a := range r.qualified {
		if a != alias {
			return false
		}
	}
	for _, name := range r.bare {
		if !slices.ContainsFunc(cols, func(c colInfo) bool { return c.name == name }) {
			return false
		}
	}
	return true
}

// isConstExpr reports whether an expression references no columns at all
// (literals, params, and functions of those) and no group: COUNT(*) names
// no column but is not a constant.
func isConstExpr(e sql.Expr) bool {
	switch e.(type) {
	case *sql.Literal, *sql.Param:
		return true
	case *sql.ColumnRef:
		return false
	}
	var r exprRefs
	collectRefs(e, &r)
	return len(r.qualified) == 0 && len(r.bare) == 0 && len(collectAggCalls(e, nil)) == 0
}

// evalSimpleSelect builds one SELECT core's pipeline — FROM items with
// pushdown and join selection, WHERE residue, projection — on top of the
// relation its first FROM item reads, and returns it pending. The core's
// own breakers run it here: GROUP BY stores its input, plain aggregates
// and DISTINCT are terminals.
func (e *Engine) evalSimpleSelect(q *queryState, sel *sql.SimpleSelect) (*relation, error) {
	conjs := splitConjuncts(sel.Where, nil)

	// Unit relation: one row, no columns (SELECT without FROM).
	cur := &relation{rows: [][]rel.Value{{}}}
	refs := sel.From
	var steps []*stepPlan
	if err := e.settlePlanInputs(q, sel); err != nil {
		return nil, err
	}
	if fp := e.planFrom(q, sel, conjs); fp != nil {
		refs = fp.orderedRefs(sel.From)
		steps = fp.steps
		if fp.variants > q.stats.PlanVariants {
			q.stats.PlanVariants = fp.variants
		}
	}
	// ON terms are split up front so the needed-column analysis sees every
	// term that will ever read a column of this core.
	on := make([][][]*conjunct, len(refs))
	for i, ref := range refs {
		for _, jc := range ref.Joins {
			on[i] = append(on[i], splitConjuncts(jc.On, nil))
		}
	}
	needs := newColNeeds(sel, refs, conjs, on)
	for i, ref := range refs {
		var sp *stepPlan
		if i < len(steps) {
			sp = steps[i]
		}
		var err error
		cur, err = e.joinRef(q, cur, ref, conjs, on[i], sp, needs)
		if err != nil {
			return nil, err
		}
	}

	// Apply any WHERE conjuncts not yet consumed.
	sc := newScope(cur.cols)
	var remaining []*conjunct
	for _, c := range conjs {
		if c.applied {
			continue
		}
		if !c.refs.resolvableIn(sc) {
			return nil, fmt.Errorf("%w in WHERE term %s", ErrUnknownColumn, c.expr.SQL())
		}
		remaining = append(remaining, c)
	}
	if len(remaining) > 0 {
		cur = e.where(q, cur, sc, remaining)
	}

	if len(sel.GroupBy) > 0 || hasAggregates(sel) {
		return e.aggregate(q, cur, sel)
	}
	out, err := e.project(q, cur, sel.Items)
	if err != nil || !sel.Distinct {
		return out, err
	}
	return e.distinct(q, out)
}

// settlePlanInputs stores the pending CTEs a FROM clause reads when the
// planner is going to cost it: the planner costs a CTE input by its
// actual row count, never by a guess (DESIGN.md §15).
func (e *Engine) settlePlanInputs(q *queryState, sel *sql.SimpleSelect) error {
	if len(sel.From) < 2 || q.provider == nil || q.forcePlan < 0 {
		return nil
	}
	for _, ref := range sel.From {
		if cte, ok := q.ctes[ref.Table]; ok {
			if err := e.materialize(q, cte); err != nil {
				return err
			}
		}
	}
	return nil
}

// distinct runs r into the set of its distinct rows and records a "dedup"
// operator stat. Rows that are one integer each — a frontier of element
// ids — are kept as ids, in ascending order unless an ORDER BY is
// upstream, so the next hop probes the adjacency tables in the order they
// were loaded (DESIGN.md §21); with an ORDER BY upstream every row keeps
// its first occurrence, in order. Finishing the set is charged to the
// operator and to the run.
func (e *Engine) distinct(q *queryState, r *relation) (*relation, error) {
	op := len(q.stats.Ops)
	q.stats.Ops = append(q.stats.Ops, OpStat{Kind: "dedup", StartNs: q.sinceStart(time.Now())})
	c := newCollect(len(r.cols), &deduper{ascending: !r.ordered})
	if err := e.run(q, r, c, op); err != nil {
		return nil, err
	}
	finT := time.Now()
	st := &q.stats.Ops[op]
	out := &relation{cols: r.cols, ordered: r.ordered}
	if st.Order = c.finish(); st.Order == OrderAscending {
		out.set = &c.seen.ids
	} else {
		out.rows, out.ids = c.result()
	}
	d := time.Since(finT).Nanoseconds()
	st.Nanos += d
	q.stats.Pipelines[len(q.stats.Pipelines)-1].Nanos += d
	st.RowsIn, st.RowsOut = c.in, out.count()
	q.stats.MaterializedRows += out.count()
	return out, nil
}

// project appends the select list to in's pipeline.
func (e *Engine) project(q *queryState, in *relation, items []sql.SelectItem) (*relation, error) {
	sc := newScope(in.cols)
	outCols, plan, err := projectionPlan(sc, items)
	if err != nil {
		return nil, err
	}
	// Identity projection (SELECT each input column once, in order) is a
	// change of column names — after a pruned join, every Table-8 hop.
	if identityProjection(plan, len(in.cols)) {
		return in.as(outCols), nil
	}
	serial := false
	for _, step := range plan {
		serial = serial || hasSubquery(step.expr)
	}
	return in.then(outCols, stageFunc(func(next sink) (sink, error) {
		s := &projectSink{plan: plan, fns: make([]compiledExpr, len(plan)), out: make([]rel.Value, len(outCols)), next: next}
		for i, step := range plan {
			if step.colPos >= 0 {
				continue
			}
			fn, err := e.compile(q, sc, step.expr)
			if err != nil {
				return nil, err
			}
			s.fns[i] = fn
		}
		return s, nil
	}), emitsScratch|oneToOne|serialIf(serial)), nil
}

// projectSink evaluates the select list against each row.
type projectSink struct {
	plan []projStep
	fns  []compiledExpr // per plan step; nil for plain column references
	out  []rel.Value
	next sink
}

func (s *projectSink) push(row []rel.Value) {
	for i, step := range s.plan {
		if step.colPos >= 0 {
			s.out[i] = row[step.colPos]
		} else {
			s.out[i] = s.fns[i](row)
		}
	}
	s.next.push(s.out)
}

// identityProjection reports whether the plan copies every input column
// once, in order (e.g. SELECT VAL FROM t over a single-column input).
func identityProjection(plan []projStep, inWidth int) bool {
	for i, step := range plan {
		if step.colPos != i {
			return false
		}
	}
	return len(plan) == inWidth
}

type projStep struct {
	expr   sql.Expr
	colPos int // resolved position for plain column refs; -1 otherwise
}

func projectionPlan(sc *scope, items []sql.SelectItem) ([]colInfo, []projStep, error) {
	var outCols []colInfo
	var plan []projStep
	for i, item := range items {
		if !resolvableIn(item.Expr, sc) {
			return nil, nil, fmt.Errorf("engine: unknown column in select item %s", item.Expr.SQL())
		}
		name := item.Alias
		table := ""
		colPos := -1
		if cr, ok := item.Expr.(*sql.ColumnRef); ok {
			if name == "" {
				// Preserve the qualifier so ORDER BY t.col still resolves
				// after projection.
				name, table = cr.Column, cr.Table
			}
			if pos, err := sc.resolve(cr.Table, cr.Column); err == nil {
				colPos = pos
			}
		}
		if name == "" {
			name = fmt.Sprintf("COL%d", i+1)
		}
		outCols = append(outCols, colInfo{table: table, name: name})
		plan = append(plan, projStep{expr: item.Expr, colPos: colPos})
	}
	return outCols, plan, nil
}

// joinRef folds one FROM item (plus its LEFT JOIN chain) into cur. sp is
// the planner's decision for the primary reference (nil = legacy
// heuristics); LEFT JOIN chains are never reordered and always run legacy.
// on holds the split ON terms of the item's JOIN clauses.
func (e *Engine) joinRef(q *queryState, cur *relation, ref sql.TableRef, conjs []*conjunct, on [][]*conjunct, sp *stepPlan, needs *colNeeds) (*relation, error) {
	out, err := e.joinOne(q, cur, ref, conjs, "INNER", nil, sp, needs)
	if err != nil {
		return nil, err
	}
	for i, jc := range ref.Joins {
		onConjs := on[i]
		out, err = e.joinOne(q, out, jc.Right, onConjs, "LEFT", onConjs, nil, needs)
		if err != nil {
			return nil, err
		}
		// An ON conjunct the join machinery could not consume would change
		// what the outer join keeps.
		for _, c := range onConjs {
			if !c.applied {
				return nil, fmt.Errorf("engine: unsupported LEFT JOIN ON condition %s", c.expr.SQL())
			}
		}
	}
	return out, nil
}

// stampJoin annotates the JoinStat the just-executed join recorded (if
// any; the first FROM fold records none). With a planner step the
// estimates come from the cost model; on the legacy path only the
// considered-but-not-costed alternative strategy is recorded.
func (q *queryState) stampJoin(nBefore int, sp *stepPlan, legacyAlt JoinStrategy) {
	if len(q.stats.Joins) <= nBefore {
		return
	}
	j := &q.stats.Joins[len(q.stats.Joins)-1]
	if sp != nil {
		j.EstRows = sp.estRows
		j.EstCost = sp.cost
		if sp.altStrategy != StrategyAuto {
			j.AltStrategy = sp.altStrategy
			j.AltCost = sp.altCost
		}
		return
	}
	j.AltStrategy = legacyAlt
}

// joinOne joins one primary table reference into cur. For INNER joins the
// conjunct pool is the statement's WHERE (or the ON clause); for LEFT
// joins it is the ON clause only. sp, when non-nil, carries the cost-based
// planner's strategy choice and estimates for this step. The output keeps
// only the columns needs still wants once this join's terms are applied.
//
// cur may be pending, and stays so through every join, each a stage over
// it. The right side is stored unless it is the first FROM item, which
// becomes cur as it stands, or is probed through an index.
func (e *Engine) joinOne(q *queryState, cur *relation, ref sql.TableRef, conjs []*conjunct, kind string, onOnly []*conjunct, sp *stepPlan, needs *colNeeds) (*relation, error) {
	if ref.TableFn != nil {
		if kind != "INNER" {
			return nil, fmt.Errorf("engine: TABLE(VALUES) requires inner join semantics")
		}
		return e.lateralValues(q, cur, ref, conjs)
	}
	alias := ref.Alias
	right, baseTable, err := e.rightSource(q, ref)
	if err != nil {
		return nil, err
	}
	if alias == "" {
		alias = ref.Table
	}
	rightCols := make([]colInfo, len(right.cols))
	for i, c := range right.cols {
		rightCols[i] = colInfo{table: alias, name: c.name}
	}
	rightRel := right.as(rightCols)

	curScope := newScope(cur.cols)
	fullCols := append(append([]colInfo(nil), cur.cols...), rightCols...)
	fullScope := newScope(fullCols)
	rightScope := newScope(rightCols)

	// Classify available conjuncts.
	var rightOnly []*conjunct // filter the right side before joining
	var leftOnly []*conjunct  // pure left-side WHERE terms: filter cur now
	var joinEq []*conjunct    // equi-join terms left-expr = right-col
	var joinEqLeft []sql.Expr // expression over cur per joinEq
	var joinEqRight []int     // right column position per joinEq
	var residual []*conjunct  // other terms referencing both sides
	for _, c := range conjs {
		if c.applied {
			continue
		}
		if c.refs.onlyReferences(alias, rightCols) && c.refs.resolvableIn(rightScope) {
			rightOnly = append(rightOnly, c)
			continue
		}
		if !c.refs.resolvableIn(fullScope) {
			continue // belongs to a later join
		}
		if lx, rpos, ok := equiJoinParts(c.expr, curScope, rightScope); ok {
			joinEq = append(joinEq, c)
			joinEqLeft = append(joinEqLeft, lx)
			joinEqRight = append(joinEqRight, rpos)
			continue
		}
		if c.refs.resolvableIn(curScope) && onOnly == nil {
			leftOnly = append(leftOnly, c)
			continue
		}
		residual = append(residual, c)
	}
	if len(leftOnly) > 0 {
		cur = e.where(q, cur, curScope, leftOnly)
	}

	// Equi-join terms forced down to a nested loop are evaluated as
	// residual predicates (same NULL semantics: a NULL-keyed comparison
	// is not true, so the row does not match).
	demotedEq := q.force == StrategyNestedLoop && len(joinEq) > 0
	pairTerms := residual
	if demotedEq {
		pairTerms = append(append([]*conjunct(nil), joinEq...), residual...)
	}
	// What the join emits: the columns still read once its own terms are
	// consumed.
	shape := newJoinShape(cur.cols, rightCols, fullScope, needs.keep(fullCols, joinEq, rightOnly, residual), pairTerms)
	serial := !parallelSafeExprs(joinEqLeft) || !parallelSafeConjuncts(rightOnly) || !parallelSafeConjuncts(pairTerms)
	nJoins := len(q.stats.Joins)

	// Base tables with an index on a join column use an index nested-loop
	// join: probe the index once per outer row instead of materializing
	// the whole table (this is what makes the OPA/OSA/EA traversal
	// templates fast). A forced strategy (benchmarks, equivalence tests)
	// bypasses index selection, as does a planner step that costed hash
	// as the clear winner.
	if baseTable != nil && len(joinEq) > 0 && q.force == StrategyAuto && (sp == nil || sp.strategy != StrategyHash) {
		if ix, mapping := joinIndexFor(baseTable, joinEqRight, q.asOf); ix != nil {
			st := &indexNLStage{e: e, q: q, t: baseTable, ix: ix, mapping: mapping, kind: kind, shape: shape,
				curScope: curScope, rightScope: rightScope, joinEqLeft: joinEqLeft, joinEqRight: joinEqRight, rightOnly: rightOnly,
				stat: q.newJoinStat(JoinStat{Strategy: StrategyIndexNL, Table: baseTable.Name()})}
			q.stampJoin(nJoins, sp, StrategyHash)
			markApplied(joinEq, rightOnly, residual)
			return cur.then(shape.cols, st, emitsScratch|serialIf(serial)), nil
		}
	}

	// Filter the right side with its own predicates (possibly via index
	// when the right side is a base table). Either way the surviving rows
	// are the source's own: nothing is copied.
	if baseTable != nil {
		if sp != nil && sp.estScan >= 0 {
			q.scanEst, q.scanEstValid = sp.estScan, true
		}
		rightRel, err = e.scanBase(q, baseTable, alias, rightOnly)
		if err != nil {
			return nil, err
		}
	} else if len(rightOnly) > 0 {
		rightRel = e.where(q, rightRel, rightScope, rightOnly)
	}

	// The first FROM item meets the one-row, no-column unit relation: its
	// rows are the result as they stand — a pending CTE's pipeline, or rows
	// shared with the CTE or table they came from (see the immutability
	// rule in DESIGN.md §8).
	if kind == "INNER" && len(cur.cols) == 0 && cur.src == nil && len(cur.rows) == 1 && len(joinEq) == 0 && len(residual) == 0 {
		return rightRel, nil
	}
	if err := e.materialize(q, rightRel); err != nil {
		return nil, err
	}

	var out *relation
	if len(joinEq) > 0 && !demotedEq {
		// Hash join: the default for equi-joins no index covers.
		out = e.hashJoin(q, cur, rightRel, kind, hashJoinArgs{
			shape:       shape,
			curScope:    curScope,
			joinEqLeft:  joinEqLeft,
			joinEqRight: joinEqRight,
			rightName:   alias,
		})
		q.stampJoin(nJoins, sp, StrategyNestedLoop)
	} else {
		// Nested-loop join: true cross joins and non-equi conditions only.
		right := rightRel.rowsOf()
		st := &nestedLoopStage{e: e, q: q, right: right, kind: kind, shape: shape,
			stat: q.newJoinStat(JoinStat{Strategy: StrategyNestedLoop, Table: alias, ProbeRows: len(right)})}
		out = cur.then(shape.cols, st, emitsScratch|serialIf(serial))
		legacyAlt := StrategyAuto
		if demotedEq {
			legacyAlt = StrategyHash
		}
		q.stampJoin(nJoins, sp, legacyAlt)
	}
	// Output order follows the outer rows, and each one's matches the
	// order of the rows stored on the other side.
	out.ordered = cur.ordered || rightRel.ordered
	markApplied(joinEq, residual)
	return out, nil
}

func markApplied(lists ...[]*conjunct) {
	for _, list := range lists {
		for _, c := range list {
			c.applied = true
		}
	}
}

// nestedLoopStage compares every outer row pushed into it with every row
// of the stored right side, pushing on the pairs that pass the shape's
// residual predicates.
type nestedLoopStage struct {
	e     *Engine
	q     *queryState
	right [][]rel.Value
	kind  string
	shape *joinShape
	stat  int // index into ExecStats.Joins
}

func (s *nestedLoopStage) joinStat() int { return s.stat }

type nestedLoopWorker struct {
	*nestedLoopStage
	emit  *joinEmitter
	outer int
}

func (s *nestedLoopStage) open(next sink) (sink, error) {
	emit, err := s.e.newJoinEmitter(s.q, s.shape, next)
	return &nestedLoopWorker{nestedLoopStage: s, emit: emit}, err
}

func (w *nestedLoopWorker) push(lrow []rel.Value) {
	w.outer++
	matched := false
	for _, rrow := range w.right {
		matched = w.emit.emit(lrow, rrow) || matched
	}
	if !matched && w.kind == "LEFT" {
		w.emit.emitUnmatched(lrow)
	}
}

func (w *nestedLoopWorker) done() {
	st := &w.q.stats.Joins[w.stat]
	st.BuildRows += w.outer
	st.OutRows += w.emit.n
}

// equiJoinParts decomposes expr as (left-side expr) = (right column ref),
// in either syntactic order.
func equiJoinParts(expr sql.Expr, left, right *scope) (sql.Expr, int, bool) {
	b, ok := expr.(*sql.Binary)
	if !ok || b.Op != "=" {
		return nil, 0, false
	}
	try := func(l, r sql.Expr) (sql.Expr, int, bool) {
		cr, ok := r.(*sql.ColumnRef)
		if !ok {
			return nil, 0, false
		}
		pos, err := right.resolve(cr.Table, cr.Column)
		if err != nil {
			return nil, 0, false
		}
		if !resolvableIn(l, left) {
			return nil, 0, false
		}
		return l, pos, true
	}
	if lx, pos, ok := try(b.L, b.R); ok {
		return lx, pos, true
	}
	if lx, pos, ok := try(b.R, b.L); ok {
		return lx, pos, true
	}
	return nil, 0, false
}

// lateralValues implements TABLE(VALUES (e1),(e2),...) AS t(col): for each
// row of cur, emit one row per VALUES entry with the entry's expressions
// (evaluated in cur's scope) bound to the declared columns.
func (e *Engine) lateralValues(q *queryState, cur *relation, ref sql.TableRef, conjs []*conjunct) (*relation, error) {
	fn := ref.TableFn
	outCols := append([]colInfo(nil), cur.cols...)
	for _, c := range fn.Columns {
		outCols = append(outCols, colInfo{table: ref.Alias, name: c})
	}
	curScope, outScope := newScope(cur.cols), newScope(outCols)

	// Conjuncts that become resolvable once the lateral columns exist and
	// were not resolvable before are applied inline (e.g. t.val IS NOT
	// NULL in the paper's out-pipe template).
	var inline []*conjunct
	for _, c := range conjs {
		if !c.applied && c.refs.resolvableIn(outScope) && !c.refs.resolvableIn(curScope) {
			inline = append(inline, c)
		}
	}
	serial := !parallelSafeConjuncts(inline)
	for _, valueRow := range fn.Rows {
		if len(valueRow) != len(fn.Columns) {
			return nil, fmt.Errorf("engine: VALUES row arity %d, declared %d columns", len(valueRow), len(fn.Columns))
		}
		serial = serial || !parallelSafeExprs(valueRow)
	}
	markApplied(inline)
	// Each worker compiles every VALUES cell and the inline filters once.
	return cur.then(outCols, stageFunc(func(next sink) (sink, error) {
		s := &lateralSink{cells: make([][]compiledExpr, len(fn.Rows)), out: make([]rel.Value, len(outCols)), next: next}
		for ri, valueRow := range fn.Rows {
			s.cells[ri] = make([]compiledExpr, len(valueRow))
			for ci, vx := range valueRow {
				cf, err := e.compile(q, curScope, vx)
				if err != nil {
					return nil, err
				}
				s.cells[ri][ci] = cf
			}
		}
		var err error
		s.pass, err = e.compilePredicates(q, outScope, inline)
		return s, err
	}), emitsScratch|serialIf(serial)), nil
}

type lateralSink struct {
	cells [][]compiledExpr
	pass  func(row []rel.Value) bool
	out   []rel.Value
	next  sink
}

func (s *lateralSink) push(lrow []rel.Value) {
	n := copy(s.out, lrow)
	for _, cells := range s.cells {
		for i, cf := range cells {
			s.out[n+i] = cf(lrow)
		}
		if s.pass(s.out) {
			s.next.push(s.out)
		}
	}
}

// rightSource resolves a table reference to its rows: a CTE, a base
// table (returned unmaterialized for index-aware scanning), or a derived
// subquery.
func (e *Engine) rightSource(q *queryState, ref sql.TableRef) (*relation, *rel.Table, error) {
	switch {
	case ref.Subquery != nil:
		r, err := e.evalSelect(q, ref.Subquery)
		if err != nil {
			return nil, nil, err
		}
		if ref.Alias == "" {
			return nil, nil, fmt.Errorf("engine: derived table requires an alias")
		}
		return r, nil, nil
	case ref.Table != "":
		if cte, ok := q.ctes[ref.Table]; ok {
			return cte, nil, nil
		}
		t, ok := e.cat.Table(ref.Table)
		if !ok {
			return nil, nil, fmt.Errorf("engine: unknown table %s", ref.Table)
		}
		return &relation{cols: tableCols(t, "")}, t, nil
	default:
		return nil, nil, fmt.Errorf("engine: empty table reference")
	}
}
