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
	c := &conjunct{expr: e, refs: &exprRefs{}}
	collectRefs(e, c.refs)
	return append(out, c)
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

// corePlan is one SELECT core prepared under a plan stamp (plancache.go):
// every name resolved, every expression compiled, each join's strategy,
// shape and access candidates fixed, the joins in FROM order. It is
// immutable and shared by every execution under its stamp; what the
// arguments decide — the access path a scan takes, how a run is cut —
// each execution decides.
type corePlan struct {
	prep
	joins    []*joinPlan // the FROM items, each followed by the JOINs of its chain
	where    predicate   // the WHERE terms no join applied; nil when none
	agg      *aggregator // nil unless the core aggregates
	proj     *projPlan   // the select list of a core that does not
	distinct bool
}

// joinPlan is one FROM item, or one JOIN of its chain, prepared.
type joinPlan struct {
	kind     string // "INNER" or "LEFT"
	alias    string
	cte      int // the CTE's slot in the execution's bindings (queryState.env); -1 for a base table
	table    *rel.Table
	cols     []colInfo        // the right side's columns under its alias
	out      []colInfo        // the columns the step leaves: what the next one reads
	cells    [][]compiledExpr // TABLE(VALUES): per row, its cells over the left row; right is its inline filter
	leftOnly predicate        // terms on the left side alone, applied before the join
	right    predicate        // terms on the right side alone: a CTE's filter, or what an index probe verifies
	scan     *scanPlan        // how a base table read as a whole is accessed
	stat     JoinStat         // its Strategy: index-nl, hash, nested-loop, or none for the first FROM item
	ix       *rel.Index       // index-nl: the index probed, and per leading column the term supplying it
	mapping  []int
	keys     []compiledExpr // per equi-join term: the expression over the left row
	eqRight  []int          // per equi-join term: the right column position
	shape    *joinShape
}

// filter compiles terms into a filter and marks them applied.
func (p *prep) filter(sc *scope, conjs []*conjunct) (predicate, error) {
	markApplied(conjs)
	return p.predicates(sc, conjs)
}

// unitRows is the one row, of no columns, a SELECT without FROM reads.
var unitRows = [][]rel.Value{{}}

// evalSimpleSelect runs a core's plan: its joins, WHERE residue and
// projection are stages on the relation its first FROM item reads,
// returned pending; its aggregate or DISTINCT is a terminal, run here.
func (e *Engine) evalSimpleSelect(q *queryState, sel *sql.SimpleSelect) (*relation, error) {
	cp, err := e.prepared(q, sel)
	if err != nil {
		return nil, err
	}
	f, err := cp.frame(e, q)
	if err != nil {
		return nil, err
	}
	cur := &relation{rows: unitRows}
	for _, j := range cp.joins {
		if cur, err = e.execJoin(f, cur, j); err != nil {
			return nil, err
		}
	}
	if cp.where != nil {
		cur = f.where(cur, cp.where)
	}
	if cp.agg != nil {
		return e.aggregate(f, cur, cp.agg, cp.distinct)
	}
	out := f.project(cur, cp.proj)
	if !cp.distinct {
		return out, nil
	}
	return e.distinct(q, out)
}

// prepareCore prepares a SELECT core: every FROM step in the order the
// statement writes them, with pushdown and join selection, the WHERE
// residue, the select list.
func (e *Engine) prepareCore(q *queryState, sel *sql.SimpleSelect) (*corePlan, error) {
	cp := &corePlan{distinct: sel.Distinct}
	p := &cp.prep
	conjs := splitConjuncts(sel.Where, nil)
	// ON terms are split up front so the needed-column analysis sees every
	// term that will ever read a column of this core.
	on := make([][][]*conjunct, len(sel.From))
	for i, ref := range sel.From {
		for _, jc := range ref.Joins {
			on[i] = append(on[i], splitConjuncts(jc.On, nil))
		}
	}
	needs := newColNeeds(sel, conjs, on)
	var cols []colInfo
	add := func(j *joinPlan, err error) error {
		if err == nil {
			cp.joins, cols = append(cp.joins, j), j.out
		}
		return err
	}
	for i, ref := range sel.From {
		if err := add(e.prepareJoin(q, p, cols, ref, conjs, "INNER", nil, needs, i == 0)); err != nil {
			return nil, err
		}
		for k, jc := range ref.Joins {
			onConjs := on[i][k]
			if err := add(e.prepareJoin(q, p, cols, jc.Right, onConjs, "LEFT", onConjs, needs, false)); err != nil {
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
	}

	// Apply any WHERE conjuncts not yet consumed.
	sc := newScope(cols)
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
	var err error
	if len(remaining) > 0 {
		if cp.where, err = p.filter(sc, remaining); err != nil {
			return nil, err
		}
	}
	if len(sel.GroupBy) > 0 || slices.ContainsFunc(sel.Items, func(it sql.SelectItem) bool { return len(collectAggCalls(it.Expr, nil)) > 0 }) {
		cp.agg, err = p.prepareAgg(sc, sel)
	} else {
		cp.proj, err = p.prepareProject(sc, sel.Items)
	}
	return cp, err
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

// projPlan is a select list prepared: per item, the input position it
// copies, or its compiled expression.
type projPlan struct {
	cols     []colInfo
	steps    []projStep
	identity bool // each input column once, in order: a change of names
}

type projStep struct {
	colPos int          // resolved position for plain column refs; -1 otherwise
	fn     compiledExpr // when colPos is -1
}

func (p *prep) prepareProject(sc *scope, items []sql.SelectItem) (*projPlan, error) {
	pp := &projPlan{cols: itemCols(items), steps: make([]projStep, len(items)), identity: len(items) == len(sc.cols)}
	for i, item := range items {
		if !resolvableIn(item.Expr, sc) {
			return nil, fmt.Errorf("engine: unknown column in select item %s", item.Expr.SQL())
		}
		pp.steps[i].colPos = -1
		if cr, ok := item.Expr.(*sql.ColumnRef); ok {
			pp.steps[i].colPos, _ = sc.resolve(cr.Table, cr.Column)
		}
		pp.identity = pp.identity && pp.steps[i].colPos == i
	}
	// Identity projection (SELECT each input column once, in order) is a
	// change of column names — after a pruned join, every Table-8 hop.
	for i := 0; i < len(items) && !pp.identity; i++ {
		var err error
		if pp.steps[i].colPos < 0 {
			if pp.steps[i].fn, err = p.compile(sc, items[i].Expr); err != nil {
				return nil, err
			}
		}
	}
	return pp, nil
}

// project appends the select list to in's pipeline.
func (f *frame) project(in *relation, pp *projPlan) *relation {
	if pp.identity {
		return in.as(pp.cols)
	}
	return in.then(pp.cols, stageFunc(func(next sink) sink {
		return &projectSink{f: f, steps: pp.steps, out: make([]rel.Value, len(pp.cols)), next: next}
	}), emitsScratch|oneToOne)
}

// projectSink evaluates the select list against each row.
type projectSink struct {
	f     *frame
	steps []projStep
	out   []rel.Value
	next  sink
}

func (s *projectSink) push(row []rel.Value) {
	for i, step := range s.steps {
		if step.colPos >= 0 {
			s.out[i] = row[step.colPos]
		} else {
			s.out[i] = step.fn(s.f, row)
		}
	}
	s.next.push(s.out)
}

// plan fixes the join's strategy, and the statistics entry each execution
// starts from.
func (j *joinPlan) plan(strategy, alt JoinStrategy, table string) {
	j.stat = JoinStat{Strategy: strategy, Table: table, AltStrategy: alt}
}

// prepareJoin prepares one table reference joined into the columns cur
// has so far. The conjunct pool is the WHERE (or ON) clause for INNER
// joins, the ON clause only for LEFT ones. The output keeps only the
// columns needs still wants. At execution the right side is stored unless
// it is the first FROM item, which becomes cur as it stands, or is probed
// through an index.
func (e *Engine) prepareJoin(q *queryState, p *prep, curCols []colInfo, ref sql.TableRef, conjs []*conjunct, kind string, onOnly []*conjunct, needs *colNeeds, first bool) (*joinPlan, error) {
	if ref.TableFn != nil {
		if kind != "INNER" {
			return nil, fmt.Errorf("engine: TABLE(VALUES) requires inner join semantics")
		}
		return p.prepareLateral(curCols, ref, conjs)
	}
	alias := ref.Alias
	if alias == "" {
		alias = ref.Table
	}
	j := &joinPlan{kind: kind, alias: alias}
	var cte *relation
	if j.cte, cte = q.cte(ref.Table); cte != nil {
		j.cols = make([]colInfo, len(cte.cols))
		for i, c := range cte.cols {
			j.cols[i] = colInfo{table: alias, name: c.name}
		}
	} else if t, ok := e.cat.Table(ref.Table); ok {
		j.table, j.cols = t, tableCols(t, alias)
	} else {
		return nil, fmt.Errorf("engine: unknown table %s", ref.Table)
	}

	curScope := newScope(curCols)
	fullCols := append(append([]colInfo(nil), curCols...), j.cols...)
	fullScope := newScope(fullCols)
	rightScope := newScope(j.cols)

	// Classify available conjuncts.
	var rightOnly []*conjunct // filter the right side before joining
	var leftOnly []*conjunct  // pure left-side WHERE terms: filter cur now
	var joinEq []*conjunct    // equi-join terms left-expr = right-col
	var joinEqLeft []sql.Expr // expression over cur per joinEq
	var residual []*conjunct  // other terms referencing both sides
	for _, c := range conjs {
		if c.applied {
			continue
		}
		if c.refs.onlyReferences(alias, j.cols) && c.refs.resolvableIn(rightScope) {
			rightOnly = append(rightOnly, c)
			continue
		}
		if !c.refs.resolvableIn(fullScope) {
			continue // belongs to a later join
		}
		if lx, rpos, ok := equiJoinParts(c.expr, curScope, rightScope); ok {
			joinEq = append(joinEq, c)
			joinEqLeft = append(joinEqLeft, lx)
			j.eqRight = append(j.eqRight, rpos)
			continue
		}
		if c.refs.resolvableIn(curScope) && onOnly == nil {
			leftOnly = append(leftOnly, c)
			continue
		}
		residual = append(residual, c)
	}
	var err error
	if len(leftOnly) > 0 {
		if j.leftOnly, err = p.filter(curScope, leftOnly); err != nil {
			return nil, err
		}
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
	keep := needs.keep(fullCols, joinEq, rightOnly, residual)
	stage := func() error {
		if len(joinEq) > 0 && !demotedEq {
			if j.keys, err = p.compileAll(curScope, joinEqLeft); err != nil {
				return err
			}
		}
		if j.stat.Strategy == StrategyIndexNL {
			if j.right, err = p.filter(rightScope, rightOnly); err != nil {
				return err
			}
		}
		j.shape, err = p.newJoinShape(curCols, j.cols, fullScope, keep, pairTerms)
		j.out = j.shape.cols
		markApplied(joinEq, residual)
		return err
	}

	// Base tables with an index on a join column use an index nested-loop
	// join: probe the index once per outer row instead of materializing
	// the whole table (this is what makes the OPA/OSA/EA traversal
	// templates fast). A forced strategy (benchmarks, equivalence tests)
	// bypasses index selection.
	if j.table != nil && len(joinEq) > 0 && q.force == StrategyAuto {
		if j.ix, j.mapping = joinIndexFor(j.table, j.eqRight, q.asOf); j.ix != nil {
			j.plan(StrategyIndexNL, StrategyHash, j.table.Name())
			return j, stage()
		}
	}

	// Filter the right side with its own predicates (possibly via index
	// when the right side is a base table). Either way the surviving rows
	// are the source's own: nothing is copied.
	if j.table != nil {
		if j.scan, err = p.prepareScan(q, j.table, alias, j.cols, rightOnly); err != nil {
			return nil, err
		}
	} else if len(rightOnly) > 0 {
		if j.right, err = p.filter(rightScope, rightOnly); err != nil {
			return nil, err
		}
	}

	// The first FROM item meets the one-row, no-column unit relation: its
	// rows are the result as they stand — a pending CTE's pipeline, or rows
	// shared with the CTE or table they came from (see the immutability
	// rule in DESIGN.md §8).
	if kind == "INNER" && first && len(joinEq) == 0 && len(residual) == 0 {
		j.out = j.cols
		return j, nil
	}
	switch {
	case len(joinEq) > 0 && !demotedEq:
		// Hash join: the default for equi-joins no index covers.
		j.plan(StrategyHash, StrategyNestedLoop, alias)
	case demotedEq:
		j.plan(StrategyNestedLoop, StrategyHash, alias)
	default:
		// Nested-loop join: true cross joins and non-equi conditions only.
		j.plan(StrategyNestedLoop, StrategyAuto, alias)
	}
	return j, stage()
}

// execJoin runs one prepared FROM step over cur.
func (e *Engine) execJoin(f *frame, cur *relation, j *joinPlan) (*relation, error) {
	q := f.q
	if j.cells != nil {
		return cur.then(j.out, stageFunc(func(next sink) sink {
			return &lateralSink{f: f, j: j, out: make([]rel.Value, len(j.out)), next: next}
		}), emitsScratch), nil
	}
	if j.leftOnly != nil {
		cur = f.where(cur, j.leftOnly)
	}
	if j.stat.Strategy == StrategyIndexNL {
		st := &indexNLStage{f: f, j: j, stat: q.newJoinStat(j.stat)}
		return cur.then(j.out, st, emitsScratch), nil
	}
	var right *relation
	if j.table != nil {
		right = e.scanBase(f, j.scan)
	} else {
		right = q.env[j.cte].rel.as(j.cols)
		if j.right != nil {
			right = f.where(right, j.right)
		}
	}
	if j.stat.Strategy == StrategyAuto {
		return right, nil
	}
	if err := e.materialize(q, right); err != nil {
		return nil, err
	}
	var out *relation
	if j.stat.Strategy == StrategyHash {
		out = e.hashJoin(f, cur, right, j)
	} else {
		st := &nestedLoopStage{f: f, j: j, right: right.rowsOf()}
		st.stat = q.newJoinStat(j.stat)
		q.stats.Joins[st.stat].ProbeRows = len(st.right)
		out = cur.then(j.out, st, emitsScratch)
	}
	// Output order follows the outer rows, and each one's matches the
	// order of the rows stored on the other side.
	out.ordered = cur.ordered || right.ordered
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
	f     *frame
	j     *joinPlan
	right [][]rel.Value
	stat  int // index into ExecStats.Joins
}

func (s *nestedLoopStage) joinStat() int { return s.stat }

type nestedLoopWorker struct {
	*nestedLoopStage
	emit  *joinEmitter
	outer int
}

func (s *nestedLoopStage) open(next sink) sink {
	return &nestedLoopWorker{nestedLoopStage: s, emit: newJoinEmitter(s.f, s.j.shape, next)}
}

func (w *nestedLoopWorker) push(lrow []rel.Value) {
	w.outer++
	matched := false
	for _, rrow := range w.right {
		matched = w.emit.emit(lrow, rrow) || matched
	}
	if !matched && w.j.kind == "LEFT" {
		w.emit.emitUnmatched(lrow)
	}
}

func (w *nestedLoopWorker) done() {
	st := &w.f.q.stats.Joins[w.stat]
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

// prepareLateral prepares TABLE(VALUES (e1),(e2),...) AS t(col): for
// each row of cur, one row per VALUES entry with the entry's expressions
// (evaluated in cur's scope) bound to the declared columns.
func (p *prep) prepareLateral(curCols []colInfo, ref sql.TableRef, conjs []*conjunct) (*joinPlan, error) {
	fn := ref.TableFn
	j := &joinPlan{kind: "INNER", out: append([]colInfo(nil), curCols...), cells: make([][]compiledExpr, len(fn.Rows))}
	for _, c := range fn.Columns {
		j.out = append(j.out, colInfo{table: ref.Alias, name: c})
	}
	curScope, outScope := newScope(curCols), newScope(j.out)

	// Conjuncts that become resolvable once the lateral columns exist and
	// were not resolvable before are applied inline (e.g. t.val IS NOT
	// NULL in the paper's out-pipe template).
	var inline []*conjunct
	for _, c := range conjs {
		if !c.applied && c.refs.resolvableIn(outScope) && !c.refs.resolvableIn(curScope) {
			inline = append(inline, c)
		}
	}
	var err error
	for ri, valueRow := range fn.Rows {
		if len(valueRow) != len(fn.Columns) {
			return nil, fmt.Errorf("engine: VALUES row arity %d, declared %d columns", len(valueRow), len(fn.Columns))
		}
		if j.cells[ri], err = p.compileAll(curScope, valueRow); err != nil {
			return nil, err
		}
	}
	j.right, err = p.filter(outScope, inline)
	return j, err
}

type lateralSink struct {
	f    *frame
	j    *joinPlan
	out  []rel.Value
	next sink
}

func (s *lateralSink) push(lrow []rel.Value) {
	n := copy(s.out, lrow)
	for _, cells := range s.j.cells {
		for i, cf := range cells {
			s.out[n+i] = cf(s.f, lrow)
		}
		if s.j.right(s.f, s.out) {
			s.next.push(s.out)
		}
	}
}
