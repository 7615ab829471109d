package engine

import (
	"fmt"
	"math"
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
	env      []cteBinding  // the WITH names in scope, innermost last
	params   []Arg         // this execution's arguments; never stored in the statement or a cached plan
	idSets   []*valueSet   // by parameter index: the sets of the id lists among params, built when a frame first binds one
	ioMisses int64         // buffer-pool misses (atomic; morsel workers add concurrently)
	par      int           // morsel-parallelism budget (0 = GOMAXPROCS, 1 = serial)
	sizes    morselSizes   // the engine's morsel work target and fan-out gate (zero: the defaults)
	force    JoinStrategy  // forced join strategy, StrategyAuto for each join's rule
	asOf     rel.Version   // snapshot version for base-table reads (zero = latest)
	t0       time.Time     // query start; anchors operator StartNs offsets
	stats    ExecStats     // per-operator execution statistics
	provider StatsProvider // the statistics access paths are costed from; nil: the syntactic preference
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

// openSelect evaluates a statement as far as it must: a statement without
// ORDER BY, OFFSET or LIMIT comes back pending, for its reader to extend
// or run. Its WITH names may go out of scope first: every name its cores
// read was resolved, and every subquery run, when the core's frame bound.
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
		// way than as its driving input; its subqueries have run, under the
		// names bound here. Every other CTE is stored now.
		if r.src != nil && sp.readers[i] == 1 {
			stat.Fused = true // until its reader stores it (materialize)
			r = r.then(r.cols, cteMark{q: q, stat: len(q.stats.CTEs)}, oneToOne)
		} else if err := e.materialize(q, r); err != nil {
			return nil, fmt.Errorf("in CTE %s: %w", cte.Name, err)
		}
		stat.Rows = r.count()
		stat.Nanos = time.Since(cteT).Nanoseconds()
		q.stats.CTEs = append(q.stats.CTEs, stat)
		q.env = append(q.env, cteBinding{name: cte.Name, rel: r})
	}

	out, err := e.evalBody(q, stmt.Body)
	if err != nil || len(stmt.OrderBy) == 0 && stmt.Offset == nil && stmt.Limit == nil {
		return out, err
	}
	return e.orderCut(q, sp, out)
}

// stmtPlan is what a statement keeps between executions: the tables it
// reads, its WITH entries' readers, and its ORDER BY, OFFSET and LIMIT
// compiled over its body's columns (err, reported when an execution binds
// them, once its body's cores are prepared).
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

// orderCut runs the statement's body, in, into its ORDER BY, OFFSET and
// LIMIT (DESIGN.md §8): the frame they read is bound first — their
// subqueries run, OFFSET and LIMIT are evaluated — and then the body's
// pipes run straight into a cut, which stores only the rows it keeps.
func (e *Engine) orderCut(q *queryState, sp *stmtPlan, in *relation) (*relation, error) {
	if sp.err != nil {
		return nil, sp.err
	}
	f, err := sp.frame(e, q)
	if err != nil {
		return nil, err
	}
	// OFFSET+LIMIT saturates: a LIMIT past what any table holds keeps
	// every row, as no LIMIT does.
	offset, keep := 0, math.MaxInt
	if sp.offset != nil {
		offset = max(int(sp.offset(f, nil).Int()), 0)
	}
	if sp.limit != nil {
		if n := max(int(sp.limit(f, nil).Int()), 0); n < math.MaxInt-offset {
			keep = offset + n
		}
	}
	t := newCut(f, sp.order, keep, len(in.cols))
	// Sized once by the rows the body is expected to yield, never by
	// OFFSET+LIMIT alone.
	if n := min(in.expected(), keep); n > 0 {
		t.kept, t.flat, t.arena.next = make([]cutRow, 0, n), make([]rel.Value, 0, n*len(sp.order)), n
	}
	kind := "sort"
	if len(sp.order) == 0 {
		kind = "limit"
	}
	op := len(q.stats.Ops)
	q.stats.Ops = append(q.stats.Ops, OpStat{Kind: kind, StartNs: q.sinceStart(time.Now())})
	if err := e.run(q, in, t, op); err != nil {
		return nil, err
	}
	finT := time.Now()
	rows, copied := t.result(offset)
	out := &relation{cols: in.cols, rows: rows, ordered: in.ordered || len(sp.order) > 0}
	d := time.Since(finT).Nanoseconds()
	st := &q.stats.Ops[op]
	st.Nanos += d
	q.stats.Pipelines[len(q.stats.Pipelines)-1].Nanos += d
	st.RowsIn, st.RowsOut = t.in, len(rows)
	q.stats.MaterializedRows += copied
	return out, nil
}

// cut is the terminal of a statement's ORDER BY, OFFSET and LIMIT: it
// keeps the first keep rows by their ORDER BY keys and then their input
// position, so equal keys keep their input order. Under a LIMIT the best
// rows so far are a bounded max-heap whose root sorts last; a row that
// sorts after it is dropped before anything is copied. With no ORDER BY a
// row's position is its only key, so the first keep rows are kept and the
// rest dropped. With no LIMIT (keep is math.MaxInt) every row is kept and
// sorted once at the end.
//
// On several workers under a LIMIT each worker's part is a cut of its own.
// It keeps, of each morsel it runs, the rows that are among the best keep
// of all its morsels so far — a worker claims morsels in input order, so a
// row its earlier morsels' best keep all sort ahead of cannot be in the
// answer — and hands them over in input order when the morsel ends.
// absorb offers them again, morsel by morsel, with a running position. The
// result is the same at any worker count. Without a LIMIT a worker's part
// is a buffer of its morsels' rows, which absorb offers again in the same
// way.
type cut struct {
	f     *frame
	keys  []compiledExpr
	keep  int
	kept  []cutRow      // the rows kept; a part's are its morsels' windows in turn, the last from base on
	heap  []int         // under a LIMIT: the kept rows still among the best keep, as indices into kept
	base  int           // a part's rows handed over end here
	flat  []rel.Value   // the kept rows' keys, len(keys) each; a replaced row's are overwritten in place
	cand  []rel.Value   // the keys of the row being offered
	arena *rowArena     // copies of the scratch rows kept
	copy  bool          // pushed rows are scratch
	pos   int           // rows offered so far: the next one's position
	in    int           // rows received
	order []int         // a part's: its morsel's rows in input order, as indices into kept
	out   [][]rel.Value // a part's: the rows it handed over
}

// cutRow is a row a cut keeps, with its ORDER BY keys and its position.
// owned says row is the cut's own copy, which a row that replaces it may
// overwrite.
type cutRow struct {
	keys  []rel.Value
	row   []rel.Value
	seq   int
	owned bool
}

func newCut(f *frame, keys []compiledExpr, keep, width int) *cut {
	return &cut{f: f, keys: keys, keep: keep, cand: make([]rel.Value, len(keys)), arena: newRowArena(width, 0)}
}

// bounded reports whether the cut drops rows: it has a LIMIT.
func (t *cut) bounded() bool { return t.keep < math.MaxInt }

// compare orders rows by their keys, ascending, then by position.
func (t *cut) compare(a, b *cutRow) int {
	if c := compareKeys(a.keys, b.keys); c != 0 {
		return c
	}
	return a.seq - b.seq
}

func compareKeys(a, b []rel.Value) int {
	for j := range a {
		if c := rel.Compare(a[j], b[j]); c != 0 {
			return c
		}
	}
	return 0
}

func (t *cut) push(row []rel.Value) {
	t.in++
	t.offer(row, t.copy, false)
}

// offer keeps row if it is among the best keep rows so far. scratch says
// row must be copied to be kept; owned says it is the cut's own already,
// a part's copy handed over.
func (t *cut) offer(row []rel.Value, scratch, owned bool) {
	for j, key := range t.keys {
		t.cand[j] = key(t.f, row)
	}
	seq := t.pos
	t.pos++
	scratch = scratch && len(row) > 0
	if len(t.heap) < t.keep {
		t.add(t.stored(row, seq, scratch, owned))
		return
	}
	// A row with keys equal to the root's sorts after it.
	if len(t.heap) == 0 || compareKeys(t.cand, t.kept[t.heap[0]].keys) >= 0 {
		return
	}
	// The row takes the root's place: in the root's storage when the root
	// is this morsel's own, else as a row of this morsel's.
	if r := t.heap[0]; r >= t.base {
		root := &t.kept[r]
		copy(root.keys, t.cand)
		switch {
		case !scratch:
			root.row, root.owned = row, owned
		case root.owned:
			copy(root.row, row)
		default:
			root.row, root.owned = append(t.arena.alloc()[:0], row...), true
		}
		root.seq = seq
	} else {
		t.kept = append(t.kept, t.stored(row, seq, scratch, owned))
		t.heap[0] = len(t.kept) - 1
	}
	t.siftDown()
}

// stored returns the row being offered with storage of its own: its keys,
// from cand, and a copy of it when it is scratch.
func (t *cut) stored(row []rel.Value, seq int, scratch, owned bool) cutRow {
	t.flat = append(t.flat, t.cand...)
	n := len(t.flat)
	e := cutRow{keys: t.flat[n-len(t.cand) : n : n], row: row, seq: seq, owned: owned}
	if scratch {
		e.row, e.owned = append(t.arena.alloc()[:0], row...), true
	}
	return e
}

// add keeps e, for which the heap has room.
func (t *cut) add(e cutRow) {
	t.kept = append(t.kept, e)
	if !t.bounded() {
		return
	}
	t.heap = append(t.heap, len(t.kept)-1)
	h := t.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if t.compare(&t.kept[h[i]], &t.kept[h[parent]]) <= 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap after its root was replaced.
func (t *cut) siftDown() {
	h := t.heap
	for i := 0; ; {
		top := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if t.compare(&t.kept[h[c]], &t.kept[h[top]]) > 0 {
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

func (t *cut) feed(scratch bool) { t.copy = scratch }

// part returns a worker's end of the chain: under a LIMIT a cut of its
// own, whose rows, keys and copies live in storage that only grows, so a
// morsel costs no allocation beyond the rows it keeps; without one, a
// buffer of the morsel's rows, since every row is kept.
func (t *cut) part(width int, scratch bool) part {
	if !t.bounded() {
		return &collect{arena: newRowArena(width, 0), copy: scratch}
	}
	p := newCut(t.f, t.keys, t.keep, width)
	p.copy = scratch
	return p
}

// replays reports whether the parts would only buffer rows: with no keys
// to evaluate, or no LIMIT to drop rows by, a stored head is run on one
// worker.
func (t *cut) replays() bool { return len(t.keys) == 0 || !t.bounded() }

func (t *cut) received() int { return t.in }

// takeMorsel hands over the rows the morsel kept, in input order, and
// starts the next morsel's window past them. The heap goes on: a row of a
// later morsel must beat the best rows of this one too.
func (t *cut) takeMorsel() morselBuf {
	t.order = t.order[:0]
	for i := t.base; i < len(t.kept); i++ {
		t.order = append(t.order, i)
	}
	slices.SortFunc(t.order, func(a, b int) int { return t.kept[a].seq - t.kept[b].seq })
	n := len(t.out)
	for _, i := range t.order {
		t.out = append(t.out, t.kept[i].row)
	}
	m := morselBuf{rows: t.out[n:len(t.out):len(t.out)], in: t.in}
	t.base, t.in = len(t.kept), 0
	return m
}

// absorb offers the morsels' rows again, in morsel order: the leading
// one-integer rows a buffer kept as ids through a scratch row, the others
// as they are — copies the parts made of scratch rows are the cut's own.
func (t *cut) absorb(ms []morselBuf) {
	idRow := make([]rel.Value, 1)
	for _, m := range ms {
		t.in += m.in
		for _, id := range m.ids {
			idRow[0] = rel.NewInt(id)
			t.offer(idRow, true, false)
		}
		for _, row := range m.rows {
			t.offer(row, false, t.copy)
		}
	}
}

// result returns the rows kept, in order, past the first offset, in a
// slice of their own, and how many of the rows kept are copies the cut
// stored: a row it kept from stored rows is theirs.
func (t *cut) result(offset int) (rows [][]rel.Value, copied int) {
	if len(t.keys) > 0 {
		slices.SortFunc(t.kept, func(a, b cutRow) int { return t.compare(&a, &b) })
	}
	for i := range t.kept {
		if t.kept[i].owned {
			copied++
		}
	}
	if offset >= len(t.kept) {
		return nil, copied
	}
	rows = make([][]rel.Value, len(t.kept)-offset)
	for i := range rows {
		rows[i] = t.kept[offset+i].row
	}
	return rows, copied
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
// uncorrelated in this dialect, so one runs once per execution of the
// core or statement whose expressions hold it, however many of them do
// and however many rows probe it: when that execution's frame binds
// (prep.frame), which keeps the set in the subquery's slot.
func (e *Engine) subquerySet(q *queryState, stmt *sql.SelectStmt) (*valueSet, error) {
	r, err := e.evalSelect(q, stmt)
	if err != nil {
		return nil, err
	}
	if len(r.cols) != 1 {
		return nil, fmt.Errorf("engine: IN subquery must return one column, got %d", len(r.cols))
	}
	if r.set != nil {
		return &valueSet{ids: *r.set}, nil
	}
	rows := r.rowsOf()
	vals := make([]rel.Value, len(rows))
	for i, row := range rows {
		vals[i] = row[0]
	}
	set := newValueSet(vals)
	set.null = false // a NULL the subquery returns is no member
	return set, nil
}
