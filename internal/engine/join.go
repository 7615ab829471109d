package engine

import (
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// indexNLStage is an index nested-loop join: for every outer row pushed
// into it, it evaluates the equi-join expressions, probes the chosen
// index with the key columns it covers, verifies the remaining join terms
// and filters, and pushes the joined rows on. kind is "INNER" or "LEFT".
// Being a stage, it runs on as many workers as the pipe it is part of
// (each with its own key functions, predicates and emitter), and the rows
// of one outer row stay together and in probe order.
type indexNLStage struct {
	e           *Engine
	q           *queryState
	t           *rel.Table
	ix          *rel.Index
	mapping     []int // per leading index column: the equi-join term supplying it
	kind        string
	shape       *joinShape
	curScope    *scope
	rightScope  *scope
	joinEqLeft  []sql.Expr // per equi-join term: expression over the outer row
	joinEqRight []int      // per equi-join term: right column position
	rightOnly   []*conjunct
	stat        int // index into ExecStats.Joins
}

func (s *indexNLStage) joinStat() int { return s.stat }

// indexNLWorker is one worker's private state for an index nested-loop
// join: compiled key expressions and predicates, probe key, emitter, and
// the per-outer-row fields its probe callback reads and writes.
type indexNLWorker struct {
	*indexNLStage
	tableName string
	keyFns    []compiledExpr
	rightPass func(row []rel.Value) (bool, error)
	emit      *joinEmitter
	leftVals  []rel.Value // evaluated equi-join expressions of the current outer row
	key       []rel.Value // the index's leading columns, drawn from leftVals
	visitFn   func(rid rel.RowID, rvals []rel.Value) bool

	lrow    []rel.Value // current outer row
	matched bool
	err     error
	outer   int // outer rows received
	probed  int // candidate rows index probes returned
}

func (s *indexNLStage) open(next sink) (sink, error) {
	w := &indexNLWorker{indexNLStage: s, tableName: s.t.Name(),
		keyFns:   make([]compiledExpr, len(s.joinEqLeft)),
		leftVals: make([]rel.Value, len(s.joinEqLeft)),
		key:      make([]rel.Value, len(s.mapping)),
	}
	w.visitFn = w.visit
	var err error
	for i, lx := range s.joinEqLeft {
		if w.keyFns[i], err = s.e.compile(s.q, s.curScope, lx); err != nil {
			return nil, err
		}
	}
	if w.rightPass, err = s.e.compilePredicates(s.q, s.rightScope, s.rightOnly); err != nil {
		return nil, err
	}
	if w.emit, err = s.e.newJoinEmitter(s.q, s.shape, next); err != nil {
		return nil, err
	}
	return w, nil
}

// visit handles one candidate the index probe returned for the current
// outer row: join terms and right-side filters are checked on the stored
// row in place, and only the columns the join keeps are copied out.
func (w *indexNLWorker) visit(rid rel.RowID, rvals []rel.Value) bool {
	w.probed++
	w.e.pageAccess(w.q, w.tableName, rid)
	// Verify every equi-join term (the index may cover only a subset).
	for j, pos := range w.joinEqRight {
		if rvals[pos].IsNull() || !rel.Equal(w.leftVals[j], rvals[pos]) {
			return true
		}
	}
	ok, err := w.rightPass(rvals)
	if err == nil && ok {
		if ok, err = w.emit.emit(w.lrow, rvals); ok {
			w.matched = true
		}
	}
	w.err = err
	return err == nil
}

func (w *indexNLWorker) push(lrow []rel.Value) error {
	w.outer++
	nullKey := false
	for j, fn := range w.keyFns {
		v, err := fn(lrow)
		if err != nil {
			return err
		}
		if v.IsNull() {
			nullKey = true
		}
		w.leftVals[j] = v
	}
	w.lrow, w.matched = lrow, false
	if !nullKey {
		for i, mi := range w.mapping {
			w.key[i] = w.leftVals[mi]
		}
		// ProbeAt resolves entries to the images visible at the query's
		// snapshot version and filters stale entries (see Table.ProbeAt).
		w.t.ProbeAt(w.ix, w.key, w.q.asOf, w.visitFn)
		if w.err != nil {
			return w.err
		}
	}
	if !w.matched && w.kind == "LEFT" {
		return w.emit.emitUnmatched(lrow)
	}
	return nil
}

func (w *indexNLWorker) done() {
	st := &w.q.stats.Joins[w.stat]
	st.BuildRows += w.outer // outer rows driving index probes
	st.ProbeRows += w.probed
	st.OutRows += w.emit.n
}

// newJoinStat appends a join's statistics entry, to be filled in as the
// join's stage instances finish, and returns its index.
func (q *queryState) newJoinStat(st JoinStat) int {
	st.EstRows, st.EstCost, st.AltCost = -1, -1, -1
	q.stats.Joins = append(q.stats.Joins, st)
	return len(q.stats.Joins) - 1
}
