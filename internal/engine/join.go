package engine

import (
	"sqlgraph/internal/rel"
)

// indexNLStage is an index nested-loop join: for every outer row pushed
// into it, it evaluates the equi-join expressions, probes the chosen
// index with the key columns it covers, verifies the remaining join terms
// and filters, and pushes the joined rows on. Being a stage, it runs on
// as many workers as the pipe it is part of (each with its own probe key
// and emitter, all sharing the plan's closures), and the rows of one
// outer row stay together and in probe order.
type indexNLStage struct {
	f    *frame
	j    *joinPlan
	stat int // index into ExecStats.Joins
}

func (s *indexNLStage) joinStat() int { return s.stat }

// indexNLWorker is one worker's private state for an index nested-loop
// join: probe key, emitter, and the per-outer-row fields its probe
// callback reads and writes.
type indexNLWorker struct {
	*indexNLStage
	tableName string
	emit      *joinEmitter
	leftVals  []rel.Value // evaluated equi-join expressions of the current outer row
	key       []rel.Value // the index's leading columns, drawn from leftVals
	visitFn   func(rid rel.RowID, rvals []rel.Value) bool

	lrow    []rel.Value // current outer row
	matched bool
	outer   int // outer rows received
	probed  int // candidate rows index probes returned
}

func (s *indexNLStage) open(next sink) (sink, error) {
	w := &indexNLWorker{indexNLStage: s, tableName: s.j.table.Name(),
		leftVals: make([]rel.Value, len(s.j.keys)),
		key:      make([]rel.Value, len(s.j.mapping)),
		emit:     newJoinEmitter(s.f, s.j.shape, next),
	}
	w.visitFn = w.visit
	return w, s.f.bind(s.j.subs)
}

// visit handles one candidate the index probe returned for the current
// outer row: join terms and right-side filters are checked on the stored
// row in place, and only the columns the join keeps are copied out.
func (w *indexNLWorker) visit(rid rel.RowID, rvals []rel.Value) bool {
	w.probed++
	w.f.pageAccess(w.tableName, rid)
	// Verify every equi-join term (the index may cover only a subset).
	for j, pos := range w.j.eqRight {
		if rvals[pos].IsNull() || !rel.Equal(w.leftVals[j], rvals[pos]) {
			return true
		}
	}
	if w.j.right.pass(w.f, rvals) && w.emit.emit(w.lrow, rvals) {
		w.matched = true
	}
	return true
}

func (w *indexNLWorker) push(lrow []rel.Value) {
	w.outer++
	nullKey := false
	for j, fn := range w.j.keys {
		v := fn(w.f, lrow)
		nullKey = nullKey || v.IsNull()
		w.leftVals[j] = v
	}
	w.lrow, w.matched = lrow, false
	if !nullKey {
		for i, mi := range w.j.mapping {
			w.key[i] = w.leftVals[mi]
		}
		// ProbeAt resolves entries to the images visible at the query's
		// snapshot version and filters stale entries (see Table.ProbeAt).
		w.j.table.ProbeAt(w.j.ix, w.key, w.f.q.asOf, w.visitFn)
	}
	if !w.matched && w.j.kind == "LEFT" {
		w.emit.emitUnmatched(lrow)
	}
}

func (w *indexNLWorker) done() {
	st := &w.f.q.stats.Joins[w.stat]
	st.BuildRows += w.outer // outer rows driving index probes
	st.ProbeRows += w.probed
	st.OutRows += w.emit.n
}

// newJoinStat appends a join's statistics entry, to be filled in as the
// join's stage instances finish, and returns its index.
func (q *queryState) newJoinStat(st JoinStat) int {
	q.stats.Joins = append(q.stats.Joins, st)
	return len(q.stats.Joins) - 1
}
