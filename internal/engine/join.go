package engine

import (
	"time"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// indexNLArgs bundles the precomputed join state for indexNLJoin.
type indexNLArgs struct {
	shape       *joinShape
	curScope    *scope
	rightScope  *scope
	joinEqLeft  []sql.Expr // per equi-join term: expression over cur
	joinEqRight []int      // per equi-join term: right column position
	rightOnly   []*conjunct
	estRows     int64 // planner's output estimate, -1 unknown
}

// indexNLWorker is one worker's private state for an index nested-loop
// join: compiled key expressions and predicates, probe key, emitter, and
// the per-outer-row fields its probe callback reads and writes.
type indexNLWorker struct {
	e         *Engine
	q         *queryState
	a         *indexNLArgs
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
	buf     [][]rel.Value // current morsel's output
	probed  int           // candidate rows index probes returned
}

// visit handles one candidate the index probe returned for the current
// outer row: join terms and right-side filters are checked on the stored
// row in place, and only the columns the join keeps are copied out.
func (w *indexNLWorker) visit(rid rel.RowID, rvals []rel.Value) bool {
	w.probed++
	w.e.pageAccess(w.q, w.tableName, rid)
	// Verify every equi-join term (the index may cover only a subset).
	for j, pos := range w.a.joinEqRight {
		if rvals[pos].IsNull() || !rel.Equal(w.leftVals[j], rvals[pos]) {
			return true
		}
	}
	ok, err := w.rightPass(rvals)
	if err == nil && ok {
		var joined []rel.Value
		if joined, ok, err = w.emit.pair(w.lrow, rvals); ok {
			w.matched = true
			w.buf = append(w.buf, joined)
		}
	}
	w.err = err
	return err == nil
}

// indexNLJoin performs an index nested-loop join: for every outer row it
// evaluates the equi-join expressions, probes the chosen index with the
// key columns it covers, verifies the remaining join terms and filters,
// and emits joined rows. kind is "INNER" or "LEFT". The outer loop is
// morsel-parallel like the other joins' probe phases: each worker
// compiles its own key functions and predicates and fills per-morsel
// buffers that merge in outer-row order, so the output is byte-identical
// to a serial run.
func (e *Engine) indexNLJoin(q *queryState, cur *relation, t *rel.Table, ix *rel.Index, mapping []int, kind string, a indexNLArgs) (*relation, error) {
	opT := time.Now()
	par := q.par
	if !parallelSafeExprs(a.joinEqLeft) || !parallelSafeConjuncts(a.rightOnly) || !parallelSafeConjuncts(a.shape.residual) {
		par = 1
	}
	n := len(cur.rows)
	morsels, _ := morselPlan(n, par)
	chunks := make([][][]rel.Value, morsels)
	probed := make([]int, morsels)

	newWorker := func() (*indexNLWorker, error) {
		w := &indexNLWorker{e: e, q: q, a: &a, tableName: t.Name(),
			keyFns:   make([]compiledExpr, len(a.joinEqLeft)),
			leftVals: make([]rel.Value, len(a.joinEqLeft)),
			key:      make([]rel.Value, len(mapping)),
		}
		w.visitFn = w.visit
		var err error
		for i, lx := range a.joinEqLeft {
			if w.keyFns[i], err = e.compile(q, a.curScope, lx); err != nil {
				return nil, err
			}
		}
		if w.rightPass, err = e.compilePredicates(q, a.rightScope, a.rightOnly); err != nil {
			return nil, err
		}
		if w.emit, err = e.newJoinEmitter(q, a.shape, rowsHint(a.estRows, n, 0, min(n, morselRows))); err != nil {
			return nil, err
		}
		return w, nil
	}
	m, workers, err := runMorsels(n, par, newWorker, func(w *indexNLWorker, m, lo, hi int) error {
		// Sized from the estimate, or from what this worker's previous
		// morsel produced when the estimate fell short of it.
		w.buf = make([][]rel.Value, 0, max(rowsHint(a.estRows, n, lo, hi), len(w.buf)))
		w.probed = 0
		for _, lrow := range cur.rows[lo:hi] {
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
				for i, mi := range mapping {
					w.key[i] = w.leftVals[mi]
				}
				// ProbeAt resolves entries to the images visible at the query's
				// snapshot version and filters stale entries (see Table.ProbeAt).
				t.ProbeAt(ix, w.key, q.asOf, w.visitFn)
				if w.err != nil {
					return w.err
				}
			}
			if !w.matched && kind == "LEFT" {
				w.buf = append(w.buf, w.emit.unmatched(lrow))
			}
		}
		chunks[m], probed[m] = w.buf, w.probed
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &relation{cols: a.shape.cols, rows: mergeMorsels(chunks)}
	stat := JoinStat{
		Strategy:  StrategyIndexNL,
		Table:     t.Name(),
		BuildRows: n, // outer rows driving index probes
		OutRows:   len(out.rows),
		Morsels:   m,
		Workers:   workers,
		StartNs:   q.sinceStart(opT),
		Nanos:     time.Since(opT).Nanoseconds(),
		EstRows:   -1,
		EstCost:   -1,
		AltCost:   -1,
	}
	for _, p := range probed {
		stat.ProbeRows += p
	}
	q.stats.Joins = append(q.stats.Joins, stat)
	return out, nil
}
