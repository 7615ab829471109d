package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sqlgraph/internal/sql"
)

// Morsel-driven intra-query parallelism: an operator's input is split
// into fixed-size morsels which workers claim from a shared counter
// (work-stealing granularity without per-row coordination, after Leis et
// al., "Morsel-Driven Parallelism"). Each worker owns its compiled
// expressions, row arena, and output buffers; per-morsel outputs are
// merged in morsel order, so parallel execution is byte-identical to
// serial execution. This is safe because QueryStmtAt holds read locks on
// every base table for the query's duration — workers only read shared
// state.

// morselRows is the number of input rows per morsel: large enough that
// claiming a morsel (one atomic add) is noise, small enough that skewed
// morsels do not serialize the tail.
const morselRows = 1024

// parallelMinRows is the input size below which fan-out is not worth the
// goroutine and merge overhead.
const parallelMinRows = 4 * morselRows

// morselPlan sizes the fan-out for an n-row input under a worker budget.
// par <= 0 means GOMAXPROCS.
func morselPlan(n, par int) (morsels, workers int) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	morsels = (n + morselRows - 1) / morselRows
	if morsels < 1 {
		morsels = 1
	}
	workers = par
	if workers > morsels {
		workers = morsels
	}
	if n < parallelMinRows || workers < 1 {
		workers = 1
	}
	return morsels, workers
}

// runMorsels processes n input rows as morsels. newWorker builds one
// worker's private state (compiled expressions, arena); process handles
// rows [lo, hi) of morsel m and must write only worker-private state and
// per-morsel output slots. A per-morsel slot is written once per morsel,
// never once per row: neighbouring slots share a cache line, and two
// workers running neighbouring morsels would pass it back and forth on
// every write. Count in a local and store the total when the morsel ends.
// Workers claim morsels from an atomic counter;
// with workers == 1 everything runs on the calling goroutine in order.
// The first error encountered is returned (remaining morsels are
// abandoned).
func runMorsels[W any](n, par int, newWorker func() (W, error), process func(w W, m, lo, hi int) error) (morsels, workers int, err error) {
	morsels, workers = morselPlan(n, par)
	if workers == 1 {
		w, err := newWorker()
		if err != nil {
			return morsels, 1, err
		}
		for m := 0; m < morsels; m++ {
			lo := m * morselRows
			hi := lo + morselRows
			if hi > n {
				hi = n
			}
			if err := process(w, m, lo, hi); err != nil {
				return morsels, 1, err
			}
		}
		return morsels, 1, nil
	}

	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w, err := newWorker()
			if err != nil {
				errs[wi] = err
				failed.Store(true)
				return
			}
			for {
				m := int(next.Add(1)) - 1
				if m >= morsels || failed.Load() {
					return
				}
				lo := m * morselRows
				hi := lo + morselRows
				if hi > n {
					hi = n
				}
				if err := process(w, m, lo, hi); err != nil {
					errs[wi] = err
					failed.Store(true)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return morsels, workers, e
		}
	}
	return morsels, workers, nil
}

// hasSubquery reports whether an expression contains a nested SELECT.
// Subquery evaluation mutates shared per-query state (CTE bindings, the
// kept subquery results), so expressions containing one must not run on
// parallel workers.
func hasSubquery(x sql.Expr) bool {
	found := false
	walkSubqueries(x, func(*sql.SelectStmt) { found = true })
	return found
}

// walkSubqueries calls fn for every nested SELECT of an expression
// (without descending into it).
func walkSubqueries(x sql.Expr, fn func(*sql.SelectStmt)) {
	switch v := x.(type) {
	case nil:
	case *sql.Unary:
		walkSubqueries(v.X, fn)
	case *sql.Binary:
		walkSubqueries(v.L, fn)
		walkSubqueries(v.R, fn)
	case *sql.IsNull:
		walkSubqueries(v.X, fn)
	case *sql.InList:
		walkSubqueries(v.X, fn)
		for _, item := range v.List {
			walkSubqueries(item, fn)
		}
	case *sql.InSubquery:
		walkSubqueries(v.X, fn)
		fn(v.Query)
	case *sql.Exists:
		fn(v.Query)
	case *sql.ScalarSubquery:
		fn(v.Query)
	case *sql.Between:
		walkSubqueries(v.X, fn)
		walkSubqueries(v.Lo, fn)
		walkSubqueries(v.Hi, fn)
	case *sql.FuncCall:
		for _, a := range v.Args {
			walkSubqueries(a, fn)
		}
	case *sql.Cast:
		walkSubqueries(v.X, fn)
	case *sql.Subscript:
		walkSubqueries(v.X, fn)
		walkSubqueries(v.Index, fn)
	case *sql.CaseExpr:
		walkSubqueries(v.Operand, fn)
		for _, w := range v.Whens {
			walkSubqueries(w.Cond, fn)
			walkSubqueries(w.Result, fn)
		}
		walkSubqueries(v.Else, fn)
	}
}

// parallelSafeConjuncts reports whether every conjunct can be evaluated
// on parallel workers.
func parallelSafeConjuncts(conjs []*conjunct) bool {
	for _, c := range conjs {
		if hasSubquery(c.expr) {
			return false
		}
	}
	return true
}

// parallelSafeExprs reports whether every expression can be evaluated on
// parallel workers.
func parallelSafeExprs(exprs []sql.Expr) bool {
	for _, x := range exprs {
		if hasSubquery(x) {
			return false
		}
	}
	return true
}
