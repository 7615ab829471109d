package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sqlgraph/internal/sql"
)

// Morsel-driven intra-query parallelism: an operator's input is split
// into morsels which workers claim from a shared counter (work-stealing
// granularity without per-row coordination, after Leis et al.,
// "Morsel-Driven Parallelism"). Each worker owns its scratch rows, row
// arena, and output buffers, and shares the plan's expressions;
// per-morsel outputs are
// merged in morsel order, so parallel execution is byte-identical to
// serial execution. This is safe because QueryStmtAt holds read locks on
// every base table for the query's duration — workers only read shared
// state.

// morselRows is the work of one morsel: large enough that claiming a
// morsel (one atomic add) is noise, small enough that skewed morsels do
// not serialize the tail. A scan's or a hash build's morsel is that many
// rows of its input; a run from stored rows cuts its morsels so that the
// head rows of each, with the rows they emit, come to about that many
// (DESIGN.md §8).
const morselRows = 1024

// parallelMinRows is the work below which fan-out is not worth the
// goroutine and merge overhead: rows scanned or hashed, or the head rows
// of a run from stored rows with the rows they are expected to emit.
const parallelMinRows = 4 * morselRows

// probeRows is the most head rows a run from stored rows pushes before it
// decides how to cut the rest: the morsel it measures its fan-out on.
const probeRows = 64

// morselSizes are the two sizes morsel parallelism works to: target, the
// work of one morsel (morselRows), and gate, the work below which a run
// stays on one worker (parallelMinRows). An engine starts with those
// constants; only a test moves them (SetMorselSizesForTesting).
type morselSizes struct{ target, gate int }

var defaultMorselSizes = morselSizes{target: morselRows, gate: parallelMinRows}

// morsels returns the sizes the query's runs are cut to.
func (q *queryState) morsels() morselSizes {
	if q.sizes.target == 0 {
		return defaultMorselSizes
	}
	return q.sizes
}

// budget resolves a worker budget: par <= 0 means GOMAXPROCS.
func budget(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// plan sizes the fan-out over n input rows cut into morsels of target
// rows, live of which decide whether the input is worth it (a scan's
// slots include deleted rows).
func (z morselSizes) plan(n, live, par int) (morsels, workers int) {
	morsels = max((n+z.target-1)/z.target, 1)
	if live < z.gate {
		return morsels, 1
	}
	return morsels, max(min(budget(par), morsels), 1)
}

// runMorsels processes n input rows as morsels of size rows on the given
// number of workers. newWorker builds one worker's private state
// (scratch rows, arena); process handles rows [lo, hi) of morsel
// m and must write only worker-private state and per-morsel output slots.
// A per-morsel slot is written once per morsel, never once per row:
// neighbouring slots share a cache line, and two workers running
// neighbouring morsels would pass it back and forth on every write. Count
// in a local and store the total when the morsel ends. Workers claim
// morsels from an atomic counter, the calling goroutine being one of
// them; with one worker everything runs on it in order. The first error
// encountered is returned (remaining morsels are abandoned).
func runMorsels[W any](n, size, workers int, newWorker func() (W, error), process func(w W, m, lo, hi int) error) (morsels int, err error) {
	morsels = max((n+size-1)/size, 1)
	workers = min(workers, morsels)
	bounds := func(m int) (lo, hi int) {
		lo = m * size
		return lo, min(lo+size, n)
	}
	if workers <= 1 {
		w, err := newWorker()
		if err != nil {
			return morsels, err
		}
		for m := 0; m < morsels; m++ {
			lo, hi := bounds(m)
			if err := process(w, m, lo, hi); err != nil {
				return morsels, err
			}
		}
		return morsels, nil
	}

	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	work := func(wi int) {
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
			lo, hi := bounds(m)
			if err := process(w, m, lo, hi); err != nil {
				errs[wi] = err
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for wi := 1; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			work(wi)
		}(wi)
	}
	work(0) // the calling goroutine is a worker too
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return morsels, e
		}
	}
	return morsels, nil
}

// hasSubquery reports whether an expression contains a nested SELECT.
func hasSubquery(x sql.Expr) bool {
	found := false
	walkSubqueries(x, func(*sql.SelectStmt) { found = true })
	return found
}

// walkSubqueries calls fn for every nested SELECT of an expression
// (without descending into it).
func walkSubqueries(x sql.Expr, fn func(*sql.SelectStmt)) {
	if v, ok := x.(*sql.InSubquery); ok {
		fn(v.Query)
	}
	sql.Children(x, func(c sql.Expr) { walkSubqueries(c, fn) })
}
