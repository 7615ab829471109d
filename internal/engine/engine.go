package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// ErrUnknownColumn marks a query referencing a column that does not
// exist in any table in scope. It is the query's fault, not the
// engine's: callers serving user-authored queries should map it to a
// client error.
var ErrUnknownColumn = errors.New("engine: unknown column")

// Engine executes SQL SELECTs against a catalog; writes are the
// catalog's own transactions (rel.Txn). It is safe for concurrent use:
// queries take read locks on the base tables they touch (in sorted name
// order, matching the transaction layer's write ordering). SetIOSim and
// SetExecOptions may be called concurrently with queries.
type Engine struct {
	cat *rel.Catalog

	iosim        atomic.Pointer[pageModelBox] // optional buffer-pool model (Figure 8c)
	execOpts     atomic.Pointer[ExecOptions]  // nil = defaults
	statsProv    atomic.Pointer[statsProvBox] // optimizer statistics, nil = legacy planning
	planCache    sync.Map                     // *sql.SimpleSelect -> *planCacheEntry, *sql.SelectStmt -> *stmtPlan (see planner.go)
	planCacheLen atomic.Int64                 // entries stored since the cache was last emptied

	planHits          atomic.Uint64 // prepared cores found under their stamp
	planMisses        atomic.Uint64 // cores with no entry: prepared for the first time
	planInvalidations atomic.Uint64 // cores prepared again: no plan under the execution's stamp

	sizes morselSizes // morsel work target and fan-out gate: the package defaults outside tests
}

// PlanCacheStats is a snapshot of the plan-cache counters.
type PlanCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// PlanCacheStats reports plan-cache hit/miss/invalidation totals, per
// SELECT core executed. Invalidations count cores prepared again because
// no plan cached for them had the execution's stamp (stats version,
// as-of, ForcePlan, ForceJoin, catalog, binding).
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          e.planHits.Load(),
		Misses:        e.planMisses.Load(),
		Invalidations: e.planInvalidations.Load(),
	}
}

// statsProvBox wraps a StatsProvider so a nil provider can be stored
// distinctly from "no provider attached".
type statsProvBox struct{ p StatsProvider }

// New creates an engine over a catalog.
func New(cat *rel.Catalog) *Engine {
	return &Engine{cat: cat, sizes: defaultMorselSizes}
}

// Catalog returns the underlying catalog.
func (e *Engine) Catalog() *rel.Catalog { return e.cat }

// SetIOSim attaches (or removes, with nil) a buffer-pool model.
func (e *Engine) SetIOSim(m PageModel) { e.iosim.Store(&pageModelBox{m}) }

// pageModelBox holds the attached PageModel.
type pageModelBox struct{ m PageModel }

// ioSim returns the attached buffer-pool model, if any.
func (e *Engine) ioSim() PageModel {
	if b := e.iosim.Load(); b != nil {
		return b.m
	}
	return nil
}

// SetExecOptions replaces the engine's execution options (join-strategy
// forcing, parallelism cap). A nil-equivalent zero value restores the
// defaults: planner-chosen strategies, up to GOMAXPROCS workers.
func (e *Engine) SetExecOptions(opts ExecOptions) {
	e.execOpts.Store(&opts)
}

// ExecOptionsInEffect returns the current execution options.
func (e *Engine) ExecOptionsInEffect() ExecOptions {
	if p := e.execOpts.Load(); p != nil {
		return *p
	}
	return ExecOptions{}
}

// SetStatsProvider attaches (or removes, with nil) optimizer statistics.
// With a provider attached, reorderable FROM clauses are planned with the
// cost model in planner.go; without one, the legacy syntactic join order
// and heuristic strategy selection apply. Safe to call concurrently with
// queries.
func (e *Engine) SetStatsProvider(p StatsProvider) {
	if p == nil {
		e.statsProv.Store(nil)
		return
	}
	e.statsProv.Store(&statsProvBox{p: p})
}

// statsProvider returns the attached stats provider, if any.
func (e *Engine) statsProvider() StatsProvider {
	if b := e.statsProv.Load(); b != nil {
		return b.p
	}
	return nil
}

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    [][]rel.Value
	// Stats describes how the query executed (join strategies, morsel
	// fan-out, rows per operator).
	Stats ExecStats
}

// Scalar returns the single value of a one-row one-column result.
func (r *Rows) Scalar() (rel.Value, error) {
	if len(r.Data) != 1 || len(r.Data[0]) != 1 {
		return rel.Null, fmt.Errorf("engine: result is not scalar (%d rows)", len(r.Data))
	}
	return r.Data[0][0], nil
}

// Query parses and executes a SELECT statement against the latest state.
func (e *Engine) Query(sqlText string, params ...any) (*Rows, error) {
	return e.QueryAt(sqlText, rel.Latest, params...)
}

// QueryAt parses and executes a SELECT against the state visible at the
// given snapshot version (which the caller must have pinned with
// rel.Catalog.Pin). Base-table scans, index probes, and join probes all
// read the pinned version, so any number of QueryAt calls at the same
// version observe one consistent state regardless of concurrent writers.
func (e *Engine) QueryAt(sqlText string, asOf rel.Version, params ...any) (*Rows, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: Query requires a SELECT statement")
	}
	return e.QueryStmtAt(sel, asOf, toArgs(params))
}

// QueryStmtHintedAt is QueryStmtAt with the arguments as Go values; hints
// is ignored. Its sole caller is the frozen benchmark harness
// (benchmark/).
func (e *Engine) QueryStmtHintedAt(sel *sql.SelectStmt, asOf rel.Version, hints map[string]float64, params ...any) (*Rows, error) {
	return e.QueryStmtAt(sel, asOf, toArgs(params))
}

// Arg is one argument of an execution, read by the statement's ?
// parameters: a value, or — where the statement says x IN (?) — a list
// of ids. Arguments live in the execution's own state: the statement and
// the plans cached for it are shared by concurrent executions and never
// hold one (DESIGN.md §8).
type Arg struct {
	Val rel.Value
	IDs []int64 // non-nil: an id list, and Val is unused
}

// QueryStmtAt executes an already-parsed SELECT at a snapshot version
// (rel.Latest for the latest state). sel is only read: any number of
// executions, each with arguments of its own, may share it.
func (e *Engine) QueryStmtAt(sel *sql.SelectStmt, asOf rel.Version, args []Arg) (*Rows, error) {
	sp := e.stmtPlanOf(sel)
	if sp == nil {
		sp = &stmtPlan{tables: e.baseTablesOf(sel)}
	}
	unlock := e.rlockAll(sp.tables)
	defer unlock()

	opts := e.ExecOptionsInEffect()
	q := &queryState{
		params:    args,
		par:       opts.Parallelism,
		sizes:     e.sizes,
		force:     opts.ForceJoin,
		asOf:      asOf,
		t0:        time.Now(),
		provider:  e.statsProvider(),
		forcePlan: opts.ForcePlan,
	}
	r, err := e.evalSelect(q, sel)
	if err != nil {
		return nil, err
	}
	e.settleIO(q)
	cols := make([]string, len(r.cols))
	for i, c := range r.cols {
		cols[i] = c.name
	}
	return &Rows{Columns: cols, Data: r.rowsOf(), Stats: q.stats}, nil
}

func toArgs(params []any) []Arg {
	if len(params) == 0 {
		return nil
	}
	out := make([]Arg, len(params))
	for i, p := range params {
		if ids, ok := p.([]int64); ok {
			out[i] = Arg{IDs: ids}
		} else {
			out[i] = Arg{Val: rel.FromAny(p)}
		}
	}
	return out
}

// baseTablesOf collects the catalog tables a statement can touch. CTE
// names that shadow base tables are still included (a harmless extra read
// lock) — correctness over precision.
func (e *Engine) baseTablesOf(stmt *sql.SelectStmt) []string {
	names := map[string]int{}
	countTableRefs(stmt, names)
	var out []string
	for n := range names {
		if _, ok := e.cat.Table(n); ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func (e *Engine) rlockAll(tables []string) func() {
	locked := make([]*rel.Table, 0, len(tables))
	for _, name := range tables {
		if t, ok := e.cat.Table(name); ok {
			t.RLock()
			locked = append(locked, t)
		}
	}
	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].RUnlock()
		}
	}
}

// countTableRefs adds to n, per table or CTE name, the FROM references a
// statement makes to it. A reference in the statement's own cores — or
// those of its CTEs — weighs 1; one in an expression's subquery, which
// may be evaluated at another time or not at all, weighs 2.
func countTableRefs(stmt *sql.SelectStmt, n map[string]int) {
	var inStmt func(s *sql.SelectStmt, weight int)
	nested := func(xs ...sql.Expr) {
		for _, x := range xs {
			walkSubqueries(x, func(s *sql.SelectStmt) { inStmt(s, 2) })
		}
	}
	var inRef func(ref sql.TableRef, weight int)
	inRef = func(ref sql.TableRef, weight int) {
		n[ref.Table] += weight // "" for TABLE(VALUES): no table, nor CTE, has that name
		if ref.TableFn != nil {
			for _, row := range ref.TableFn.Rows {
				nested(row...)
			}
		}
		for _, j := range ref.Joins {
			inRef(j.Right, weight)
			nested(j.On)
		}
	}
	var inBody func(body sql.SelectBody, weight int)
	inBody = func(body sql.SelectBody, weight int) {
		if u, ok := body.(*sql.UnionAll); ok {
			inBody(u.Left, weight)
			inBody(u.Right, weight)
			return
		}
		b := body.(*sql.SimpleSelect)
		for _, ref := range b.From {
			inRef(ref, weight)
		}
		nested(append(b.GroupBy[:len(b.GroupBy):len(b.GroupBy)], b.Where)...)
		for _, item := range b.Items {
			nested(item.Expr)
		}
	}
	inStmt = func(s *sql.SelectStmt, weight int) {
		for _, cte := range s.With {
			inStmt(cte.Query, weight)
		}
		inBody(s.Body, weight)
		nested(append(s.OrderBy[:len(s.OrderBy):len(s.OrderBy)], s.Limit, s.Offset)...)
	}
	inStmt(stmt, 1)
}

// --- buffer-pool model (Figure 8c) ---

// PageModel is a bounded buffer pool the engine reports the rows a query
// touches to and charges its misses to the query: the paper's memory
// sweep (internal/bench.IOSim).
type PageModel interface {
	// Access touches the row's page and reports whether it was resident.
	Access(table string, rid rel.RowID) bool
	// MissPenalty is the time a query is charged per miss.
	MissPenalty() time.Duration
}

// pageAccess records one row access for the buffer-pool model. Safe to
// call from morsel workers (the miss counter is atomic).
func (f *frame) pageAccess(table string, rid rel.RowID) {
	if f.sim != nil && !f.sim.Access(table, rid) {
		atomic.AddInt64(&f.q.ioMisses, 1)
	}
}

// settleIO charges the query's accumulated miss penalty.
func (e *Engine) settleIO(q *queryState) {
	sim := e.ioSim()
	if sim == nil {
		return
	}
	misses := atomic.LoadInt64(&q.ioMisses)
	if misses == 0 {
		return
	}
	time.Sleep(time.Duration(misses) * sim.MissPenalty())
}
