package engine

import (
	"container/list"
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

	iosim        atomic.Pointer[IOSim]        // optional buffer-pool simulation (Figure 8c)
	execOpts     atomic.Pointer[ExecOptions]  // nil = defaults
	statsProv    atomic.Pointer[statsProvBox] // optimizer statistics, nil = legacy planning
	planCache    sync.Map                     // *sql.SimpleSelect -> *planCacheEntry (see planner.go)
	planCacheLen atomic.Int64                 // entries stored since the cache was last emptied

	planHits          atomic.Uint64 // plan cache hits
	planMisses        atomic.Uint64 // plan cache misses (no entry for the statement)
	planInvalidations atomic.Uint64 // entries discarded for a stale stats/as-of/ForcePlan/binding stamp

	sizes morselSizes // morsel work target and fan-out gate: the package defaults outside tests
}

// PlanCacheStats is a snapshot of the plan-cache counters.
type PlanCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// PlanCacheStats reports plan-cache hit/miss/invalidation totals.
// Invalidations count cached entries discarded because their stamp
// (stats version, as-of, ForcePlan, binding) no longer matched.
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

// SetIOSim attaches (or removes, with nil) a simulated buffer pool.
func (e *Engine) SetIOSim(sim *IOSim) { e.iosim.Store(sim) }

// ioSim returns the active buffer-pool simulation, if any.
func (e *Engine) ioSim() *IOSim { return e.iosim.Load() }

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
	tables := e.baseTablesOf(sel)
	unlock := e.rlockAll(tables)
	defer unlock()

	opts := e.ExecOptionsInEffect()
	q := &queryState{
		ctes:      map[string]*relation{},
		params:    args,
		par:       opts.Parallelism,
		sizes:     e.sizes,
		force:     opts.ForceJoin,
		asOf:      asOf,
		t0:        time.Now(),
		provider:  e.statsProvider(),
		forcePlan: opts.ForcePlan,
		idSets:    make([]*valueSet, len(args)),
	}
	for i, a := range args {
		if a.IDs != nil {
			q.idSets[i] = &valueSet{}
			for _, id := range a.IDs {
				q.idSets[i].ids.add(id)
			}
		}
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
	countTableRefs(stmt, 1, names)
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
// those of its CTEs — weighs weight; one that may be evaluated again or
// not at all weighs 2: in a recursive CTE, a derived table or an
// expression's subquery.
func countTableRefs(stmt *sql.SelectStmt, weight int, n map[string]int) {
	var inStmt func(s *sql.SelectStmt, weight int)
	nested := func(s *sql.SelectStmt) { inStmt(s, 2) }
	var inRef func(ref sql.TableRef, weight int)
	inRef = func(ref sql.TableRef, weight int) {
		if ref.Table != "" {
			n[ref.Table] += weight
		}
		if ref.Subquery != nil {
			nested(ref.Subquery)
		}
		if ref.TableFn != nil {
			for _, row := range ref.TableFn.Rows {
				for _, x := range row {
					walkSubqueries(x, nested)
				}
			}
		}
		for _, j := range ref.Joins {
			inRef(j.Right, weight)
			walkSubqueries(j.On, nested)
		}
	}
	var inBody func(body sql.SelectBody, weight int)
	inBody = func(body sql.SelectBody, weight int) {
		switch b := body.(type) {
		case *sql.UnionAll:
			inBody(b.Left, weight)
			inBody(b.Right, weight)
		case *sql.SimpleSelect:
			for _, ref := range b.From {
				inRef(ref, weight)
			}
			walkSubqueries(b.Where, nested)
			for _, item := range b.Items {
				walkSubqueries(item.Expr, nested)
			}
			for _, g := range b.GroupBy {
				walkSubqueries(g, nested)
			}
		}
	}
	inStmt = func(s *sql.SelectStmt, weight int) {
		for _, cte := range s.With {
			if cte.Recursive && referencesTable(cte.Query.Body, cte.Name) {
				nested(cte.Query)
			} else {
				inStmt(cte.Query, weight)
			}
		}
		inBody(s.Body, weight)
		for _, o := range s.OrderBy {
			walkSubqueries(o, nested)
		}
		walkSubqueries(s.Limit, nested)
		walkSubqueries(s.Offset, nested)
	}
	inStmt(stmt, weight)
}

// --- buffer-pool simulation (Figure 8c) ---

// IOSim models a bounded buffer pool: row accesses map to pages; a miss
// on the shared LRU adds a fixed penalty, charged to the query at the end
// of execution. This substitutes for varying the memory given to the
// commercial engine in the paper's memory-sweep experiment.
type IOSim struct {
	PageRows    int           // rows per simulated page
	Capacity    int           // pages resident in the pool
	MissPenalty time.Duration // charged per miss

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are pageKey
	resides map[pageKey]*list.Element
	misses  int64
}

type pageKey struct {
	table string
	page  int64
}

// NewIOSim creates a simulator with the given pool capacity in pages.
func NewIOSim(capacity, pageRows int, missPenalty time.Duration) *IOSim {
	return &IOSim{
		PageRows:    pageRows,
		Capacity:    capacity,
		MissPenalty: missPenalty,
		lru:         list.New(),
		resides:     map[pageKey]*list.Element{},
	}
}

// Misses returns the cumulative miss count.
func (s *IOSim) Misses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// access touches a page and reports whether it was resident.
func (s *IOSim) access(table string, rid rel.RowID) bool {
	key := pageKey{table: table, page: int64(rid) / int64(s.PageRows)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.resides[key]; ok {
		s.lru.MoveToFront(el)
		return true
	}
	s.misses++
	if s.lru.Len() >= s.Capacity {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.resides, back.Value.(pageKey))
	}
	s.resides[key] = s.lru.PushFront(key)
	return false
}

// pageAccess records one row access for the buffer-pool simulation. Safe
// to call from morsel workers (the miss counter is atomic).
func (e *Engine) pageAccess(q *queryState, table string, rid rel.RowID) {
	sim := e.ioSim()
	if sim == nil {
		return
	}
	if !sim.access(table, rid) {
		q.addIOMiss()
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
	time.Sleep(time.Duration(misses) * sim.MissPenalty)
}
