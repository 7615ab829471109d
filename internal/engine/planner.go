package engine

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// StatsProvider supplies the table and column statistics the cost-based
// join planner consumes. internal/stats.Collection implements it; the
// interface lives here so the engine does not depend on the stats
// package. Every method returns ok=false when the statistic is not
// maintained for that table/column, in which case the planner falls
// back to its documented default selectivities (DESIGN.md §15).
type StatsProvider interface {
	// ColumnNDV estimates the distinct non-null values of a column.
	ColumnNDV(table string, col int) (float64, bool)
	// FracNonNull returns the fraction of rows with a non-null value.
	FracNonNull(table string, col int) (float64, bool)
	// FracNonNeg returns the fraction of rows whose value is an integer
	// >= 0 (the exact selectivity of the soft-delete guard).
	FracNonNeg(table string, col int) (float64, bool)
	// SelEq estimates the selectivity of col = v.
	SelEq(table string, col int, v rel.Value) (float64, bool)
	// SelRange estimates the fraction of rows in [lo, hi]; nil = open.
	SelRange(table string, col int, lo, hi *rel.Value) (float64, bool)
	// GroupColumn returns the ordinal whose values partition the table's
	// per-group stats (EA's label column), or -1.
	GroupColumn(table string) int
	// GroupCount returns the exact row count of one group.
	GroupCount(table string, group rel.Value) (int64, bool)
	// GroupNDV estimates the distinct values of col within one group.
	GroupNDV(table string, group rel.Value, col int) (float64, bool)
	// StatsVersion advances whenever any tracked statistic may change; it
	// stamps the plans cached on a statement.
	StatsVersion() uint64
}

// Default selectivities when no statistic answers a predicate
// (documented in DESIGN.md §15 and relied on by the planner tests).
const (
	selEqDefault      = 0.1  // col = const, no NDV sketch
	selRangeDefault   = 0.3  // range predicate, no histogram
	selNotNullDefault = 0.9  // IS NOT NULL, no null counts
	selGenericDefault = 0.25 // unrecognized predicate on a base table
	selCTEGeneric     = 0.7  // unrecognized predicate on a CTE input
	costProbe         = 2.0  // per-outer-row index probe overhead
	costBuildRow      = 1.2  // per-row hash build weight vs probe weight 1
	// Access-path costing (scanPlan.accessPath), in units of one heap row a
	// full scan examines. An index entry costs three of them: the B-tree
	// step, the rid-to-slot lookup and the staleness check make it about
	// 1.5 times a sequential row, and an index walk runs on one worker
	// where the full scan runs on all of them. With strategyHedge on the
	// index side, a predicate keeping more than about two fifths of the
	// table is read by full scan. A hashed index's entry is cheaper (a
	// hash lookup, an integer staleness check), but it only ever serves
	// equality and IN, which win on selectivity, so it shares the constant.
	costScanRow  = 1.0
	costIndexRow = 3.0
	// selIndexUnknown is the fraction an indexable predicate is assumed to
	// keep when no statistic answers it (expression indexes, untracked
	// tables): optimistic on purpose — whoever built that index expected
	// it to be selective — so statistics can only ever demote an index
	// path, never a missing statistic.
	selIndexUnknown = 0.1
	// reorderHedge: a non-syntactic order must beat the syntactic one by
	// this factor before the planner switches — the Table-8 templates'
	// written order is well tuned, so near-ties keep it (and keep the
	// microbench never-slower gate honest).
	reorderHedge = 0.9
	// strategyHedge: hash must beat index-NL, and a full scan an index
	// access path, by this factor before the planner overrides the
	// executor's index preference.
	strategyHedge = 0.8
	// maxExhaustiveRels bounds exhaustive join-order enumeration; larger
	// cores keep the syntactic order (no emitted core comes near it).
	maxExhaustiveRels = 5
)

// stepPlan carries the planner's decision for one FROM step: the
// strategy to run, its estimated cost and output cardinality, and the
// rejected alternative (surfaced in ExecStats for plan diagnosis).
type stepPlan struct {
	strategy    JoinStrategy // StrategyAuto = keep the executor's heuristic
	estRows     int64        // estimated rows after this step (-1 unknown)
	estScan     int64        // estimated right-side scan output (-1 unknown)
	cost        float64
	altStrategy JoinStrategy
	altCost     float64
}

// fromPlan is the planner's output for one SELECT core: a permutation
// of the reorderable FROM prefix, per-step decisions aligned with the
// reordered FROM list (nil entries keep legacy behavior), and how many
// orders were enumerated (the plan-equivalence sweep bound).
type fromPlan struct {
	order    []int
	steps    []*stepPlan
	variants int
}

// orderedRefs applies the plan's permutation to the FROM list; items
// past the reorderable core keep their positions.
func (p *fromPlan) orderedRefs(from []sql.TableRef) []sql.TableRef {
	out := make([]sql.TableRef, 0, len(from))
	for _, i := range p.order {
		out = append(out, from[i])
	}
	out = append(out, from[len(p.order):]...)
	return out
}

// planRel is one reorderable FROM relation with its estimated
// cardinalities.
type planRel struct {
	alias    string
	table    string // catalog name; "" for CTE inputs
	base     *rel.Table
	cols     []colInfo
	scope    *scope
	ords     map[string]int
	rows     float64    // unfiltered cardinality
	filtered float64    // after single-relation predicates
	groupVal *rel.Value // pushed equality on the table's group column
	eqOrds   []int      // ordinals with pushed equality constants
}

// planEdge is one equi-join term connecting two core relations.
type planEdge struct {
	a, b       int
	aOrd, bOrd int
}

// prepared returns the core's plan under this execution's stamp,
// preparing it (prepareCore) when none is cached on the core's node. A
// plan holds nothing of the execution that prepared it, so one plan
// serves concurrent executions with other arguments.
func (e *Engine) prepared(q *queryState, sel *sql.SimpleSelect) (*corePlan, error) {
	stamp := planStamp{asOf: q.asOf, forcePlan: q.forcePlan, forceJoin: q.force, schema: e.cat.SchemaVersion()}
	// Only a join order's choice reads the statistics and the arguments: a
	// core with one FROM item has no plan for them to vary.
	if len(sel.From) > 1 && q.forcePlan >= 0 && (q.forcePlan != 0 || q.provider != nil) {
		if q.provider != nil {
			// The planner costs a CTE input by its actual row count, never
			// by a guess (DESIGN.md §15): the CTEs it reads are stored first.
			for _, ref := range sel.From {
				if _, cte := q.cte(ref.Table); cte != nil {
					if err := e.materialize(q, cte); err != nil {
						return nil, err
					}
				}
			}
			stamp.version, stamp.stats = q.provider.StatsVersion(), true
		}
		stamp.bind = e.bindSig(q, sel)
	}
	c, cached := e.planCache.Load(sel)
	if !cached {
		e.planMisses.Add(1)
		c = &planCacheEntry{}
		e.cachePlan(sel, c)
	} else if cp, ok := c.(*planCacheEntry).lookup(stamp); ok {
		e.planHits.Add(1)
		return cp, nil
	} else {
		e.planInvalidations.Add(1)
	}
	cp, err := e.prepareCore(q, sel)
	if err != nil {
		return nil, err
	}
	c.(*planCacheEntry).store(stamp, cp)
	return cp, nil
}

// cachePlan stores v under key. Entries are keyed by statement node and
// outlive the statement, so the cache is emptied past maxCachedPlans:
// plans of statements still prepared come back on their next execution,
// those of discarded ones (and the nodes they pin) go.
func (e *Engine) cachePlan(key, v any) {
	if e.planCacheLen.Add(1) > maxCachedPlans {
		e.planCache.Range(func(k, _ any) bool { e.planCache.Delete(k); return true })
		e.planCacheLen.Store(1)
	}
	e.planCache.Store(key, v)
}

const (
	// maxCachedPlans bounds the plan cache (one entry per SELECT core, a
	// handful per statement).
	maxCachedPlans = 1 << 14
	// maxPlanVariants bounds the plans kept for one core: enough for the
	// magnitudes a statement's bindings spread over and for a live reader
	// beside pinned snapshots; the oldest goes first.
	maxPlanVariants = 8
)

// planStamp is what a cached plan was prepared under: the snapshot, the
// forced order and strategy, the catalog and, where a join order is
// planned, the statistics and what the arguments can change (bindSig).
type planStamp struct {
	version   uint64
	stats     bool
	asOf      rel.Version
	forcePlan int
	forceJoin JoinStrategy
	schema    uint64
	bind      uint64
}

// planCacheEntry holds the plans cached for one SELECT core, newest first.
type planCacheEntry struct {
	mu       sync.Mutex
	variants []planVariant
}

type planVariant struct {
	stamp planStamp
	plan  *corePlan
}

func (ce *planCacheEntry) lookup(stamp planStamp) (*corePlan, bool) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	for _, v := range ce.variants {
		if v.stamp == stamp {
			return v.plan, true
		}
	}
	return nil, false
}

func (ce *planCacheEntry) store(stamp planStamp, plan *corePlan) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if len(ce.variants) < maxPlanVariants {
		ce.variants = append(ce.variants, planVariant{})
	}
	copy(ce.variants[1:], ce.variants)
	ce.variants[0] = planVariant{stamp: stamp, plan: plan}
}

// magnitude is the order of magnitude a plan is cached under: ⌊log₂(n+1)⌋.
func magnitude(n float64) uint64 {
	if n < 0 {
		n = 0
	}
	return uint64(bits.Len64(uint64(n)+1) - 1)
}

// bindSig folds into one word what this execution's arguments can change
// about the core's plan, each to its order of magnitude: the actual row
// count of every CTE the FROM clause reads (stored by Engine.prepared —
// the planner costs a CTE input by its count, and V(2 ids) must not share
// a join strategy with V(12 960 ids)); the length of an id list bound to
// x IN (?); and, for a parameter compared with a base-table column, the
// rows the statistics expect the predicate to keep, with the comparison's
// kind — a unique-index equality never shares a plan with a range that
// keeps half the table.
func (e *Engine) bindSig(q *queryState, sel *sql.SimpleSelect) uint64 {
	sig := uint64(0xcbf29ce484222325)
	for i := range sel.From {
		if _, cte := q.cte(sel.From[i].Table); cte != nil {
			sig = foldSig(sig, uint64(i)<<8|magnitude(float64(cte.count())))
		}
	}
	return e.bindSigWhere(q, sel, sel.Where, sig)
}

func foldSig(sig, x uint64) uint64 { return (sig ^ x) * 0x100000001b3 }

// bindSigWhere folds the parameterised terms of a WHERE clause into sig.
func (e *Engine) bindSigWhere(q *queryState, sel *sql.SimpleSelect, x sql.Expr, sig uint64) uint64 {
	switch v := x.(type) {
	case *sql.Binary:
		if v.Op == "AND" {
			return e.bindSigWhere(q, sel, v.R, e.bindSigWhere(q, sel, v.L, sig))
		}
		col, op := v.L, v.Op
		p, ok := v.R.(*sql.Param)
		if !ok {
			col, op = v.R, flipCmp(v.Op)
			p, ok = v.L.(*sql.Param)
		}
		if !ok {
			return sig
		}
		if val, ok := plannerConstValue(q, p); ok && q.provider != nil { // a pinned order may have no statistics
			if rows, ok := e.paramRows(q, sel, col, op, val); ok {
				sig = foldSig(sig, uint64(op[0])<<8|magnitude(rows))
			}
		}
	case *sql.InList:
		if ids, ok := q.idList(v); ok {
			sig = foldSig(sig, 'I'<<8|magnitude(float64(len(ids))))
		}
	}
	return sig
}

// paramRows estimates the rows of a base table of the core that col op val
// keeps, when col is a column of one and the statistics answer.
func (e *Engine) paramRows(q *queryState, sel *sql.SimpleSelect, col sql.Expr, op string, val rel.Value) (float64, bool) {
	cr, ok := col.(*sql.ColumnRef)
	if !ok {
		return 0, false
	}
	for i := range sel.From {
		ref := &sel.From[i]
		alias := ref.Alias
		if alias == "" {
			alias = ref.Table
		}
		if _, cte := q.cte(ref.Table); cte != nil || ref.Table == "" || cr.Table != "" && cr.Table != alias {
			continue
		}
		t, ok := e.cat.Table(ref.Table)
		if !ok {
			continue
		}
		ord := t.Schema().Ordinal(cr.Column)
		if ord < 0 {
			continue
		}
		rows := float64(t.LiveLocked()) // the engine holds the table's read lock
		switch op {
		case "=":
			if q.provider.GroupColumn(ref.Table) == ord {
				if cnt, ok := q.provider.GroupCount(ref.Table, val); ok {
					return float64(cnt), true
				}
			}
			s, ok := q.provider.SelEq(ref.Table, ord, val)
			return s * rows, ok
		case ">", ">=":
			s, ok := q.provider.SelRange(ref.Table, ord, &val, nil)
			return s * rows, ok
		case "<", "<=":
			s, ok := q.provider.SelRange(ref.Table, ord, nil, &val)
			return s * rows, ok
		}
		return 0, false
	}
	return 0, false
}

// planFrom decides join order and per-step strategy for the SELECT's
// FROM clause: it classifies the reorderable core, enumerates orders, and
// costs them. It returns nil — leaving the executor's syntactic
// left-to-right fold untouched — when planning is disabled
// (ForcePlan < 0, or no statistics attached in auto mode), when the
// reorderable core has fewer than two relations, or when reordering
// cannot be proven output-equivalent (a bare column name resolvable in
// two core relations would change which relation absorbs a pushed-down
// predicate).
func (e *Engine) planFrom(q *queryState, sel *sql.SimpleSelect, conjs []*conjunct) *fromPlan {
	if q.forcePlan < 0 || q.forcePlan == 0 && q.provider == nil {
		return nil
	}
	// Reorderable core: the maximal prefix of plain named tables (base or
	// CTE) without JOIN chains or lateral VALUES. Everything after it stays
	// pinned (the Table-8 templates pin TABLE(VALUES) laterals and LEFT
	// JOIN secondary-attribute lookups after the core).
	n := 0
	for _, ref := range sel.From {
		if ref.TableFn != nil || len(ref.Joins) > 0 {
			break
		}
		n++
	}
	if n < 2 {
		return nil
	}
	rels := make([]*planRel, n)
	seenAlias := map[string]bool{}
	for i := 0; i < n; i++ {
		r := e.buildPlanRel(q, sel.From[i])
		if r == nil || seenAlias[r.alias] {
			return nil
		}
		seenAlias[r.alias] = true
		rels[i] = r
	}
	// Pushdown classifies bare column names by membership in the current
	// right side's column set, so a bare name two core relations could
	// claim makes reordering unsafe.
	for _, name := range collectBareNames(sel, conjs) {
		owners := 0
		for _, r := range rels {
			if _, ok := r.ords[name]; ok {
				owners++
			}
		}
		if owners > 1 {
			return nil
		}
	}

	for _, r := range rels {
		e.relFilter(q, r, conjs)
	}
	edges := planEdges(rels, conjs)

	orders := enumerateOrders(n)
	if orders == nil {
		orders = [][]int{identityOrder(n)}
	}

	p := &fromPlan{variants: len(orders)}
	tail := len(sel.From) - n
	if q.forcePlan >= 1 {
		p.order = orders[(q.forcePlan-1)%len(orders)]
		var steps []*stepPlan
		if q.provider != nil {
			steps, _ = e.costOrder(q, rels, edges, p.order)
			// A pinned order pins only the order: strategy stays with the
			// executor's heuristic (the sweep varies it via ForceJoin).
			for _, sp := range steps {
				sp.strategy = StrategyAuto
				sp.altStrategy = ""
				sp.altCost = -1
			}
		} else {
			steps = make([]*stepPlan, n)
		}
		p.steps = append(steps, make([]*stepPlan, tail)...)
		return p
	}

	// Cost every order; keep the syntactic one unless an alternative is a
	// clear win (reorderHedge).
	bestSteps, bestCost := e.costOrder(q, rels, edges, orders[0])
	best := 0
	identityCost := bestCost
	for i := 1; i < len(orders); i++ {
		steps, cost := e.costOrder(q, rels, edges, orders[i])
		if cost < bestCost {
			best, bestSteps, bestCost = i, steps, cost
		}
	}
	if best != 0 && bestCost >= reorderHedge*identityCost {
		bestSteps, _ = e.costOrder(q, rels, edges, orders[0])
		best = 0
	}
	p.order = orders[best]
	p.steps = append(bestSteps, make([]*stepPlan, tail)...)
	return p
}

// buildPlanRel resolves one FROM item to its relation metadata, or nil
// when it is not a plannable named table.
func (e *Engine) buildPlanRel(q *queryState, ref sql.TableRef) *planRel {
	alias := ref.Alias
	if alias == "" {
		alias = ref.Table
	}
	r := &planRel{alias: alias, ords: map[string]int{}}
	if _, cte := q.cte(ref.Table); cte != nil {
		r.rows = float64(cte.count())
		for i, c := range cte.cols {
			if _, dup := r.ords[c.name]; !dup {
				r.ords[c.name] = i
			}
			r.cols = append(r.cols, colInfo{table: alias, name: c.name})
		}
	} else if t, ok := e.cat.Table(ref.Table); ok {
		r.base = t
		r.table = ref.Table
		// The engine holds this table's read lock for the whole query.
		r.rows = float64(t.LiveLocked())
		for i, c := range t.Schema().Columns {
			r.ords[c.Name] = i
			r.cols = append(r.cols, colInfo{table: alias, name: c.Name})
		}
	} else {
		return nil
	}
	r.scope = newScope(r.cols)
	return r
}

// collectBareNames gathers every unqualified column name the pushdown
// machinery could classify: WHERE conjuncts plus the ON clauses and
// lateral VALUES cells of every FROM item.
func collectBareNames(sel *sql.SimpleSelect, conjs []*conjunct) []string {
	r := &exprRefs{}
	for _, c := range conjs {
		collectRefs(c.expr, r)
	}
	for _, ref := range sel.From {
		for _, jc := range ref.Joins {
			collectRefs(jc.On, r)
		}
		if ref.TableFn != nil {
			for _, row := range ref.TableFn.Rows {
				for _, x := range row {
					collectRefs(x, r)
				}
			}
		}
	}
	return r.bare
}

// relFilter estimates the relation's cardinality after its
// single-relation predicates and records pushed equality constants.
func (e *Engine) relFilter(q *queryState, r *planRel, conjs []*conjunct) {
	sel := 1.0
	for _, c := range conjs {
		if c.applied {
			continue
		}
		if !c.refs.onlyReferences(r.alias, r.cols) || !c.refs.resolvableIn(r.scope) {
			continue
		}
		sel *= e.conjSelectivity(q, r, c.expr)
	}
	r.filtered = r.rows * sel
	if r.filtered < 0 {
		r.filtered = 0
	}
}

// relColOrd resolves an expression to one of the relation's column
// ordinals (qualified by its alias, or bare and owned by it), or -1.
func relColOrd(r *planRel, x sql.Expr) int {
	cr, ok := x.(*sql.ColumnRef)
	if !ok {
		return -1
	}
	if cr.Table != "" && cr.Table != r.alias {
		return -1
	}
	if ord, ok := r.ords[cr.Column]; ok {
		return ord
	}
	return -1
}

// plannerConstValue evaluates plan-time constants: literals and bound
// parameters only.
func plannerConstValue(q *queryState, x sql.Expr) (rel.Value, bool) {
	switch v := x.(type) {
	case *sql.Literal:
		return rel.FromAny(v.Val), true
	case *sql.Param:
		if v.Index < len(q.params) && q.params[v.Index].IDs == nil {
			return q.params[v.Index].Val, true
		}
	}
	return rel.Null, false
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func (r *planRel) genericSel() float64 {
	if r.base == nil {
		return selCTEGeneric
	}
	return selGenericDefault
}

// conjSelectivity estimates one pushed predicate's selectivity against
// the relation, consulting the provider where a statistic applies.
func (e *Engine) conjSelectivity(q *queryState, r *planRel, x sql.Expr) float64 {
	prov := q.provider
	switch v := x.(type) {
	case *sql.Binary:
		col, bound, op := v.L, v.R, v.Op
		if relColOrd(r, col) < 0 && relColOrd(r, bound) >= 0 {
			col, bound, op = bound, col, flipCmp(op)
		}
		ord := relColOrd(r, col)
		if ord < 0 {
			return r.genericSel()
		}
		val, haveVal := plannerConstValue(q, bound)
		switch op {
		case "=":
			if !isConstExpr(bound) {
				return r.genericSel()
			}
			r.eqOrds = append(r.eqOrds, ord)
			if haveVal && r.base != nil && prov != nil {
				if prov.GroupColumn(r.table) == ord {
					if cnt, ok := prov.GroupCount(r.table, val); ok {
						g := val
						r.groupVal = &g
						if r.rows <= 0 {
							return 0
						}
						return float64(cnt) / r.rows
					}
				}
				if s, ok := prov.SelEq(r.table, ord, val); ok {
					return s
				}
			}
			return selEqDefault
		case ">", ">=", "<", "<=":
			if !haveVal {
				return selRangeDefault
			}
			if r.base != nil && prov != nil {
				// col >= 0 over an id column is the soft-delete guard; the
				// negative-count statistic answers it exactly.
				if op == ">=" && val.Kind() == rel.KindInt && val.Int() == 0 {
					if f, ok := prov.FracNonNeg(r.table, ord); ok {
						return f
					}
				}
				var lo, hi *rel.Value
				if op == ">" || op == ">=" {
					lo = &val
				} else {
					hi = &val
				}
				if s, ok := prov.SelRange(r.table, ord, lo, hi); ok {
					return s
				}
			}
			return selRangeDefault
		}
		return r.genericSel()
	case *sql.IsNull:
		ord := relColOrd(r, v.X)
		if ord >= 0 && r.base != nil && prov != nil {
			if f, ok := prov.FracNonNull(r.table, ord); ok {
				if v.Not {
					return f
				}
				return 1 - f
			}
		}
		if v.Not {
			return selNotNullDefault
		}
		return 1 - selNotNullDefault
	case *sql.InList:
		if v.Not {
			return r.genericSel()
		}
		ord := relColOrd(r, v.X)
		// The first member's selectivity stands for each of them, whether
		// the list is written out or bound to the parameter as an id list.
		n := len(v.List)
		first, haveFirst := rel.Null, false
		if ids, ok := q.idList(v); ok {
			if n = len(ids); n > 0 {
				first, haveFirst = rel.NewInt(ids[0]), true
			}
		} else if n > 0 {
			first, haveFirst = plannerConstValue(q, v.List[0])
		}
		per := selEqDefault
		if haveFirst && ord >= 0 && r.base != nil && prov != nil {
			if s, ok := prov.SelEq(r.table, ord, first); ok {
				per = s
			}
		}
		if ord >= 0 {
			r.eqOrds = append(r.eqOrds, ord)
		}
		s := float64(n) * per
		if s > 1 {
			s = 1
		}
		return s
	}
	return r.genericSel()
}

// planEdges extracts the equi-join terms connecting two different core
// relations.
func planEdges(rels []*planRel, conjs []*conjunct) []planEdge {
	resolve := func(x sql.Expr) (int, int) {
		for i, r := range rels {
			if ord := relColOrd(r, x); ord >= 0 {
				return i, ord
			}
		}
		return -1, -1
	}
	var edges []planEdge
	for _, c := range conjs {
		if c.applied {
			continue
		}
		b, ok := c.expr.(*sql.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		ra, oa := resolve(b.L)
		rb, ob := resolve(b.R)
		if ra < 0 || rb < 0 || ra == rb {
			continue
		}
		edges = append(edges, planEdge{a: ra, b: rb, aOrd: oa, bOrd: ob})
	}
	return edges
}

// colNDV estimates the distinct values of one relation column, using
// per-group sketches when an equality pinned the group column, capped
// by the relation's (filtered) cardinality.
func (e *Engine) colNDV(q *queryState, r *planRel, ord int, card float64) float64 {
	ndv := card // CTE default: traversal frontiers are near-distinct
	if r.base != nil && q.provider != nil {
		if r.groupVal != nil {
			if g, ok := q.provider.GroupNDV(r.table, *r.groupVal, ord); ok {
				ndv = g
			} else if c, ok := q.provider.ColumnNDV(r.table, ord); ok {
				ndv = c
			}
		} else if c, ok := q.provider.ColumnNDV(r.table, ord); ok {
			ndv = c
		}
	}
	if ndv > card {
		ndv = card
	}
	if ndv < 1 {
		ndv = 1
	}
	return ndv
}

// scanCost estimates materializing the relation's filtered rows: a full
// scan examines every row; an equality with a matching index leading
// column reads only the matches.
func (e *Engine) scanCost(q *queryState, r *planRel) float64 {
	if r.base != nil {
		for _, ord := range r.eqOrds {
			for _, ix := range r.base.Indexes() {
				ords := ix.ColumnOrdinals()
				if len(ords) > 0 && ords[0] == ord && indexUsableAt(ix, q.asOf) {
					return r.filtered + costProbe
				}
			}
		}
	}
	return r.rows
}

// costOrder simulates executing the core in the given order, choosing
// the cheaper of index-NL and hash per step. Cardinalities follow the
// textbook model: |L JOIN R| = |L|*|R| / max(ndv(L.a), ndv(R.b)) per
// connecting equi-edge; index probe fan-out uses the UNFILTERED
// rows/NDV ratio because partial-prefix probes (EA's (INV,LBL) index
// probed on INV alone) return candidates across every label.
func (e *Engine) costOrder(q *queryState, rels []*planRel, edges []planEdge, order []int) ([]*stepPlan, float64) {
	steps := make([]*stepPlan, len(order))
	first := rels[order[0]]
	firstCost := e.scanCost(q, first)
	steps[0] = &stepPlan{
		strategy: StrategyAuto,
		estRows:  roundEst(first.filtered),
		estScan:  roundEst(first.filtered),
		cost:     firstCost,
		altCost:  -1,
	}
	total := firstCost
	curRows := first.filtered
	placed := make([]bool, len(rels))
	placed[order[0]] = true

	for k := 1; k < len(order); k++ {
		ri := order[k]
		r := rels[ri]

		// Edges from the placed prefix into r, normalized so r is "b".
		var in []planEdge
		for _, ed := range edges {
			switch {
			case placed[ed.a] && ed.b == ri:
				in = append(in, ed)
			case placed[ed.b] && ed.a == ri:
				in = append(in, planEdge{a: ed.b, b: ed.a, aOrd: ed.bOrd, bOrd: ed.aOrd})
			}
		}

		outRows := curRows * math.Max(r.filtered, 0)
		for _, ed := range in {
			ndvL := e.colNDV(q, rels[ed.a], ed.aOrd, math.Max(curRows, 1))
			ndvR := e.colNDV(q, r, ed.bOrd, math.Max(r.filtered, 1))
			outRows /= math.Max(math.Max(ndvL, ndvR), 1)
		}

		sp := &stepPlan{strategy: StrategyAuto, altCost: -1}
		hashCost := e.scanCost(q, r) + costBuildRow*r.filtered + curRows
		idxCost := math.Inf(1)
		if r.base != nil && len(in) > 0 {
			rOrds := make([]int, len(in))
			for i, ed := range in {
				rOrds[i] = ed.bOrd
			}
			if ix, _ := joinIndexFor(r.base, rOrds, q.asOf); ix != nil {
				lead := ix.ColumnOrdinals()[0]
				leadNDV := 1.0
				if c, ok := statColNDV(q, r, lead); ok {
					leadNDV = c
				} else {
					leadNDV = math.Max(r.rows/2, 1)
				}
				fan := r.rows / math.Max(leadNDV, 1)
				idxCost = curRows * (costProbe + fan)
			}
		}
		switch {
		case len(in) == 0:
			// Cross join (or non-equi residue): nested loop.
			sp.strategy, sp.cost = StrategyAuto, curRows*math.Max(r.filtered, 1)
		case !math.IsInf(idxCost, 1):
			if hashCost < strategyHedge*idxCost {
				sp.strategy, sp.cost = StrategyHash, hashCost
				sp.altStrategy, sp.altCost = StrategyIndexNL, idxCost
			} else {
				sp.strategy, sp.cost = StrategyIndexNL, idxCost
				sp.altStrategy, sp.altCost = StrategyHash, hashCost
			}
		default:
			sp.strategy, sp.cost = StrategyHash, hashCost
			sp.altStrategy, sp.altCost = StrategyNestedLoop, curRows*math.Max(r.filtered, 1)
		}
		sp.estRows = roundEst(outRows)
		sp.estScan = roundEst(r.filtered)
		steps[k] = sp
		total += sp.cost
		curRows = outRows
		placed[ri] = true
	}
	return steps, total
}

// statColNDV returns the provider's whole-column NDV (never grouped).
func statColNDV(q *queryState, r *planRel, ord int) (float64, bool) {
	if r.base == nil || q.provider == nil {
		return 0, false
	}
	return q.provider.ColumnNDV(r.table, ord)
}

func roundEst(x float64) int64 {
	if math.IsInf(x, 1) || x > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	if x < 0 {
		return 0
	}
	return int64(x + 0.5)
}

func identityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// enumerateOrders returns every permutation of [0..n) in lexicographic
// order (the identity first), or nil when n exceeds the exhaustive
// bound.
func enumerateOrders(n int) [][]int {
	if n > maxExhaustiveRels {
		return nil
	}
	out := [][]int{identityOrder(n)}
	for { // the next permutation after the last one
		p := slices.Clone(out[len(out)-1])
		i := n - 2
		for i >= 0 && p[i] > p[i+1] {
			i--
		}
		if i < 0 {
			return out
		}
		j := n - 1
		for p[j] < p[i] {
			j--
		}
		p[i], p[j] = p[j], p[i]
		slices.Reverse(p[i+1:])
		out = append(out, p)
	}
}
