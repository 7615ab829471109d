package engine

import (
	"math"
	"slices"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// accessPath describes how scanBase will read a table.
type accessPath struct {
	index  *rel.Index
	kind   accessKind
	keys   [][]rel.Value // one probe key per entry (eq: 1, in: n)
	ids    []int64       // in, from a bound id list: one probe per id, keys unused
	lo, hi rel.Value     // range bounds, NULL where open
	loInc  bool
	hiInc  bool
	est    int // at most the rows the scan passes on, -1 unknown (scanSource.expect)
}

type accessKind uint8

// Access-path costing (scanPlan.accessPath), in units of one heap row a
// full scan examines. An index entry costs three of them: the B-tree
// step, the rid-to-slot lookup and the staleness check make it about 1.5
// times a sequential row, and an index walk runs on one worker where the
// full scan runs on all of them. With fullScanHedge on the index side, a
// predicate keeping more than about two fifths of the table is read by
// full scan. A hashed index's entry is cheaper (a hash lookup, an integer
// staleness check), but it only ever serves equality and IN, which win on
// selectivity, so it shares the constant.
const (
	costScanRow  = 1.0
	costIndexRow = 3.0
	costProbe    = 2.0 // per key probed
	// selIndexUnknown is the fraction an indexable predicate is assumed to
	// keep when no statistic answers it (expression indexes, untracked
	// tables): optimistic on purpose — whoever built that index expected
	// it to be selective — so statistics can only ever demote an index
	// path, never a missing statistic.
	selIndexUnknown = 0.1
	// fullScanHedge: a full scan must be predicted this much cheaper than
	// an index path before it displaces it.
	fullScanHedge = 0.8
)

const (
	accessFullScan accessKind = iota
	accessEq
	accessIn
	accessRange
	accessNotNull
)

// stripAlias returns a copy of the expression with column references to
// the given alias rendered unqualified, so it can be compared against the
// normalized expression string stored on expression indexes.
func stripAlias(e sql.Expr, alias string) sql.Expr {
	switch v := e.(type) {
	case *sql.ColumnRef:
		if v.Table == alias {
			return &sql.ColumnRef{Column: v.Column}
		}
		return v
	case *sql.Unary:
		return &sql.Unary{Op: v.Op, X: stripAlias(v.X, alias)}
	case *sql.Binary:
		return &sql.Binary{Op: v.Op, L: stripAlias(v.L, alias), R: stripAlias(v.R, alias)}
	case *sql.IsNull:
		return &sql.IsNull{X: stripAlias(v.X, alias), Not: v.Not}
	case *sql.FuncCall:
		args := make([]sql.Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = stripAlias(a, alias)
		}
		return &sql.FuncCall{Name: v.Name, Args: args, Star: v.Star}
	case *sql.Cast:
		return &sql.Cast{X: stripAlias(v.X, alias), Type: v.Type}
	case *sql.Subscript:
		return &sql.Subscript{X: stripAlias(v.X, alias), Index: stripAlias(v.Index, alias)}
	default:
		return e
	}
}

// flipCmp mirrors a comparison whose operands swap sides.
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

// indexUsableAt reports whether an index can serve reads at the given
// snapshot version: indexes created after a snapshot was pinned don't
// cover its historical row images and must be skipped for it.
func indexUsableAt(ix *rel.Index, asOf rel.Version) bool {
	return asOf == rel.Latest || ix.Born() <= asOf
}

// matchIndexExpr finds an index matching the given side expression and
// usable at the query's snapshot version: a plain index led by the
// column for a column reference, or an expression index whose normalized
// text equals the expression's. A range or IS NOT NULL path asks for an
// ordered index; a hashed one answers equality only.
func matchIndexExpr(t *rel.Table, alias string, side sql.Expr, asOf rel.Version, ordered bool) *rel.Index {
	usable := func(ix *rel.Index) bool { return indexUsableAt(ix, asOf) && (!ordered || ix.Ordered()) }
	if cr, ok := side.(*sql.ColumnRef); ok && (cr.Table == "" || cr.Table == alias) {
		ord := t.Schema().Ordinal(cr.Column)
		if ord < 0 {
			return nil
		}
		for _, ix := range t.Indexes() {
			if ords := ix.ColumnOrdinals(); len(ords) >= 1 && ords[0] == ord && usable(ix) {
				return ix
			}
		}
		return nil
	}
	want := stripAlias(side, alias).SQL()
	for _, ix := range t.Indexes() {
		if ix.Expr() != "" && ix.Expr() == want && usable(ix) {
			return ix
		}
	}
	return nil
}

// noCols is the scope of a column-free expression (never written to).
var noCols = newScope(nil)

// scanPlan is a base-table access prepared: the terms pushed into it, as
// its filter, and the access paths they offer, one of which each
// execution picks by its arguments (accessPath).
type scanPlan struct {
	t     *rel.Table
	cols  []colInfo
	pass  predicate
	fans  bool // a filter may drop rows
	cands []accessCand
}

// accessCand offers an execution the path a pushed term reads the table
// by, unless an earlier term offered one of its kind.
type accessCand func(f *frame, paths *[accessNotNull + 1]*accessPath)

// prepareScan prepares the read of a table under an alias, with the
// given single-table conjuncts pushed into it. All of them run as
// filters, including the ones the access path answers: index probes
// return candidates (the order-preserving key encoding merges the numeric
// domain), so predicates are always re-verified against row values. The
// first equality, IN list, range and IS NOT NULL an index matches are
// candidates, a range taking its other bound from a later term on the
// same index.
func (p *prep) prepareScan(q *queryState, t *rel.Table, alias string, cols []colInfo, conjs []*conjunct) (*scanPlan, error) {
	s := &scanPlan{t: t, cols: cols}
	var filters []*conjunct
	for _, c := range conjs {
		if c.applied {
			continue
		}
		filters = append(filters, c)
		switch v := c.expr.(type) {
		case *sql.Binary:
			side, bound, op := v.L, v.R, v.Op
			if !isConstExpr(bound) {
				side, bound, op = v.R, v.L, flipCmp(v.Op)
			}
			isRange := op == "<" || op == "<=" || op == ">" || op == ">="
			if !isConstExpr(bound) || hasSubquery(bound) || op != "=" && !isRange {
				continue
			}
			ix := matchIndexExpr(t, alias, side, q.asOf, isRange)
			if ix == nil {
				continue
			}
			b, err := p.compile(noCols, bound)
			if err != nil {
				return nil, err
			}
			upper, inc := op == "<" || op == "<=", op == "<=" || op == ">="
			s.cands = append(s.cands, func(f *frame, paths *[accessNotNull + 1]*accessPath) {
				if !isRange && paths[accessEq] == nil {
					paths[accessEq] = &accessPath{index: ix, kind: accessEq, keys: [][]rel.Value{{b(f, nil)}}}
				}
				r := paths[accessRange]
				if !isRange || r != nil && (r.index != ix || upper && !r.hi.IsNull() || !upper && !r.lo.IsNull()) {
					return
				}
				if r == nil {
					r = &accessPath{index: ix, kind: accessRange}
					paths[accessRange] = r
				}
				if upper {
					r.hi, r.hiInc = b(f, nil), inc
				} else {
					r.lo, r.loInc = b(f, nil), inc
				}
			})
		case *sql.InList:
			ix := matchIndexExpr(t, alias, v.X, q.asOf, false)
			if v.Not || ix == nil {
				continue
			}
			// A bare parameter is read as it is: the filter's compile checks
			// it, and an id list bound to it is read as one.
			var keys []compiledExpr
			if pv, ok := v.List[0].(*sql.Param); ok && len(v.List) == 1 {
				keys = []compiledExpr{func(f *frame, _ []rel.Value) rel.Value { return f.q.params[pv.Index].Val }}
			} else if !slices.ContainsFunc(v.List, func(x sql.Expr) bool { return !isConstExpr(x) || hasSubquery(x) }) {
				var err error
				if keys, err = p.compileAll(noCols, v.List); err != nil {
					return nil, err
				}
			}
			s.cands = append(s.cands, func(f *frame, paths *[accessNotNull + 1]*accessPath) {
				if ids, ok := f.q.idList(v); ok && paths[accessIn] == nil {
					paths[accessIn] = &accessPath{index: ix, kind: accessIn, ids: ids}
				} else if keys != nil && paths[accessIn] == nil {
					in := &accessPath{index: ix, kind: accessIn, keys: make([][]rel.Value, len(keys))}
					for i, k := range keys {
						in.keys[i] = []rel.Value{k(f, nil)}
					}
					paths[accessIn] = in
				}
			})
		case *sql.IsNull:
			if ix := matchIndexExpr(t, alias, v.X, q.asOf, true); v.Not && ix != nil {
				s.cands = append(s.cands, func(_ *frame, paths *[accessNotNull + 1]*accessPath) {
					if paths[accessNotNull] == nil {
						paths[accessNotNull] = &accessPath{index: ix, kind: accessNotNull}
					}
				})
			}
		}
	}
	markApplied(filters)
	var err error
	s.pass, err = p.predicates(newScope(cols), filters)
	s.fans = len(filters) > 0
	return s, err
}

// accessPath picks how this execution reads the table: without
// statistics syntactically — equality, IN, range, IS NOT NULL —, with a
// StatsProvider the cheapest of the candidates and the full scan
// (accessCost), ties going to the syntactic order: the soft-delete guard
// VID >= 0 loses to the parallel full scan, a selective range does not.
func (s *scanPlan) accessPath(f *frame) *accessPath {
	var paths [accessNotNull + 1]*accessPath
	for _, c := range s.cands {
		c(f, &paths)
	}
	best, est := &accessPath{kind: accessFullScan}, -1
	bestCost := accessCost(f.q.provider, s.t, best)
	for k := accessNotNull; k > accessFullScan; k-- {
		p := paths[k]
		if p == nil {
			continue
		}
		// Later candidates win ties: with no provider the last one stands.
		if cost := accessCost(f.q.provider, s.t, p); cost <= bestCost {
			best, bestCost = p, cost
		}
		// A unique index's keys bound the rows the scan passes on, by
		// whatever path: the term filters them all.
		if n := len(p.keys) + len(p.ids); k <= accessIn && p.index.Unique() && len(p.index.ColumnOrdinals()) == 1 && (est < 0 || n < est) {
			est = n
		}
	}
	best.est = est
	return best
}

// accessCost estimates an access path in units of one heap row examined
// by a full scan (constants above, derivation in DESIGN.md §15).
// Without a provider index paths are free and the full scan is not, which
// reduces the choice to the syntactic preference order.
func accessCost(prov StatsProvider, t *rel.Table, p *accessPath) float64 {
	if prov == nil {
		if p.kind == accessFullScan {
			return 1
		}
		return 0
	}
	rows := float64(t.LiveLocked()) // the engine holds the table's read lock
	if p.kind == accessFullScan {
		return rows * costScanRow
	}
	// Only a plain column index has a column the provider keeps statistics
	// on; an expression index (ord -1) is costed at selIndexUnknown.
	table, ord := t.Name(), -1
	if ords := p.index.ColumnOrdinals(); len(ords) > 0 {
		ord = ords[0]
	}
	sel, known := 0.0, false
	switch p.kind {
	case accessEq, accessIn:
		known = true
		unique := p.index.Unique() && len(p.index.ColumnOrdinals()) == 1
		for _, key := range p.keys {
			s, ok := prov.SelEq(table, ord, key[0])
			if unique {
				s, ok = 1/math.Max(rows, 1), true // exact, where the sketch is within a few percent
			}
			sel, known = sel+s, known && ok
		}
		if n := float64(len(p.ids)); n > 0 && unique {
			sel = n / math.Max(rows, 1)
		} else if n > 0 {
			// The first id's selectivity stands for each of them.
			s, ok := prov.SelEq(table, ord, rel.NewInt(p.ids[0]))
			sel, known = n*s, ok
		}
	case accessRange:
		if p.hi.IsNull() && p.loInc && p.lo.Kind() == rel.KindInt && p.lo.Int() == 0 {
			// col >= 0 over an id column is the soft-delete guard; the
			// negative-count statistic answers it exactly.
			sel, known = prov.FracNonNeg(table, ord)
		}
		if !known {
			var lo, hi *rel.Value
			if !p.lo.IsNull() {
				lo = &p.lo
			}
			if !p.hi.IsNull() {
				hi = &p.hi
			}
			sel, known = prov.SelRange(table, ord, lo, hi)
		}
	case accessNotNull:
		sel, known = prov.FracNonNull(table, ord)
	}
	if !known {
		sel = selIndexUnknown
	}
	// Hedged: the full scan must be predicted a fifth cheaper before it
	// displaces an index path.
	return fullScanHedge * (costProbe*float64(max(len(p.keys)+len(p.ids), 1)) + math.Min(sel, 1)*rows*costIndexRow)
}

// accessName names an access path kind for ExecStats.
func (k accessKind) accessName() string {
	switch k {
	case accessEq:
		return "index-eq"
	case accessIn:
		return "index-in"
	case accessRange:
		return "index-range"
	case accessNotNull:
		return "index-notnull"
	default:
		return "full-scan"
	}
}

// scanBase returns a prepared base-table access pending, as the head of a
// pipe (scanSource) whose workers filter their morsels' rows and push them
// on. The caller holds the table's read lock.
func (e *Engine) scanBase(f *frame, s *scanPlan) *relation {
	q := f.q
	path := s.accessPath(f)
	// Rows, morsels, workers and time are the run's (Engine.run).
	q.stats.Scans = append(q.stats.Scans, ScanStat{Table: s.t.Name(), Access: path.kind.accessName()})
	src := &scanSource{f: f, plan: s, stat: len(q.stats.Scans) - 1, path: path}
	return &relation{cols: s.cols, src: []*pipe{{scan: src}}}
}

// scanSource is the head of a pipe that starts at a table: the row
// images of t visible at the query's version that pass the conjuncts
// pushed into the scan, read along the access path. Its morsels are cut
// from the heap's slots for a full scan, and from the probes otherwise:
// one per key or bound id, in list order (g.V(12 960 ids) is 12 960
// probes), and one for a range or IS NOT NULL walk. The images are the
// table's own, never scratch. stat indexes ExecStats.Scans.
type scanSource struct {
	f    *frame
	plan *scanPlan
	stat int
	path *accessPath
}

// size returns the units the scan's morsels are cut from and how many
// rows they hold at most, as far as the fan-out decision goes: a table's
// slots include deleted rows.
func (s *scanSource) size() (n, rows int) {
	switch p := s.path; {
	case p.kind == accessFullScan:
		return s.plan.t.Slots(), s.plan.t.LiveLocked()
	case p.kind == accessRange || p.kind == accessNotNull:
		return 1, 1
	case p.ids != nil:
		return len(p.ids), len(p.ids)
	default:
		return len(p.keys), len(p.keys)
	}
}

// expect returns the rows the scan is expected to pass on, which a reader
// storing them sizes its store by: an unfiltered scan's live rows, else
// the bound a unique index's keys put on them, else 0 — never a table's
// rows for a filter that may keep few of them.
func (s *scanSource) expect() int {
	if !s.plan.fans {
		return s.plan.t.LiveLocked()
	}
	return max(s.path.est, 0)
}

// scanWorker is one worker's instance of a scan: the rows it has
// examined and passed on, added to once per morsel.
type scanWorker struct {
	*scanSource
	in, out int
}

func (s *scanSource) open() *scanWorker { return &scanWorker{scanSource: s} }

// run pushes the rows of units [lo, hi) that pass the filters into next.
// It counts in locals: this worker's fields, like every per-morsel output,
// are written once per morsel (runMorsels). Probes go through the table
// layer (ProbeAt/ProbeRangeAt), which resolves each candidate entry to
// the row image visible at the query's snapshot version and drops stale
// entries for superseded images — a probe visits each matching row
// exactly once per version.
func (w *scanWorker) run(lo, hi int, next sink) {
	in, out := 0, 0
	t, f, pass := w.plan.t, w.f, w.plan.pass
	name := t.Name()
	visit := func(rid rel.RowID, vals []rel.Value) bool {
		in++
		f.pageAccess(name, rid)
		if pass(f, vals) {
			out++
			next.push(vals)
		}
		return true
	}
	p, asOf := w.path, f.q.asOf
	switch p.kind {
	case accessFullScan:
		t.ScanSlotsAt(lo, hi, asOf, visit)
	case accessRange:
		t.ProbeRangeAt(p.index, p.lo, p.hi, p.loInc, p.hiInc, asOf, visit)
	case accessNotNull:
		t.ProbeRangeAt(p.index, rel.Null, rel.Null, true, true, asOf, visit)
	default:
		var key [1]rel.Value
		for i := lo; i < hi; i++ {
			if p.ids == nil {
				t.ProbeAt(p.index, p.keys[i], asOf, visit)
				continue
			}
			key[0] = rel.NewInt(p.ids[i])
			t.ProbeAt(p.index, key[:], asOf, visit)
		}
	}
	w.in, w.out = w.in+in, w.out+out
}

// done folds the worker's counts into the scan's statistics; runPipe
// calls it on the dispatching goroutine after the workers have joined.
func (w *scanWorker) done() {
	st := &w.f.q.stats.Scans[w.stat]
	st.RowsIn += w.in
	st.RowsOut += w.out
}

// joinIndexFor finds an index on the base table usable for an index
// nested-loop join given the equi-join right-column positions (which for
// base tables equal schema ordinals) and the query's snapshot version. It
// returns the index and, for each of the index's leading columns, the
// position into joinEqRight supplying the probe value.
func joinIndexFor(t *rel.Table, joinEqRight []int, asOf rel.Version) (*rel.Index, []int) {
	best := 0
	var bestMap []int
	var bestIx *rel.Index
	for _, ix := range t.Indexes() {
		ords := ix.ColumnOrdinals()
		if len(ords) == 0 || !indexUsableAt(ix, asOf) {
			continue
		}
		var mapping []int
		for _, ord := range ords {
			found := -1
			for j, pos := range joinEqRight {
				if pos == ord {
					found = j
					break
				}
			}
			if found < 0 {
				break
			}
			mapping = append(mapping, found)
		}
		if len(mapping) > best {
			best = len(mapping)
			bestMap = mapping
			bestIx = ix
		}
	}
	return bestIx, bestMap
}
