package engine

import (
	"math"

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
}

type accessKind uint8

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

// constValue evaluates a column-free expression.
func (e *Engine) constValue(q *queryState, x sql.Expr) (rel.Value, error) {
	fn, err := e.compile(q, noCols, x)
	if err != nil {
		return rel.Null, err
	}
	return fn(nil), nil
}

// chooseAccessPath inspects the pushable conjuncts for indexable
// predicates and picks how scanBase reads the table. One candidate is
// collected per kind — the first equality, IN list, range and IS NOT NULL
// an index matches, the range taking its other bound from a later
// conjunct on the same index, so x >= lo AND x < hi is one range.
// Without optimizer statistics the pick is syntactic: equality, then IN,
// then range, then IS NOT NULL. With a StatsProvider every candidate and
// the full scan are costed (accessCost) and the cheapest wins, ties going
// to the syntactic order: a range that keeps most of the table — the
// soft-delete guard VID >= 0 — loses to the morsel-parallel full scan, a
// selective one stays an index probe.
func (e *Engine) chooseAccessPath(q *queryState, t *rel.Table, alias string, conjs []*conjunct) (*accessPath, error) {
	var eqPath, inPath, rangePath, notNullPath *accessPath
	for _, c := range conjs {
		if c.applied {
			continue
		}
		switch v := c.expr.(type) {
		case *sql.Binary:
			side, bound, op := v.L, v.R, v.Op
			if !isConstExpr(bound) {
				side, bound, op = v.R, v.L, flipCmp(v.Op)
			}
			isRange := op == "<" || op == "<=" || op == ">" || op == ">="
			if !isConstExpr(bound) || !(op == "=" && eqPath == nil || isRange) {
				continue
			}
			ix := matchIndexExpr(t, alias, side, q.asOf, isRange)
			upper := op == "<" || op == "<="
			if ix == nil || isRange && rangePath != nil && (rangePath.index != ix || upper && !rangePath.hi.IsNull() || !upper && !rangePath.lo.IsNull()) {
				continue
			}
			b, err := e.constValue(q, bound)
			if err != nil {
				return nil, err
			}
			if !isRange {
				eqPath = &accessPath{index: ix, kind: accessEq, keys: [][]rel.Value{{b}}}
				continue
			}
			if rangePath == nil {
				rangePath = &accessPath{index: ix, kind: accessRange}
			}
			if upper {
				rangePath.hi, rangePath.hiInc = b, op == "<="
			} else {
				rangePath.lo, rangePath.loInc = b, op == ">="
			}
		case *sql.InList:
			if !v.Not && inPath == nil {
				ix := matchIndexExpr(t, alias, v.X, q.asOf, false)
				if ids, ok := q.idList(v); ok && ix != nil {
					inPath = &accessPath{index: ix, kind: accessIn, ids: ids}
				} else if ix != nil {
					allConst := true
					keys := make([][]rel.Value, 0, len(v.List))
					for _, item := range v.List {
						if !isConstExpr(item) {
							allConst = false
							break
						}
						kv, err := e.constValue(q, item)
						if err != nil {
							return nil, err
						}
						keys = append(keys, []rel.Value{kv})
					}
					if allConst {
						inPath = &accessPath{index: ix, kind: accessIn, keys: keys}
					}
				}
			}
		case *sql.IsNull:
			if v.Not && notNullPath == nil {
				if ix := matchIndexExpr(t, alias, v.X, q.asOf, true); ix != nil {
					notNullPath = &accessPath{index: ix, kind: accessNotNull}
				}
			}
		}
	}
	best := &accessPath{kind: accessFullScan}
	bestCost := accessCost(q.provider, t, best)
	for _, p := range []*accessPath{notNullPath, rangePath, inPath, eqPath} {
		if p == nil {
			continue
		}
		// Later candidates rank higher syntactically and win ties; with no
		// provider every index path costs 0 and the last one stands.
		if cost := accessCost(q.provider, t, p); cost <= bestCost {
			best, bestCost = p, cost
		}
	}
	return best, nil
}

// accessCost estimates an access path in units of one heap row examined
// by a full scan (constants in planner.go, derivation in DESIGN.md §15).
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
			// As the planner costs an IN list: the first id's selectivity
			// for each of them.
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
	// Hedged like the join strategies: the full scan must be predicted a
	// fifth cheaper before it displaces an index path.
	return strategyHedge * (costProbe*float64(max(len(p.keys)+len(p.ids), 1)) + math.Min(sel, 1)*rows*costIndexRow)
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

// scanBase reads a base table under an alias, pushing the given
// single-table conjuncts into the scan and using an index when one
// matches. The access is returned pending, as the head of a pipe
// (scanSource): it runs with the pipe's stages and into its reader's
// terminal, each worker filtering the rows of its morsels with its own
// compiled predicates and pushing them on, in order.
// The caller must already hold the table's read lock (the engine acquires
// query locks up front).
func (e *Engine) scanBase(q *queryState, t *rel.Table, alias string, conjs []*conjunct) (*relation, error) {
	cols := tableCols(t, alias)
	path, err := e.chooseAccessPath(q, t, alias, conjs)
	if err != nil {
		return nil, err
	}

	// All pushed conjuncts run as filters, including the ones the access
	// path answers: index probes return candidates (the order-preserving
	// key encoding merges the numeric domain), so predicates are always
	// re-verified against row values.
	var filters []*conjunct
	for _, c := range conjs {
		if !c.applied {
			filters = append(filters, c)
		}
	}
	markApplied(filters)

	// Rows, morsels, workers and time are the run's (Engine.run).
	stat := ScanStat{Table: t.Name(), Access: path.kind.accessName(), EstRows: -1}
	if q.scanEstValid {
		stat.EstRows = q.scanEst
		q.scanEst, q.scanEstValid = 0, false
	}
	q.stats.Scans = append(q.stats.Scans, stat)
	src := &scanSource{e: e, q: q, t: t, sc: newScope(cols), filters: filters, stat: len(q.stats.Scans) - 1, path: path}
	return &relation{cols: cols, src: []*pipe{{scan: src, serial: !parallelSafeConjuncts(filters), fans: len(filters) > 0 || path.kind != accessFullScan}}}, nil
}

// scanSource is the head of a pipe that starts at a table: the row
// images of t visible at the query's version that pass the conjuncts
// pushed into the scan, read along the access path. Its morsels are cut
// from the heap's slots for a full scan, and from the probes otherwise:
// one per key or bound id, in list order (g.V(12 960 ids) is 12 960
// probes), and one for a range or IS NOT NULL walk. The images are the
// table's own, never scratch. stat indexes ExecStats.Scans.
type scanSource struct {
	e       *Engine
	q       *queryState
	t       *rel.Table
	sc      *scope
	filters []*conjunct
	stat    int
	path    *accessPath
}

// size returns the units the scan's morsels are cut from and how many
// rows they hold at most, as far as the fan-out decision goes: a table's
// slots include deleted rows.
func (s *scanSource) size() (n, rows int) {
	switch p := s.path; {
	case p.kind == accessFullScan:
		return s.t.Slots(), s.t.LiveLocked()
	case p.kind == accessRange || p.kind == accessNotNull:
		return 1, 1
	case p.ids != nil:
		return len(p.ids), len(p.ids)
	default:
		return len(p.keys), len(p.keys)
	}
}

// scanWorker is one worker's instance of a scan: its own compiled
// filters, and the rows it has examined and passed on, added to once per
// morsel.
type scanWorker struct {
	*scanSource
	pass    func(row []rel.Value) bool
	in, out int
}

func (s *scanSource) open() (*scanWorker, error) {
	pass, err := s.e.compilePredicates(s.q, s.sc, s.filters)
	return &scanWorker{scanSource: s, pass: pass}, err
}

// run pushes the rows of units [lo, hi) that pass the filters into next.
// It counts in locals: this worker's fields, like every per-morsel output,
// are written once per morsel (runMorsels). Probes go through the table
// layer (ProbeAt/ProbeRangeAt), which resolves each candidate entry to
// the row image visible at the query's snapshot version and drops stale
// entries for superseded images — a probe visits each matching row
// exactly once per version.
func (w *scanWorker) run(lo, hi int, next sink) {
	in, out := 0, 0
	name := w.t.Name()
	visit := func(rid rel.RowID, vals []rel.Value) bool {
		in++
		w.e.pageAccess(w.q, name, rid)
		if w.pass(vals) {
			out++
			next.push(vals)
		}
		return true
	}
	p, asOf := w.path, w.q.asOf
	switch p.kind {
	case accessFullScan:
		w.t.ScanSlotsAt(lo, hi, asOf, visit)
	case accessRange:
		w.t.ProbeRangeAt(p.index, p.lo, p.hi, p.loInc, p.hiInc, asOf, visit)
	case accessNotNull:
		w.t.ProbeRangeAt(p.index, rel.Null, rel.Null, true, true, asOf, visit)
	default:
		var key [1]rel.Value
		for i := lo; i < hi; i++ {
			if p.ids == nil {
				w.t.ProbeAt(p.index, p.keys[i], asOf, visit)
				continue
			}
			key[0] = rel.NewInt(p.ids[i])
			w.t.ProbeAt(p.index, key[:], asOf, visit)
		}
	}
	w.in, w.out = w.in+in, w.out+out
}

// done folds the worker's counts into the scan's statistics; runPipe
// calls it on the dispatching goroutine after the workers have joined.
func (w *scanWorker) done() {
	st := &w.q.stats.Scans[w.stat]
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
