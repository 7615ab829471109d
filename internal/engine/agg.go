package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// isAggregateName reports whether a call is one of the two aggregates:
// COUNT (every count template) and LISTAGG (groupBy's value lists).
func isAggregateName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "LISTAGG":
		return true
	}
	return false
}

// collectAggCalls gathers aggregate function calls from an expression
// (without descending into subqueries, which evaluate independently).
func collectAggCalls(e sql.Expr, out []*sql.FuncCall) []*sql.FuncCall {
	if v, ok := e.(*sql.FuncCall); ok && isAggregateName(v.Name) {
		return append(out, v)
	}
	sql.Children(e, func(c sql.Expr) { out = collectAggCalls(c, out) })
	return out
}

// prepareAgg prepares an aggregating core over input columns sc: its
// calls' arguments and GROUP BY keys over the input row, its select list
// over the group's row.
func (p *prep) prepareAgg(sc *scope, sel *sql.SimpleSelect) (*aggregator, error) {
	ag := &aggregator{width: len(sc.cols), cols: itemCols(sel.Items)}
	var calls []*sql.FuncCall
	for _, item := range sel.Items {
		if !resolvableIn(item.Expr, sc) {
			return nil, fmt.Errorf("%w in select item %s", ErrUnknownColumn, item.Expr.SQL())
		}
		calls = collectAggCalls(item.Expr, calls)
	}
	for _, call := range calls {
		if !call.Star && len(call.Args) != 1 {
			return nil, fmt.Errorf("engine: aggregate %s takes one argument", strings.ToUpper(call.Name))
		}
	}
	ag.accs = make([]aggAcc, len(calls))
	var err error
	for i, call := range calls {
		ag.accs[i].list = strings.ToUpper(call.Name) == "LISTAGG"
		if !call.Star {
			if ag.accs[i].arg, err = p.compile(sc, call.Args[0]); err != nil {
				return nil, err
			}
		}
	}
	if ag.keys, err = p.compileAll(sc, sel.GroupBy); err != nil {
		return nil, err
	}
	// A group's row is its first input row followed by one slot per
	// aggregate call: the select list reads both by position.
	grouped := *sc
	grouped.aggs, grouped.aggBase = calls, ag.width
	ag.items = make([]compiledExpr, len(sel.Items))
	for i, item := range sel.Items {
		if ag.items[i], err = p.compile(&grouped, item.Expr); err != nil {
			return nil, err
		}
	}
	return ag, nil
}

// aggregate evaluates an aggregating core over in. Its run ends in the
// core's group table (aggTable), which forms the groups as rows arrive:
// nothing but the groups is stored, with or without GROUP BY. On several
// workers each worker keeps a table of the groups of the morsel it runs,
// and the terminal merges them in morsel order: COUNT and LISTAGG merge
// exactly from partial states (aggAcc.merge).
func (e *Engine) aggregate(f *frame, in *relation, ag *aggregator, distinct bool) (*relation, error) {
	q := f.q
	term := ag.newTable(f)
	op := len(q.stats.Ops)
	q.stats.Ops = append(q.stats.Ops, OpStat{Kind: "agg", StartNs: q.sinceStart(time.Now())})
	if err := e.run(q, in, term, op); err != nil {
		return nil, err
	}
	// Emitting the groups is charged to the operator and to this run.
	pi := len(q.stats.Pipelines) - 1
	finT := time.Now()
	if len(ag.keys) == 0 && len(term.groups) == 0 {
		term.groups = append(term.groups, term.newGroup("")) // no row: the one group is empty
	}
	out := &relation{cols: ag.cols, ordered: in.ordered} // groups come out in first-occurrence order
	for _, g := range term.groups {
		ag.emit(f, g, out)
	}
	d := time.Since(finT).Nanoseconds()
	st := &q.stats.Ops[op]
	st.Nanos += d
	q.stats.Pipelines[pi].Nanos += d
	st.RowsIn, st.RowsOut, st.Groups = term.in, len(out.rows), len(term.groups)
	q.stats.MaterializedRows += len(out.rows)
	if distinct {
		return e.distinct(q, out)
	}
	return out, nil
}

// itemCols names a select list's output columns. A column reference
// keeps its qualifier, so ORDER BY t.col still resolves after projection.
func itemCols(items []sql.SelectItem) []colInfo {
	cols := make([]colInfo, len(items))
	for i, item := range items {
		name, table := item.Alias, ""
		if name == "" {
			if cr, ok := item.Expr.(*sql.ColumnRef); ok {
				name, table = cr.Column, cr.Table
			} else {
				name = fmt.Sprintf("COL%d", i+1)
			}
		}
		cols[i] = colInfo{table: table, name: name}
	}
	return cols
}

// aggregator is an aggregating core prepared: what its tables share.
type aggregator struct {
	width int            // columns of an input row; the aggregate slots follow them
	keys  []compiledExpr // GROUP BY
	accs  []aggAcc       // a new group's accumulators
	items []compiledExpr // the select list, over a group's row
	cols  []colInfo
}

// aggTable holds the groups of an aggregating core in the order they were
// first seen: the terminal of the core's run, and, on each worker of a
// parallel run, the groups of the morsel the worker is running.
type aggTable struct {
	ag     *aggregator
	f      *frame
	byKey  map[string]*aggGroup // nil without GROUP BY: one group
	groups []*aggGroup
	kb     []byte // the current row's key, rebuilt in place for every row
	in     int    // rows pushed
}

func (ag *aggregator) newTable(f *frame) *aggTable {
	t := &aggTable{ag: ag, f: f}
	if len(ag.keys) > 0 {
		t.byKey = map[string]*aggGroup{}
	}
	return t
}

// aggGroup accumulates one group's rows.
type aggGroup struct {
	key  string // the group's key: its GROUP BY values' keys (appendGroupKey)
	accs []aggAcc
	row  []rel.Value // the group's first row (what non-aggregate expressions read), then the aggregate slots
	n    int
}

func (t *aggTable) newGroup(key string) *aggGroup {
	return &aggGroup{key: key, accs: slices.Clone(t.ag.accs), row: make([]rel.Value, t.ag.width+len(t.ag.accs))}
}

func (t *aggTable) push(row []rel.Value) {
	t.in++
	var g *aggGroup
	switch {
	case t.byKey != nil:
		t.kb = t.kb[:0]
		for _, key := range t.ag.keys {
			t.kb = appendGroupKey(t.kb, key(t.f, row))
		}
		if g = t.byKey[string(t.kb)]; g == nil {
			g = t.add(t.newGroup(string(t.kb)))
		}
	case len(t.groups) == 0:
		g = t.add(t.newGroup(""))
	default:
		g = t.groups[0]
	}
	g.push(t.f, row)
}

// add appends a group first seen now.
func (t *aggTable) add(g *aggGroup) *aggGroup {
	if t.byKey != nil {
		t.byKey[g.key] = g
	}
	t.groups = append(t.groups, g)
	return g
}

// part returns a worker's end of a parallel run: a table of its own,
// emptied for each morsel.
func (t *aggTable) part(int, bool) part { return t.ag.newTable(t.f) }

// feed needs nothing of the rows: a group copies its first row.
func (t *aggTable) feed(bool) {}

func (t *aggTable) replays() bool { return false }

func (t *aggTable) received() int { return t.in }

// takeMorsel hands over the groups of the morsel that ended and empties
// the table for the next.
func (t *aggTable) takeMorsel() morselBuf {
	m := morselBuf{groups: t.groups, in: t.in}
	t.groups, t.in = make([]*aggGroup, 0, len(m.groups)), 0
	clear(t.byKey)
	return m
}

// absorb merges the morsels' groups in morsel order. A group a morsel
// saw first is the morsel's as it stands — its first row the first row a
// serial run would have seen — and a group seen before takes the morsel's
// states in.
func (t *aggTable) absorb(ms []morselBuf) {
	for _, m := range ms {
		t.in += m.in
		for _, pg := range m.groups {
			var g *aggGroup
			if t.byKey != nil {
				g = t.byKey[pg.key]
			} else if len(t.groups) > 0 {
				g = t.groups[0]
			}
			if g == nil {
				t.add(pg)
				continue
			}
			g.n += pg.n
			for i := range g.accs {
				g.accs[i].merge(&pg.accs[i])
			}
		}
	}
}

func (g *aggGroup) push(f *frame, row []rel.Value) {
	if g.n == 0 {
		copy(g.row, row)
	}
	g.n++
	for i := range g.accs {
		g.accs[i].add(f, row)
	}
}

// appendGroupKey appends v's canonical key (rel.Value.Key) and a
// separator to b, without building the key as a string of its own for
// the kinds GROUP BY meets: integers, doubles and strings.
func appendGroupKey(b []byte, v rel.Value) []byte {
	switch v.Kind() {
	case rel.KindInt:
		b = strconv.AppendInt(append(b, 0x02, 'i'), v.Int(), 10)
	case rel.KindFloat:
		if f := v.Float(); f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			b = strconv.AppendInt(append(b, 0x02, 'i'), int64(f), 10)
		} else {
			b = strconv.AppendFloat(append(b, 0x02, 'f'), f, 'g', -1, 64)
		}
	case rel.KindString:
		b = append(append(b, 0x03), v.Str()...)
	default:
		b = append(b, v.Key()...)
	}
	return append(b, 0xFF)
}

// emit evaluates the select list for one finished group and appends the
// row it yields to out.
func (ag *aggregator) emit(f *frame, g *aggGroup, out *relation) {
	for i := range g.accs {
		g.row[ag.width+i] = g.accs[i].result()
	}
	row := make([]rel.Value, len(ag.items))
	for i, item := range ag.items {
		row[i] = item(f, g.row)
	}
	out.rows = append(out.rows, row)
}

// aggAcc is the running state of one aggregate call over one group:
// COUNT's count of rows (of non-NULL arguments) or LISTAGG's list of
// non-NULL arguments.
type aggAcc struct {
	arg   compiledExpr // nil for COUNT(*)
	list  bool         // LISTAGG
	count int64
	vals  []rel.Value
}

func (a *aggAcc) add(f *frame, row []rel.Value) {
	if a.arg == nil {
		a.count++
		return
	}
	if v := a.arg(f, row); !v.IsNull() {
		a.count++
		if a.list {
			a.vals = append(a.vals, v)
		}
	}
}

// merge takes in the state b reached over the rows that followed a's:
// counts add up, and LISTAGG's list goes on in row order (result sorts
// it stably).
func (a *aggAcc) merge(b *aggAcc) {
	a.count += b.count
	a.vals = append(a.vals, b.vals...)
}

func (a *aggAcc) result() rel.Value {
	if !a.list {
		return rel.NewInt(a.count)
	}
	// Deterministic output independent of row order: non-null values
	// sorted ascending. (Standard LISTAGG requires WITHIN GROUP; a fixed
	// ascending order serves the same purpose here.)
	sort.SliceStable(a.vals, func(i, j int) bool { return rel.Compare(a.vals[i], a.vals[j]) < 0 })
	return rel.NewList(a.vals)
}
