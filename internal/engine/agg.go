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

func isAggregateName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG", "LISTAGG":
		return true
	}
	return false
}

// collectAggCalls gathers aggregate function calls from an expression
// (without descending into subqueries, which evaluate independently).
func collectAggCalls(e sql.Expr, out []*sql.FuncCall) []*sql.FuncCall {
	switch v := e.(type) {
	case nil:
	case *sql.FuncCall:
		if isAggregateName(v.Name) {
			return append(out, v)
		}
		for _, a := range v.Args {
			out = collectAggCalls(a, out)
		}
	case *sql.Unary:
		out = collectAggCalls(v.X, out)
	case *sql.Binary:
		out = collectAggCalls(v.L, out)
		out = collectAggCalls(v.R, out)
	case *sql.IsNull:
		out = collectAggCalls(v.X, out)
	case *sql.InList:
		out = collectAggCalls(v.X, out)
		for _, item := range v.List {
			out = collectAggCalls(item, out)
		}
	case *sql.Between:
		out = collectAggCalls(v.X, out)
		out = collectAggCalls(v.Lo, out)
		out = collectAggCalls(v.Hi, out)
	case *sql.Cast:
		out = collectAggCalls(v.X, out)
	case *sql.Subscript:
		out = collectAggCalls(v.X, out)
		out = collectAggCalls(v.Index, out)
	case *sql.CaseExpr:
		if v.Operand != nil {
			out = collectAggCalls(v.Operand, out)
		}
		for _, w := range v.Whens {
			out = collectAggCalls(w.Cond, out)
			out = collectAggCalls(w.Result, out)
		}
		if v.Else != nil {
			out = collectAggCalls(v.Else, out)
		}
	}
	return out
}

func hasAggregates(sel *sql.SimpleSelect) bool {
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		if len(collectAggCalls(item.Expr, nil)) > 0 {
			return true
		}
	}
	return len(collectAggCalls(sel.Having, nil)) > 0
}

// aggregate evaluates an aggregating core over in. Its run ends in the
// core's group table (aggTable), which forms the groups as rows arrive:
// nothing but the groups is stored, with or without GROUP BY. On several
// workers each worker keeps a table of the groups of the morsel it runs,
// and the terminal merges them in morsel order where every aggregate
// merges exactly (aggregator.exact); otherwise the workers buffer their
// morsels' rows and the terminal replays them in order, so a sum of
// doubles adds up as it does on one worker.
func (e *Engine) aggregate(q *queryState, in *relation, sel *sql.SimpleSelect) (*relation, error) {
	sc := newScope(in.cols)
	ag := &aggregator{width: len(in.cols), items: make([]compiledExpr, len(sel.Items)), exact: true}
	var calls []*sql.FuncCall
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("engine: SELECT * is not allowed with aggregation")
		}
		if !resolvableIn(item.Expr, sc) {
			return nil, fmt.Errorf("%w in select item %s", ErrUnknownColumn, item.Expr.SQL())
		}
		calls = collectAggCalls(item.Expr, calls)
	}
	calls = collectAggCalls(sel.Having, calls)
	for _, call := range calls {
		name := strings.ToUpper(call.Name)
		if !(call.Star && name == "COUNT") && len(call.Args) != 1 {
			return nil, fmt.Errorf("engine: aggregate %s takes one argument", name)
		}
		ag.exact = ag.exact && !call.Distinct && name != "SUM" && name != "AVG" && parallelSafeExprs(call.Args)
	}
	// A key or argument holding a subquery is evaluated on the dispatching
	// goroutine: its workers only buffer rows, for the terminal to replay.
	ag.exact = ag.exact && parallelSafeExprs(sel.GroupBy)
	// Every table compiles its own: the terminal's runs on the dispatching
	// goroutine, each worker's on its own.
	ag.inputs = func() (keys []compiledExpr, accs []aggAcc, err error) {
		accs = make([]aggAcc, len(calls))
		for i, call := range calls {
			accs[i] = aggAcc{name: strings.ToUpper(call.Name), distinct: call.Distinct, allInt: true}
			if call.Star && accs[i].name == "COUNT" {
				continue
			}
			if accs[i].arg, err = e.compile(q, sc, call.Args[0]); err != nil {
				return nil, nil, err
			}
		}
		keys = make([]compiledExpr, len(sel.GroupBy))
		for i, gx := range sel.GroupBy {
			if keys[i], err = e.compile(q, sc, gx); err != nil {
				return nil, nil, err
			}
		}
		return keys, accs, nil
	}
	term, err := ag.newTable()
	if err != nil {
		return nil, err
	}
	// A group's row is its first input row followed by one slot per
	// aggregate call: HAVING and the select list read both by position.
	grouped := *sc
	grouped.aggs, grouped.aggBase = calls, ag.width
	if sel.Having != nil {
		if ag.having, err = e.compile(q, &grouped, sel.Having); err != nil {
			return nil, err
		}
	}
	for i, item := range sel.Items {
		if ag.items[i], err = e.compile(q, &grouped, item.Expr); err != nil {
			return nil, err
		}
	}
	op := len(q.stats.Ops)
	q.stats.Ops = append(q.stats.Ops, OpStat{Kind: "agg", StartNs: q.sinceStart(time.Now())})
	if err := e.run(q, in, term, op); err != nil {
		return nil, err
	}
	// Emitting the groups is charged to the operator and to this run. Its
	// index is taken now: a subquery that HAVING or the select list runs
	// appends a run of its own.
	pi := len(q.stats.Pipelines) - 1
	finT := time.Now()
	if len(sel.GroupBy) == 0 && len(term.groups) == 0 {
		term.groups = append(term.groups, term.newGroup("")) // no row: the one group is empty
	}
	out := &relation{cols: aggregateCols(sel.Items), ordered: in.ordered} // groups come out in first-occurrence order
	for _, g := range term.groups {
		if err := ag.emit(g, out); err != nil {
			return nil, err
		}
	}
	d := time.Since(finT).Nanoseconds()
	st := &q.stats.Ops[op]
	st.Nanos += d
	q.stats.Pipelines[pi].Nanos += d
	st.RowsIn, st.RowsOut, st.Groups = term.in, len(out.rows), len(term.groups)
	q.stats.MaterializedRows += len(out.rows)
	if sel.Distinct {
		return e.distinct(q, out)
	}
	return out, nil
}

// aggregateCols names an aggregating core's output columns.
func aggregateCols(items []sql.SelectItem) []colInfo {
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

// aggregator is what the group tables of one aggregating core share.
type aggregator struct {
	width int // columns of an input row; the aggregate slots follow them
	// exact says every aggregate call merges exactly from per-morsel
	// partial states — COUNT, MIN, MAX and LISTAGG without DISTINCT — and
	// no GROUP BY key or aggregate argument holds a subquery.
	exact  bool
	inputs func() (keys []compiledExpr, accs []aggAcc, err error) // one table's GROUP BY keys and accumulators
	having compiledExpr
	items  []compiledExpr
}

// aggTable holds the groups of an aggregating core in the order they were
// first seen: the terminal of the core's run, and, on each worker of a
// parallel run under an exact aggregator, the groups of the morsel the
// worker is running.
type aggTable struct {
	ag     *aggregator
	keys   []compiledExpr
	accs   []aggAcc             // a new group's accumulators
	byKey  map[string]*aggGroup // nil without GROUP BY: one group
	groups []*aggGroup
	kb     []byte // the current row's key, rebuilt in place for every row
	in     int    // rows pushed
}

func (ag *aggregator) newTable() (*aggTable, error) {
	keys, accs, err := ag.inputs()
	if err != nil {
		return nil, err
	}
	t := &aggTable{ag: ag, keys: keys, accs: accs}
	if len(keys) > 0 {
		t.byKey = map[string]*aggGroup{}
	}
	return t, nil
}

// aggGroup accumulates one group's rows.
type aggGroup struct {
	key  string // the group's key: its GROUP BY values' keys (appendGroupKey)
	accs []aggAcc
	row  []rel.Value // the group's first row (what non-aggregate expressions read), then the aggregate slots
	n    int
}

func (t *aggTable) newGroup(key string) *aggGroup {
	return &aggGroup{key: key, accs: slices.Clone(t.accs), row: make([]rel.Value, t.ag.width+len(t.accs))}
}

func (t *aggTable) push(row []rel.Value) error {
	t.in++
	var g *aggGroup
	switch {
	case t.byKey != nil:
		t.kb = t.kb[:0]
		for _, key := range t.keys {
			v, err := key(row)
			if err != nil {
				return err
			}
			t.kb = appendGroupKey(t.kb, v)
		}
		if g = t.byKey[string(t.kb)]; g == nil {
			g = t.add(t.newGroup(string(t.kb)))
		}
	case len(t.groups) == 0:
		g = t.add(t.newGroup(""))
	default:
		g = t.groups[0]
	}
	return g.push(row)
}

// add appends a group first seen now.
func (t *aggTable) add(g *aggGroup) *aggGroup {
	if t.byKey != nil {
		t.byKey[g.key] = g
	}
	t.groups = append(t.groups, g)
	return g
}

// part returns a worker's end of a parallel run: a table of its own for
// each morsel when the aggregates merge exactly, else a buffer of the
// morsel's rows for absorb to replay.
func (t *aggTable) part(width int, scratch bool) (part, error) {
	if !t.ag.exact {
		return &collect{arena: newRowArena(width, 0), copy: scratch, transit: true}, nil
	}
	return t.ag.newTable()
}

func (t *aggTable) replays() bool { return !t.ag.exact }

func (t *aggTable) received() int { return t.in }

// takeMorsel hands over the groups of the morsel that ended and empties
// the table for the next.
func (t *aggTable) takeMorsel() morselBuf {
	m := morselBuf{groups: t.groups, in: t.in}
	t.groups, t.in = make([]*aggGroup, 0, len(m.groups)), 0
	clear(t.byKey)
	return m
}

// absorb takes the morsels in order: their rows, pushed again in order,
// or their groups, merged. A group a morsel saw first is the morsel's as
// it stands — its first row the first row a serial run would have seen —
// and a group seen before takes the morsel's states in.
func (t *aggTable) absorb(ms []morselBuf) error {
	for _, m := range ms {
		for _, row := range m.rows {
			if err := t.push(row); err != nil {
				return err
			}
		}
		if m.groups != nil {
			t.merge(m)
		}
	}
	return nil
}

func (t *aggTable) merge(m morselBuf) {
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

func (g *aggGroup) push(row []rel.Value) error {
	if g.n == 0 {
		copy(g.row, row)
	}
	g.n++
	for i := range g.accs {
		if err := g.accs[i].add(row); err != nil {
			return err
		}
	}
	return nil
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

// emit evaluates HAVING and the select list for one finished group and
// appends the row it yields to out.
func (ag *aggregator) emit(g *aggGroup, out *relation) error {
	for i := range g.accs {
		g.row[ag.width+i] = g.accs[i].result()
	}
	if ag.having != nil {
		hv, err := ag.having(g.row)
		if err != nil || hv.IsNull() || !hv.Truthy() {
			return err
		}
	}
	row := make([]rel.Value, len(ag.items))
	for i, item := range ag.items {
		var err error
		if row[i], err = item(g.row); err != nil {
			return err
		}
	}
	out.rows = append(out.rows, row)
	return nil
}

// aggAcc is the running state of one aggregate call over one group.
type aggAcc struct {
	name     string
	arg      compiledExpr // nil for COUNT(*)
	distinct bool
	seen     map[string]bool

	count      int64
	sumI       int64
	sumF       float64
	allInt     bool
	minV, maxV rel.Value
	list       []rel.Value
}

func (a *aggAcc) add(row []rel.Value) error {
	if a.arg == nil {
		a.count++
		return nil
	}
	v, err := a.arg(row)
	if err != nil || v.IsNull() {
		return err
	}
	if a.distinct {
		k := v.Key()
		if a.seen[k] {
			return nil
		}
		if a.seen == nil {
			a.seen = map[string]bool{}
		}
		a.seen[k] = true
	}
	a.count++
	switch v.Kind() {
	case rel.KindInt:
		a.sumI += v.Int()
		a.sumF += v.Float()
	case rel.KindFloat:
		a.allInt = false
		a.sumF += v.Float()
	default:
		a.allInt = false
	}
	if a.minV.IsNull() || rel.Compare(v, a.minV) < 0 {
		a.minV = v
	}
	if a.maxV.IsNull() || rel.Compare(v, a.maxV) > 0 {
		a.maxV = v
	}
	if a.name == "LISTAGG" {
		a.list = append(a.list, v)
	}
	return nil
}

// merge takes in the state b reached over the rows that followed a's, for
// the calls that merge exactly: COUNT adds up, MIN and MAX keep a's value
// on a tie as a serial run keeps the first, and LISTAGG's list goes on
// in row order (result sorts it stably).
func (a *aggAcc) merge(b *aggAcc) {
	a.count += b.count
	if !b.minV.IsNull() && (a.minV.IsNull() || rel.Compare(b.minV, a.minV) < 0) {
		a.minV = b.minV
	}
	if !b.maxV.IsNull() && (a.maxV.IsNull() || rel.Compare(b.maxV, a.maxV) > 0) {
		a.maxV = b.maxV
	}
	a.list = append(a.list, b.list...)
}

func (a *aggAcc) result() rel.Value {
	switch a.name {
	case "COUNT":
		return rel.NewInt(a.count)
	case "SUM":
		if a.count == 0 {
			return rel.Null
		}
		if a.allInt {
			return rel.NewInt(a.sumI)
		}
		return rel.NewFloat(a.sumF)
	case "AVG":
		if a.count == 0 {
			return rel.Null
		}
		return rel.NewFloat(a.sumF / float64(a.count))
	case "MIN":
		return a.minV
	case "MAX":
		return a.maxV
	default: // LISTAGG: isAggregateName admits no other name
		// Deterministic output independent of row order: non-null values
		// sorted ascending. (Standard LISTAGG requires WITHIN GROUP; a
		// fixed ascending order serves the same purpose here.)
		sort.SliceStable(a.list, func(i, j int) bool { return rel.Compare(a.list[i], a.list[j]) < 0 })
		return rel.NewList(a.list)
	}
}
