package engine

import (
	"fmt"
	"slices"
	"sort"
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

// aggregate evaluates an aggregating core over in. Without GROUP BY the
// one group is a terminal: rows stream into its accumulators and nothing
// is stored. GROUP BY is a breaker: in is stored, its rows are grouped,
// and each group's rows feed accumulators of their own.
func (e *Engine) aggregate(q *queryState, in *relation, sel *sql.SimpleSelect) (*relation, error) {
	sc := newScope(in.cols)
	ag := &aggregator{width: len(in.cols), items: make([]compiledExpr, len(sel.Items))}
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
	// A group's row is its first input row followed by one slot per
	// aggregate call: HAVING and the select list read both by position.
	grouped := *sc
	grouped.aggs, grouped.aggBase = calls, ag.width
	ag.accs = make([]aggAcc, len(calls))
	for i, call := range calls {
		ag.accs[i] = aggAcc{name: strings.ToUpper(call.Name), distinct: call.Distinct, allInt: true}
		if call.Star && ag.accs[i].name == "COUNT" {
			continue
		}
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("engine: aggregate %s takes one argument", ag.accs[i].name)
		}
		var err error
		if ag.accs[i].arg, err = e.compile(q, sc, call.Args[0]); err != nil {
			return nil, err
		}
	}
	var err error
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
	keys := make([]compiledExpr, len(sel.GroupBy))
	for i, gx := range sel.GroupBy {
		if keys[i], err = e.compile(q, sc, gx); err != nil {
			return nil, err
		}
	}
	op := len(q.stats.Ops)
	q.stats.Ops = append(q.stats.Ops, OpStat{Kind: "agg", StartNs: q.sinceStart(time.Now())})

	out := &relation{cols: aggregateCols(sel.Items), ordered: in.ordered} // groups come out in first-occurrence order
	rowsIn, groups := 0, 1
	if len(keys) == 0 {
		g := ag.newGroup()
		if err := e.run(q, in, g, op); err != nil {
			return nil, err
		}
		if err := ag.emit(g, out); err != nil {
			return nil, err
		}
		rowsIn = g.n
	} else {
		if err := e.materialize(q, in); err != nil {
			return nil, err
		}
		opT := time.Now()
		byKey := map[string]*aggGroup{}
		var order []*aggGroup
		for _, row := range in.rows {
			var kb strings.Builder
			for _, key := range keys {
				v, err := key(row)
				if err != nil {
					return nil, err
				}
				kb.WriteString(v.Key())
				kb.WriteByte(0xFF)
			}
			g, ok := byKey[kb.String()]
			if !ok {
				g = ag.newGroup()
				byKey[kb.String()] = g
				order = append(order, g)
			}
			if err := g.push(row); err != nil {
				return nil, err
			}
		}
		for _, g := range order {
			if err := ag.emit(g, out); err != nil {
				return nil, err
			}
		}
		rowsIn, groups = len(in.rows), len(order)
		q.stats.Ops[op].Nanos = time.Since(opT).Nanoseconds()
	}
	st := &q.stats.Ops[op]
	st.RowsIn, st.RowsOut, st.Groups = rowsIn, len(out.rows), groups
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

// aggregator is what the groups of one aggregating core share.
type aggregator struct {
	width  int      // columns of an input row; the aggregate slots follow them
	accs   []aggAcc // per aggregate call, in its initial state
	having compiledExpr
	items  []compiledExpr
}

// aggGroup accumulates one group's rows: a terminal when the core has no
// GROUP BY.
type aggGroup struct {
	accs []aggAcc
	row  []rel.Value // the group's first row (what non-aggregate expressions read), then the aggregate slots
	n    int
}

func (ag *aggregator) newGroup() *aggGroup {
	return &aggGroup{accs: slices.Clone(ag.accs), row: make([]rel.Value, ag.width+len(ag.accs))}
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

// absorb takes a morsel's buffered rows in order, so a sum of doubles
// adds up as it does on one worker.
func (g *aggGroup) absorb(m morselBuf) error {
	for _, row := range m.rows {
		if err := g.push(row); err != nil {
			return err
		}
	}
	return nil
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
