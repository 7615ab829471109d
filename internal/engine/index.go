package engine

import (
	"fmt"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// CreateIndex builds a non-unique index named name over table. When
// every expression is a bare column reference it is a plain column
// index; otherwise it is an expression index whose first expression's
// SQL text is recorded, so the planner can match predicates against it
// (JSON attribute indexes, paper §3.3).
func (e *Engine) CreateIndex(name, table string, exprs ...sql.Expr) error {
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: create index %s: unknown table %s", name, table)
	}
	if len(exprs) == 0 {
		return fmt.Errorf("engine: create index %s: no key expressions", name)
	}
	// Plain column index when every expression is a bare column reference.
	allPlain := true
	var ordinals []int
	for _, x := range exprs {
		cr, ok := x.(*sql.ColumnRef)
		if !ok || cr.Table != "" {
			allPlain = false
			break
		}
		ord := t.Schema().Ordinal(cr.Column)
		if ord < 0 {
			return fmt.Errorf("engine: create index %s: unknown column %s", name, cr.Column)
		}
		ordinals = append(ordinals, ord)
	}
	if allPlain {
		_, err := e.cat.CreateIndex(name, table, false, ordinals, "", nil)
		return err
	}
	// Expression index: evaluate the expressions against each row.
	sc := newScope(tableCols(t, ""))
	fns := make([]compiledExpr, len(exprs))
	for i, x := range exprs {
		// Readers and writers derive keys concurrently, and a subquery's
		// result lives on a query state, which only one goroutine may use.
		if hasSubquery(x) {
			return fmt.Errorf("engine: create index %s: subquery in index expression %s", name, x.SQL())
		}
		var err error
		if fns[i], err = e.compile(&queryState{}, sc, x); err != nil {
			return fmt.Errorf("engine: create index %s: %w", name, err)
		}
	}
	keyFn := func(vals []rel.Value) []rel.Value {
		out := make([]rel.Value, len(fns))
		for i, fn := range fns {
			out[i] = fn(vals)
		}
		return out
	}
	_, err := e.cat.CreateIndex(name, table, false, nil, exprs[0].SQL(), keyFn)
	return err
}

// tableCols names a base table's columns under an alias.
func tableCols(t *rel.Table, alias string) []colInfo {
	cols := make([]colInfo, t.Schema().Len())
	for i, c := range t.Schema().Columns {
		cols[i] = colInfo{table: alias, name: c.Name}
	}
	return cols
}
