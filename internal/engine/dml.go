package engine

import (
	"fmt"
	"strings"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// Exec parses and runs a non-SELECT statement, returning the number of
// rows affected (0 for DDL).
func (e *Engine) Exec(sqlText string, params ...any) (int, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return 0, err
	}
	return e.ExecStmt(stmt, params...)
}

// ExecStmt runs an already-parsed statement.
func (e *Engine) ExecStmt(stmt sql.Statement, params ...any) (int, error) {
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		return e.execInsert(s, toArgs(params))
	case *sql.UpdateStmt:
		return e.execUpdate(s, toArgs(params))
	case *sql.DeleteStmt:
		return e.execDelete(s, toArgs(params))
	case *sql.CreateTableStmt:
		return 0, e.execCreateTable(s)
	case *sql.CreateIndexStmt:
		return 0, e.execCreateIndex(s)
	case *sql.DropTableStmt:
		return 0, e.cat.DropTable(s.Name)
	case *sql.SelectStmt:
		return 0, fmt.Errorf("engine: Exec received a SELECT; use Query")
	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func typeKind(name string) (rel.Kind, error) {
	switch strings.ToUpper(name) {
	case "BIGINT", "INTEGER", "INT":
		return rel.KindInt, nil
	case "DOUBLE", "FLOAT", "DECIMAL":
		return rel.KindFloat, nil
	case "VARCHAR", "TEXT", "STRING", "CLOB":
		return rel.KindString, nil
	case "BOOLEAN":
		return rel.KindBool, nil
	case "JSON":
		return rel.KindJSON, nil
	case "LIST":
		return rel.KindList, nil
	default:
		return rel.KindNull, fmt.Errorf("engine: unknown column type %s", name)
	}
}

func (e *Engine) execCreateTable(s *sql.CreateTableStmt) error {
	cols := make([]rel.Column, len(s.Columns))
	pk := -1
	for i, c := range s.Columns {
		k, err := typeKind(c.Type)
		if err != nil {
			return err
		}
		cols[i] = rel.Column{Name: c.Name, Type: k}
		if c.PrimaryKey {
			pk = i
		}
	}
	if _, err := e.cat.CreateTable(s.Name, rel.NewSchema(cols...)); err != nil {
		return err
	}
	if pk >= 0 {
		if _, err := e.cat.CreateIndex(s.Name+"_PK", s.Name, true, []int{pk}, "", nil); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) execCreateIndex(s *sql.CreateIndexStmt) error {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return fmt.Errorf("engine: create index %s: unknown table %s", s.Name, s.Table)
	}
	// Plain column index when every expression is a bare column reference.
	allPlain := true
	var ordinals []int
	for _, x := range s.Exprs {
		cr, ok := x.(*sql.ColumnRef)
		if !ok || cr.Table != "" {
			allPlain = false
			break
		}
		ord := t.Schema().Ordinal(cr.Column)
		if ord < 0 {
			return fmt.Errorf("engine: create index %s: unknown column %s", s.Name, cr.Column)
		}
		ordinals = append(ordinals, ord)
	}
	if allPlain {
		_, err := e.cat.CreateIndex(s.Name, s.Table, s.Unique, ordinals, "", nil)
		return err
	}
	// Expression index: evaluate the expressions against each row. The
	// normalized first expression's SQL is recorded so the planner can
	// match predicates against it (JSON attribute indexes, paper §3.3).
	sc := newScope(tableCols(t, ""))
	fns := make([]compiledExpr, len(s.Exprs))
	for i, x := range s.Exprs {
		// Readers and writers derive keys concurrently, and a subquery's
		// result lives on a query state, which only one goroutine may use.
		if hasSubquery(x) {
			return fmt.Errorf("engine: create index %s: subquery in index expression %s", s.Name, x.SQL())
		}
		var err error
		if fns[i], err = e.compile(&queryState{}, sc, x); err != nil {
			return fmt.Errorf("engine: create index %s: %w", s.Name, err)
		}
	}
	keyFn := func(vals []rel.Value) []rel.Value {
		out := make([]rel.Value, len(fns))
		for i, fn := range fns {
			// A row the expression fails on indexes under NULL.
			out[i], _ = fn(vals)
		}
		return out
	}
	_, err := e.cat.CreateIndex(s.Name, s.Table, s.Unique, nil, s.Exprs[0].SQL(), keyFn)
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

func (e *Engine) execInsert(s *sql.InsertStmt, params []Arg) (int, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("engine: insert into unknown table %s", s.Table)
	}
	schema := t.Schema()
	// Column mapping.
	targets := make([]int, 0, schema.Len())
	if len(s.Columns) == 0 {
		for i := 0; i < schema.Len(); i++ {
			targets = append(targets, i)
		}
	} else {
		for _, c := range s.Columns {
			ord := schema.Ordinal(c)
			if ord < 0 {
				return 0, fmt.Errorf("engine: insert: unknown column %s", c)
			}
			targets = append(targets, ord)
		}
	}

	var sourceRows [][]rel.Value
	q := &queryState{ctes: map[string]*relation{}, params: params}
	var readTables []string
	if s.Query != nil {
		readTables = e.baseTablesOf(s.Query)
	}
	// Remove the write target from the read set (lock upgrade hazard).
	filtered := readTables[:0]
	for _, n := range readTables {
		if n != s.Table {
			filtered = append(filtered, n)
		}
	}
	readTables = filtered

	tx, err := e.cat.Begin([]string{s.Table}, readTables)
	if err != nil {
		return 0, err
	}
	defer tx.Rollback()

	if s.Query != nil {
		r, err := e.evalSelect(q, s.Query)
		if err != nil {
			return 0, err
		}
		sourceRows = r.rows
	} else {
		for _, exprRow := range s.Rows {
			row := make([]rel.Value, len(exprRow))
			for i, x := range exprRow {
				if row[i], err = e.constValue(q, x); err != nil {
					return 0, err
				}
			}
			sourceRows = append(sourceRows, row)
		}
	}

	n := 0
	for _, src := range sourceRows {
		if len(src) != len(targets) {
			return 0, fmt.Errorf("engine: insert arity %d, want %d", len(src), len(targets))
		}
		full := make([]rel.Value, schema.Len())
		for i, ord := range targets {
			full[ord] = src[i]
		}
		if _, err := tx.Insert(s.Table, full); err != nil {
			return 0, err
		}
		n++
	}
	tx.Commit()
	return n, nil
}

func (e *Engine) execUpdate(s *sql.UpdateStmt, params []Arg) (int, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("engine: update of unknown table %s", s.Table)
	}
	tx, err := e.cat.Begin([]string{s.Table}, nil)
	if err != nil {
		return 0, err
	}
	defer tx.Rollback()

	sc := newScope(tableCols(t, s.Table))
	q := &queryState{ctes: map[string]*relation{}, params: params}
	match, err := e.compilePredicates(q, sc, splitConjuncts(s.Where, nil))
	if err != nil {
		return 0, err
	}
	setOrds := make([]int, len(s.Set))
	setFns := make([]compiledExpr, len(s.Set))
	for i, a := range s.Set {
		if setOrds[i] = t.Schema().Ordinal(a.Column); setOrds[i] < 0 {
			return 0, fmt.Errorf("engine: update: unknown column %s", a.Column)
		}
		if setFns[i], err = e.compile(q, sc, a.Value); err != nil {
			return 0, err
		}
	}

	// Collect matching rows first, then apply (updates must not see their
	// own effects mid-scan).
	type change struct {
		rid  rel.RowID
		vals []rel.Value
	}
	var changes []change
	var scanErr error
	t.Scan(func(rid rel.RowID, vals []rel.Value) bool {
		var ok bool
		if ok, scanErr = match(vals); scanErr != nil || !ok {
			return scanErr == nil
		}
		updated := append([]rel.Value(nil), vals...)
		for i, fn := range setFns {
			if updated[setOrds[i]], scanErr = fn(vals); scanErr != nil {
				return false
			}
		}
		changes = append(changes, change{rid: rid, vals: updated})
		return true
	})
	if scanErr != nil {
		return 0, scanErr
	}
	for _, ch := range changes {
		if err := tx.Update(s.Table, ch.rid, ch.vals); err != nil {
			return 0, err
		}
	}
	tx.Commit()
	return len(changes), nil
}

func (e *Engine) execDelete(s *sql.DeleteStmt, params []Arg) (int, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return 0, fmt.Errorf("engine: delete from unknown table %s", s.Table)
	}
	tx, err := e.cat.Begin([]string{s.Table}, nil)
	if err != nil {
		return 0, err
	}
	defer tx.Rollback()

	q := &queryState{ctes: map[string]*relation{}, params: params}
	match, err := e.compilePredicates(q, newScope(tableCols(t, s.Table)), splitConjuncts(s.Where, nil))
	if err != nil {
		return 0, err
	}
	var rids []rel.RowID
	var scanErr error
	t.Scan(func(rid rel.RowID, vals []rel.Value) bool {
		var ok bool
		if ok, scanErr = match(vals); ok {
			rids = append(rids, rid)
		}
		return scanErr == nil
	})
	if scanErr != nil {
		return 0, scanErr
	}
	for _, rid := range rids {
		if _, err := tx.Delete(s.Table, rid); err != nil {
			return 0, err
		}
	}
	tx.Commit()
	return len(rids), nil
}
