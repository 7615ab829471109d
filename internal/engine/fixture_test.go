package engine

import (
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// Test fixtures write the way the store does, through the catalog and
// its transactions: the engine only reads. Nothing here parses SQL.

func intCol(name string) rel.Column   { return rel.Column{Name: name, Type: rel.KindInt} }
func floatCol(name string) rel.Column { return rel.Column{Name: name, Type: rel.KindFloat} }
func strCol(name string) rel.Column   { return rel.Column{Name: name, Type: rel.KindString} }
func jsonCol(name string) rel.Column  { return rel.Column{Name: name, Type: rel.KindJSON} }

// mustTable creates a table.
func mustTable(t testing.TB, e *Engine, name string, cols ...rel.Column) {
	t.Helper()
	if _, err := e.Catalog().CreateTable(name, rel.NewSchema(cols...)); err != nil {
		t.Fatal(err)
	}
}

// mustIndex builds a non-unique ordered index over the named columns.
func mustIndex(t testing.TB, e *Engine, name, table string, cols ...string) {
	t.Helper()
	exprs := make([]sql.Expr, len(cols))
	for i, c := range cols {
		exprs[i] = &sql.ColumnRef{Column: c}
	}
	if err := e.CreateIndex(name, table, exprs...); err != nil {
		t.Fatal(err)
	}
}

// jsonVal is JSON_VAL(col, 'key'), the key of a JSON attribute index.
func jsonVal(col, key string) sql.Expr {
	return &sql.FuncCall{Name: "JSON_VAL", Args: []sql.Expr{&sql.ColumnRef{Column: col}, &sql.Literal{Val: key}}}
}

// mustUniqueIndex builds a unique index over one column.
func mustUniqueIndex(t testing.TB, e *Engine, name, table, col string) {
	t.Helper()
	tb, ok := e.Catalog().Table(table)
	if !ok {
		t.Fatalf("unknown table %s", table)
	}
	if _, err := e.Catalog().CreateIndex(name, table, true, []int{tb.Schema().Ordinal(col)}, "", nil); err != nil {
		t.Fatal(err)
	}
}

// row is one row of Go values; rel.FromAny converts each.
func row(vals ...any) []any { return vals }

// insertRows inserts rows into table in one transaction: all or none.
func insertRows(e *Engine, table string, rows ...[]any) error {
	tx, err := e.Catalog().Begin([]string{table}, nil)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	for _, r := range rows {
		vals := make([]rel.Value, len(r))
		for i, v := range r {
			vals[i] = rel.FromAny(v)
		}
		if _, err := tx.Insert(table, vals); err != nil {
			return err
		}
	}
	tx.Commit()
	return nil
}

func mustInsert(t testing.TB, e *Engine, table string, rows ...[]any) {
	t.Helper()
	if err := insertRows(e, table, rows...); err != nil {
		t.Fatal(err)
	}
}

// mustUpdateWhere rewrites, in one transaction, every row match accepts:
// set edits a copy of the row. It returns the number of rows changed.
func mustUpdateWhere(t testing.TB, e *Engine, table string, match func(row []rel.Value) bool, set func(row []rel.Value)) int {
	t.Helper()
	n, err := rewrite(e, table, match, func(tx *rel.Txn, rid rel.RowID, vals []rel.Value) error {
		vals = append([]rel.Value(nil), vals...)
		set(vals)
		return tx.Update(table, rid, vals)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// deleteWhere deletes, in one transaction, every row match accepts, and
// returns how many it deleted.
func deleteWhere(e *Engine, table string, match func(row []rel.Value) bool) (int, error) {
	return rewrite(e, table, match, func(tx *rel.Txn, rid rel.RowID, _ []rel.Value) error {
		_, err := tx.Delete(table, rid)
		return err
	})
}

func mustDeleteWhere(t testing.TB, e *Engine, table string, match func(row []rel.Value) bool) int {
	t.Helper()
	n, err := deleteWhere(e, table, match)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rewrite applies apply to every row of table that match accepts, in one
// transaction. The matches are collected first, so a change never meets
// its own effects mid-scan.
func rewrite(e *Engine, table string, match func([]rel.Value) bool, apply func(*rel.Txn, rel.RowID, []rel.Value) error) (int, error) {
	tx, err := e.Catalog().Begin([]string{table}, nil)
	if err != nil {
		return 0, err
	}
	defer tx.Rollback()
	var rids []rel.RowID
	var rows [][]rel.Value
	if err := tx.Scan(table, func(rid rel.RowID, vals []rel.Value) bool {
		if match(vals) {
			rids = append(rids, rid)
			rows = append(rows, vals)
		}
		return true
	}); err != nil {
		return 0, err
	}
	for i, rid := range rids {
		if err := apply(tx, rid, rows[i]); err != nil {
			return 0, err
		}
	}
	tx.Commit()
	return len(rids), nil
}
