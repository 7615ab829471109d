package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sqlgraph/internal/rel"
)

// TestCompileTotal: compile is the engine's one evaluator, so an
// expression means the same wherever a statement may hold it. One
// expression per sql.Expr implementation (and per built-in function) is
// evaluated over the four VA rows as a select item, and must then yield
// the same values — or fail with the same error — as a WHERE term, a
// GROUP BY key, an ORDER BY key and a HAVING term.
func TestCompileTotal(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	e.RegisterFunc("twice", func(args []rel.Value) (rel.Value, error) {
		return rel.NewInt(2 * args[0].Int()), nil
	})
	const name, age = "JSON_VAL(ATTR, 'name')", "JSON_VAL(ATTR, 'age')"
	cases := []struct {
		x    string
		args []any
		err  string // non-empty: every position fails with an error containing it
	}{
		// ColumnRef, Literal, Param
		{x: "VID"}, {x: "7"}, {x: "'x'"}, {x: "2.5"}, {x: "TRUE"}, {x: "NULL"},
		{x: "? + VID", args: []any{10}},
		{x: "?", err: "missing parameter 1"},
		{x: "NOSUCH", err: "unknown column"},
		// Unary
		{x: "NOT (VID > 2)"}, {x: "NOT (" + age + " > 28)"}, {x: "- VID"}, {x: "- " + age}, {x: "- 2.5"},
		{x: "- " + name, err: "cannot negate VARCHAR"},
		{x: "- (VID = 1)", err: "cannot negate BOOLEAN"},
		// Binary
		{x: "VID * 2 + 1"}, {x: "VID - 2.5"}, {x: age + " >= 29"}, {x: age + " > 28 OR VID = 3"},
		{x: age + " > 28 AND VID < 4"}, {x: name + " LIKE '%o%'"}, {x: name + " || '!'"}, {x: "LIST(1) || VID"},
		{x: "VID <> 2"}, {x: "VID <= 2"}, {x: "VID < 2"},
		// a zero divisor, whatever it was coerced from, is NULL
		{x: "VID / 0"}, {x: "VID % 0"}, {x: "VID % 0.5"}, {x: "VID / 'abc'"}, {x: "100 / (VID - 2)"},
		{x: "7 % (VID - 2)"}, {x: "VID / 2"}, {x: "VID / 2.0"}, {x: "VID / " + name}, {x: "60 / " + age},
		// IsNull, Between, InList
		{x: age + " IS NULL"}, {x: age + " IS NOT NULL"}, {x: "VID BETWEEN 2 AND 3"}, {x: age + " NOT BETWEEN 28 AND 40"},
		{x: "VID IN (1, 3)"}, {x: "VID IN (1, 2.0, 'x')"}, {x: age + " NOT IN (27, NULL)"}, {x: "VID IN (" + age + " - 28, 3)"},
		{x: "VID IN (?, ?)", args: []any{2, 4}},
		// an id list bound to the one parameter of IN (?): a few ids are compared, many go through a hash set
		{x: "VID IN (?)", args: []any{[]int64{2, 4}}}, {x: "VID NOT IN (?)", args: []any{[]int64{2, 4}}},
		{x: "VID IN (?)", args: []any{[]int64{9, 8, 7, 6, 5, 4, 3, 12, 11, 10}}}, {x: "VID IN (?)", args: []any{[]int64{}}},
		{x: "VID / 2.0 IN (?)", args: []any{[]int64{1, 2}}}, {x: age + " IN (?)", args: []any{[]int64{29}}}, {x: name + " IN (?)", args: []any{[]int64{1}}},
		{x: "VID IN (?)", args: []any{3}},
		{x: "VID = ?", args: []any{[]int64{1}}, err: "parameter 1 is an id list"},
		{x: "VID IN (?, ?)", args: []any{[]int64{1}, 2}, err: "parameter 1 is an id list"},
		// InSubquery, Exists, ScalarSubquery
		{x: "VID IN (SELECT OUTV FROM EA)"}, {x: "VID NOT IN (SELECT INV FROM EA)"}, {x: age + " IN (SELECT 29)"},
		{x: "EXISTS (SELECT 1 FROM EA WHERE INV = 4)"}, {x: "NOT EXISTS (SELECT 1 FROM EA WHERE INV = 4)"},
		{x: "(SELECT MAX(INV) FROM EA) - VID"}, {x: "(SELECT INV FROM EA WHERE EID = 99)"},
		{x: "VID IN (SELECT INV, OUTV FROM EA)", err: "IN subquery must return one column"},
		{x: "(SELECT INV FROM EA)", err: "scalar subquery returned"},
		// FuncCall: every built-in, a user-defined function, and the errors
		{x: "COALESCE(" + age + ", VID)"}, {x: "COALESCE(NULL, NULL)"}, {x: "JSON_VAL(ATTR, LOWER('NAME'))"}, {x: "JSON_VAL(ATTR, 'nosuch')"},
		{x: "LENGTH(" + name + ")"}, {x: "LEN(LIST(VID, 2))"}, {x: "LENGTH(" + age + ")"}, {x: "UPPER(" + name + ")"}, {x: "LOWER('ABC')"},
		{x: "ABS(VID - 3)"}, {x: "ABS(2.5 - VID)"}, {x: "ABS(" + age + ")"},
		{x: "SUBSTR(" + name + ", 2)"}, {x: "SUBSTRING(" + name + ", 2, 2)"}, {x: "SUBSTR(" + name + ", 9)"}, {x: "SUBSTR(" + name + ", 2, 0 - 1)"},
		{x: "LIST()"}, {x: "LIST(VID, " + name + ")"}, {x: "CONTAINS(" + name + ", 'a')"}, {x: "STARTSWITH(" + name + ", 'ma')"},
		{x: "CONTAINS(" + age + ", '2')"}, {x: "CARDINALITY(LIST(VID, 1))"}, {x: "CARDINALITY(VID)"}, {x: "TWICE(VID)"},
		{x: "NOSUCH(VID)", err: "unknown function NOSUCH"},
		{x: "UPPER()", err: "UPPER does not take 0 arguments"},
		{x: "SUBSTR(" + name + ")", err: "SUBSTR does not take 1 arguments"},
		// Cast, Subscript, CaseExpr
		{x: "CAST(" + age + " AS VARCHAR)"}, {x: "CAST(VID AS DOUBLE)"}, {x: "CAST(" + name + " AS BIGINT)"}, {x: "CAST(VID AS BOOLEAN)"},
		{x: "CAST(VID AS BLOB)", err: "unsupported cast target"},
		{x: "LIST(VID, 9)[0]"}, {x: "LIST(VID, 9)[0 - 1]"}, {x: "LIST(VID, 9)[VID]"},
		{x: "CASE VID WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END"}, {x: "CASE " + age + " WHEN 29 THEN 1 END"},
		{x: "CASE WHEN " + age + " > 28 THEN 'old' WHEN VID = 3 THEN 'none' END"},
		{x: "CASE WHEN VID = 1 THEN - " + name + " ELSE 0 END", err: "cannot negate VARCHAR"},
	}
	for _, c := range cases {
		t.Run(c.x, func(t *testing.T) {
			query := func(sql string, extra ...any) (*Rows, error) {
				return e.Query(sql, append(append([]any(nil), c.args...), extra...)...)
			}
			items, err := query("SELECT VID, " + c.x + " FROM VA")
			if c.err != "" {
				for _, sql := range []string{
					"SELECT VID, " + c.x + " FROM VA",
					"SELECT VID FROM VA WHERE (" + c.x + ") IS NULL",
					"SELECT COUNT(*) FROM VA GROUP BY " + c.x,
					"SELECT VID, ATTR FROM VA ORDER BY " + c.x,
					"SELECT VID FROM VA GROUP BY VID HAVING (" + c.x + ") IS NULL",
				} {
					if _, err := query(sql); err == nil || !strings.Contains(err.Error(), c.err) {
						t.Errorf("%s: error = %v, want one containing %q", sql, err, c.err)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("select list: %v", err)
			}
			// WHERE and HAVING: each row passes the test for its own value.
			groups := map[string][]int64{}
			for _, row := range items.Data {
				vid, v := row[0].Int(), row[1]
				groups[v.Key()] = append(groups[v.Key()], vid)
				pred, args := "("+c.x+") IS NULL", []any(nil)
				if !v.IsNull() {
					pred, args = "("+c.x+") = ?", []any{v}
				}
				for _, sql := range []string{
					fmt.Sprintf("SELECT VID FROM VA WHERE VID = %d AND %s", vid, pred),
					fmt.Sprintf("SELECT VID FROM VA WHERE VID = %d GROUP BY VID HAVING %s", vid, pred),
				} {
					if r, err := query(sql, args...); err != nil {
						t.Errorf("%s with %v: %v", sql, v, err)
					} else if len(r.Data) != 1 {
						t.Errorf("%s with %v: %d rows, want the one the select list gave that value", sql, v, len(r.Data))
					}
				}
			}
			// GROUP BY: the groups are the rows with equal values.
			grouped, err := query("SELECT MIN(VID), COUNT(*) FROM VA GROUP BY " + c.x)
			if err != nil {
				t.Fatalf("GROUP BY: %v", err)
			}
			if len(grouped.Data) != len(groups) {
				t.Fatalf("GROUP BY: %d groups; the select list gave %d distinct values", len(grouped.Data), len(groups))
			}
			for _, vids := range groups {
				found := false
				for _, g := range grouped.Data {
					found = found || g[0].Int() == vids[0] && g[1].Int() == int64(len(vids))
				}
				if !found {
					t.Errorf("GROUP BY: no group of %d rows starting at VID %d in %v", len(vids), vids[0], grouped.Data)
				}
			}
			// ORDER BY: the rows sorted by their values, ties by VID. (A sort
			// key reads the select list's columns.)
			want := append([][]rel.Value(nil), items.Data...)
			sort.SliceStable(want, func(i, j int) bool { return rel.Compare(want[i][1], want[j][1]) < 0 })
			ordered, err := query("SELECT VID, ATTR FROM VA ORDER BY " + c.x + ", VID")
			if err != nil || len(ordered.Data) != len(want) {
				t.Fatalf("ORDER BY: %v, error %v", ordered, err)
			}
			for i, row := range ordered.Data {
				if row[0].Int() != want[i][0].Int() {
					t.Errorf("ORDER BY: row %d is VID %v, want %v", i, row[0], want[i][0])
				}
			}
		})
	}
}

// TestSubqueryRunsOnce: an uncorrelated subquery runs once per statement,
// however many outer rows probe it — and again per iteration of a
// recursive CTE it reads, whose rows change under it.
func TestSubqueryRunsOnce(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	const outer = 1000
	for i := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS"); i < outer; i++ {
		mustInsert(t, e, "NUMS", row(i, "n"))
	}
	for _, sql := range []string{
		"SELECT N FROM NUMS WHERE EXISTS (SELECT 1 FROM EA WHERE INV = 4)",
		"SELECT N + (SELECT MAX(INV) FROM EA) FROM NUMS",
		"SELECT N FROM NUMS WHERE N IN (SELECT INV FROM EA) OR N >= 0",
		"SELECT N FROM NUMS ORDER BY N + (SELECT MAX(INV) FROM EA)",
		"SELECT COUNT(*) FROM NUMS GROUP BY N + (SELECT MAX(INV) FROM EA) HAVING EXISTS (SELECT 1 FROM EA)",
		"SELECT N FROM NUMS WHERE N < 600 AND EXISTS (SELECT 1 FROM EA) UNION ALL SELECT N FROM NUMS WHERE N >= 600",
	} {
		r := mustQuery(t, e, sql)
		inner := 0
		for _, s := range r.Stats.Scans {
			if s.Table == "EA" {
				inner++
			}
		}
		want := strings.Count(sql, "FROM EA")
		if len(r.Data) != outer || inner != want {
			t.Errorf("%s: %d rows, %d scans of EA, want %d rows and %d scans", sql, len(r.Data), inner, outer, want)
		}
	}
	// The delta holds one row per iteration: MAX(N) follows it.
	r := mustQuery(t, e, `WITH RECURSIVE R(N) AS (SELECT 1 UNION ALL SELECT N + 1 FROM R WHERE N < 9 AND (SELECT MAX(N) FROM R) < 3)
		SELECT COUNT(*) FROM R`)
	if got := r.Data[0][0].Int(); got != 3 {
		t.Errorf("subquery over the recursive CTE's own rows: %d rows, want 3", got)
	}
}
