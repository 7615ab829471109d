package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/sqljson"
)

// TestCompileTotal: compile is the engine's one evaluator, so an
// expression means the same wherever a statement may hold it. One
// expression per sql.Expr implementation (and per built-in function) is
// evaluated over the four VA rows as a select item, and must then yield
// the same values — or fail with the same error — as a WHERE term, a
// GROUP BY key and an ORDER BY key. An expression fails only as a
// statement: negating what is not a number is NULL, as dividing by zero
// is. A form the closed dialect deleted fails in every position: a parse
// error, or an unknown function.
func TestCompileTotal(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	const name, age = "JSON_VAL(ATTR, 'name')", "JSON_VAL(ATTR, 'age')"
	cases := []struct {
		x    string
		args []any
		err  string // non-empty: every position fails with an error containing it
		null bool   // every row's value is NULL
	}{
		// ColumnRef, Literal, Param
		{x: "VID"}, {x: "7"}, {x: "'x'"}, {x: "2.5"}, {x: "TRUE"}, {x: "NULL"},
		{x: "? + VID", args: []any{10}},
		{x: "?", err: "missing parameter 1"},
		{x: "NOSUCH", err: "unknown column"},
		// Unary
		{x: "NOT (VID > 2)"}, {x: "NOT (" + age + " > 28)"}, {x: "- VID"}, {x: "- " + age}, {x: "- 2.5"},
		{x: "- " + name, null: true}, {x: "- (VID = 1)", null: true}, {x: "- LIST(VID)", null: true}, {x: "- ATTR", null: true},
		{x: "- (VID * 0.0)"}, {x: "- (VID - 2.5)"},
		// Binary
		{x: "VID * 2 + 1"}, {x: "VID - 2.5"}, {x: age + " >= 29"}, {x: age + " > 28 OR VID = 3"},
		{x: age + " > 28 AND VID < 4"}, {x: name + " LIKE '%o%'"}, {x: name + " || '!'"}, {x: "LIST(1) || VID"},
		{x: "VID <> 2"}, {x: "VID <= 2"}, {x: "VID < 2"},
		// a zero divisor, whatever it was coerced from, is NULL
		{x: "VID / 0"}, {x: "VID % 0"}, {x: "VID % 0.5"}, {x: "VID / 'abc'"}, {x: "100 / (VID - 2)"},
		{x: "7 % (VID - 2)"}, {x: "VID / 2"}, {x: "VID / 2.0"}, {x: "VID / " + name}, {x: "60 / " + age},
		// IsNull, InList
		{x: age + " IS NULL"}, {x: age + " IS NOT NULL"},
		{x: "VID IN (1, 3)"}, {x: "VID IN (1, 2.0, 'x')"}, {x: age + " NOT IN (27, NULL)"}, {x: "VID IN (" + age + " - 28, 3)", err: "is not a constant"},
		{x: "VID IN (?, ?)", args: []any{2, 4}},
		// an id list bound to the one parameter of IN (?), held as an id set however many ids it has
		{x: "VID IN (?)", args: []any{[]int64{2, 4}}}, {x: "VID NOT IN (?)", args: []any{[]int64{2, 4}}},
		{x: "VID IN (?)", args: []any{[]int64{9, 8, 7, 6, 5, 4, 3, 12, 11, 10}}}, {x: "VID IN (?)", args: []any{[]int64{}}},
		{x: "VID / 2.0 IN (?)", args: []any{[]int64{1, 2}}}, {x: age + " IN (?)", args: []any{[]int64{29}}}, {x: name + " IN (?)", args: []any{[]int64{1}}},
		{x: "VID IN (?)", args: []any{3}},
		{x: "VID = ?", args: []any{[]int64{1}}, err: "parameter 1 is an id list"},
		{x: "VID IN (?, ?)", args: []any{[]int64{1}, 2}, err: "parameter 1 is an id list"},
		// InSubquery
		{x: "VID IN (SELECT OUTV FROM EA)"}, {x: "VID NOT IN (SELECT INV FROM EA)"}, {x: age + " IN (SELECT 29)"},
		{x: "VID IN (SELECT INV, OUTV FROM EA)", err: "IN subquery must return one column"},
		// FuncCall: every built-in, called in any case, and the errors
		{x: "COALESCE(" + age + ", VID)"}, {x: "COALESCE(NULL, NULL)"}, {x: "JSON_VAL(ATTR, 'na' || 'me')"}, {x: "JSON_VAL(ATTR, 'nosuch')"},
		{x: "LIST()"}, {x: "LIST(VID, " + name + ")"}, {x: "CONTAINS(" + name + ", 'a')"}, {x: "STARTSWITH(" + name + ", 'ma')"},
		{x: "CONTAINS(" + age + ", '2')"}, {x: "IsSimplePath(LIST(VID, 1, 2))"}, {x: "ISSIMPLEPATH(LIST(" + age + ", " + name + "))"},
		{x: "list_trim(LIST(VID, 2, " + name + "), VID)"}, {x: "LIST_TRIM(LIST(VID, 2), 0 - 1)"},
		{x: "NOSUCH(VID)", err: "unknown function NOSUCH"},
		{x: "CONTAINS(" + name + ")", err: "CONTAINS does not take 1 arguments"},
		{x: "ISSIMPLEPATH(LIST(VID), 1)", err: "ISSIMPLEPATH does not take 2 arguments"},
		// Cast, Subscript
		{x: "CAST(VID AS DOUBLE)"}, {x: "CAST(" + name + " AS BIGINT)"}, {x: "CAST(" + age + " AS BIGINT)"},
		{x: "LIST(VID, 9)[0]"}, {x: "LIST(VID, 9)[0 - 1]"}, {x: "LIST(VID, 9)[VID]"},
		// Deleted from the dialect: BETWEEN, EXISTS, scalar subqueries, CASE
		// and CAST to other types do not parse ...
		{x: "VID BETWEEN 2 AND 3", err: "parse error"}, {x: age + " NOT BETWEEN 28 AND 40", err: "parse error"},
		{x: "EXISTS (SELECT 1 FROM EA WHERE INV = 4)", err: "parse error"}, {x: "NOT EXISTS (SELECT 1 FROM EA WHERE INV = 4)", err: "parse error"},
		{x: "(SELECT MAX(INV) FROM EA) - VID", err: "parse error"}, {x: "(SELECT INV FROM EA WHERE EID = 99)", err: "parse error"},
		{x: "(SELECT INV FROM EA)", err: "parse error"},
		{x: "CASE VID WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END", err: "parse error"},
		{x: "CASE " + age + " WHEN 29 THEN 1 END", err: "parse error"},
		{x: "CASE WHEN " + age + " > 28 THEN 'old' WHEN VID = 3 THEN 'none' END", err: "parse error"},
		{x: "CASE WHEN VID = 1 THEN - " + name + " ELSE 0 END", err: "parse error"},
		{x: "CAST(" + age + " AS VARCHAR)", err: "parse error"}, {x: "CAST(VID AS BOOLEAN)", err: "parse error"},
		{x: "CAST(VID AS BLOB)", err: "parse error"},
		// ... and the string, math and list built-ins are unknown functions.
		{x: "JSON_VAL(ATTR, LOWER('NAME'))", err: "unknown function LOWER"},
		{x: "LENGTH(" + name + ")", err: "unknown function LENGTH"}, {x: "LEN(LIST(VID, 2))", err: "unknown function LEN"},
		{x: "LENGTH(" + age + ")", err: "unknown function LENGTH"}, {x: "UPPER(" + name + ")", err: "unknown function UPPER"},
		{x: "LOWER('ABC')", err: "unknown function LOWER"}, {x: "UPPER()", err: "unknown function UPPER"},
		{x: "ABS(VID - 3)", err: "unknown function ABS"}, {x: "ABS(2.5 - VID)", err: "unknown function ABS"},
		{x: "ABS(" + age + ")", err: "unknown function ABS"},
		{x: "SUBSTR(" + name + ", 2)", err: "unknown function SUBSTR"}, {x: "SUBSTRING(" + name + ", 2, 2)", err: "unknown function SUBSTRING"},
		{x: "SUBSTR(" + name + ", 9)", err: "unknown function SUBSTR"}, {x: "SUBSTR(" + name + ", 2, 0 - 1)", err: "unknown function SUBSTR"},
		{x: "SUBSTR(" + name + ")", err: "unknown function SUBSTR"},
		{x: "CARDINALITY(LIST(VID, 1))", err: "unknown function CARDINALITY"}, {x: "CARDINALITY(VID)", err: "unknown function CARDINALITY"},
		{x: "MIN(VID)", err: "unknown function MIN"}, {x: "SUM(VID)", err: "unknown function SUM"},
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
			for _, row := range items.Data {
				if c.null && !row[1].IsNull() {
					t.Errorf("VID %v: %v, want NULL", row[0], row[1])
				}
			}
			// WHERE: each row passes the test for its own value.
			groups := map[string][]int64{}
			for _, row := range items.Data {
				vid, v := row[0].Int(), row[1]
				groups[v.Key()] = append(groups[v.Key()], vid)
				pred, args := "("+c.x+") IS NULL", []any(nil)
				if !v.IsNull() {
					pred, args = "("+c.x+") = ?", []any{v}
				}
				sql := fmt.Sprintf("SELECT VID FROM VA WHERE VID = %d AND %s", vid, pred)
				if r, err := query(sql, args...); err != nil {
					t.Errorf("%s with %v: %v", sql, v, err)
				} else if len(r.Data) != 1 {
					t.Errorf("%s with %v: %d rows, want the one the select list gave that value", sql, v, len(r.Data))
				}
			}
			// GROUP BY: the groups are the rows with equal values.
			grouped, err := query("SELECT LISTAGG(VID), COUNT(*) FROM VA GROUP BY " + c.x)
			if err != nil {
				t.Fatalf("GROUP BY: %v", err)
			}
			if len(grouped.Data) != len(groups) {
				t.Fatalf("GROUP BY: %d groups; the select list gave %d distinct values", len(grouped.Data), len(groups))
			}
			for _, vids := range groups {
				found := false
				for _, g := range grouped.Data {
					found = found || fmt.Sprint(g[0].List()) == fmt.Sprint(rowsOfIDs(vids)) && g[1].Int() == int64(len(vids))
				}
				if !found {
					t.Errorf("GROUP BY: no group of the rows %v in %v", vids, grouped.Data)
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

// TestNegate: unary minus negates a BIGINT or a DOUBLE, 0.0 to -0.0, and
// is NULL for every other kind.
func TestNegate(t *testing.T) {
	doc, err := sqljson.Parse(`{"a":1}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ in, want rel.Value }{
		{rel.NewInt(3), rel.NewInt(-3)}, {rel.NewInt(-7), rel.NewInt(7)}, {rel.NewFloat(2.5), rel.NewFloat(-2.5)},
		{rel.NewFloat(0), rel.NewFloat(math.Copysign(0, -1))},
		{rel.Null, rel.Null}, {rel.NewString("5"), rel.Null}, {rel.NewBool(true), rel.Null},
		{rel.NewList([]rel.Value{rel.NewInt(1)}), rel.Null}, {rel.NewJSON(&doc), rel.Null},
	} {
		got := negate(c.in)
		if got.Kind() != c.want.Kind() || !rel.Equal(got, c.want) && !got.IsNull() ||
			got.Kind() == rel.KindFloat && math.Signbit(got.Float()) != math.Signbit(c.want.Float()) {
			t.Errorf("- %s %s = %s %s, want %s %s", c.in.Kind(), c.in, got.Kind(), got, c.want.Kind(), c.want)
		}
	}
}

// TestNegatedIndexMatchesScan: an expression index whose key negates a
// VARCHAR keys a string name under NULL, as the expression evaluates, so
// every predicate read through it returns the rows a full scan returns.
func TestNegatedIndexMatchesScan(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	mustInsert(t, e, "VA", row(5, mustDoc(t, `{"name":7}`)))
	mustInsert(t, e, "VA", row(6, mustDoc(t, `{"name":2.5}`)))
	mustInsert(t, e, "VA", row(7, mustDoc(t, `{"name":true}`)))
	const neg = "- JSON_VAL(ATTR, 'name')"
	queries := []string{
		"SELECT VID FROM VA WHERE " + neg + " = -7",
		"SELECT VID FROM VA WHERE " + neg + " IN (-7, -2.5, 0)",
		"SELECT VID FROM VA WHERE " + neg + " < 0",
		"SELECT VID FROM VA WHERE " + neg + " IS NOT NULL",
	}
	var scanned []string
	for _, q := range queries {
		r := mustQuery(t, e, q)
		if r.Stats.Scans[0].Access != "full-scan" {
			t.Fatalf("%s: %s before the index exists", q, r.Stats.Scans[0].Access)
		}
		scanned = append(scanned, rowsText(r))
	}
	x, err := sql.ParseExpr(neg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("VA_NEGNAME", "VA", x); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		r := mustQuery(t, e, q)
		if access := r.Stats.Scans[0].Access; !strings.HasPrefix(access, "index-") || rowsText(r) != scanned[i] {
			t.Errorf("%s: %s gave %q, the full scan %q", q, access, rowsText(r), scanned[i])
		}
	}
	if scanned[3] != "5 6" {
		t.Errorf("negated names that are numbers: %q, want 5 6", scanned[3])
	}
}

// TestStatementErrorsAnyPlan: what can fail a statement fails it before
// any row is read — so behind a conjunct that keeps no row, over an input
// with no rows, and alike under every join strategy at one and at four
// workers — while negating a string, pushed below the join or not, is
// NULL under every one of them.
func TestStatementErrorsAnyPlan(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	const join = "SELECT V.VID, E.EID FROM VA V, EA E WHERE E.OUTV = V.VID AND "
	fails := map[string]string{
		"NOSUCH = 1":                                "unknown column",
		"V.VID = ?":                                 "missing parameter 1",
		"COUNT(*) = 1":                              "aggregate COUNT used outside aggregation context",
		"NOSUCH(V.VID) = 1":                         "unknown function NOSUCH",
		"CONTAINS(E.LBL) IS NULL":                   "CONTAINS does not take 1 arguments",
		"V.VID IN (SELECT INV, OUTV FROM EA)":       "IN subquery must return one column",
		"V.VID IN (SELECT NOSUCH FROM EA)":          "unknown column",
		"E.EID NOT IN (SELECT VID FROM VA, NOSUCH)": "unknown table NOSUCH",
		"E.INV IN (SELECT VID FROM VA WHERE ? = 1)": "missing parameter 1",
		"- JSON_VAL(V.ATTR, 'name') < 0 AND ? = 1":  "missing parameter 1",
	}
	for _, force := range []JoinStrategy{StrategyAuto, StrategyHash, StrategyNestedLoop} {
		for _, par := range []int{1, 4} {
			e.SetExecOptions(ExecOptions{Parallelism: par, ForceJoin: force})
			for _, before := range []string{"", "1 = 0 AND ", "V.VID < 0 AND "} {
				for cond, want := range fails {
					if _, err := e.Query(join + before + cond); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("force=%s par=%d %s: error %v, want one containing %q", force, par, join+before+cond, err, want)
					}
				}
				if _, err := e.Query(join+before+"E.EID IN (?)", []int64{7}); err != nil {
					t.Errorf("force=%s par=%d: an id list read as x IN (?): %v", force, par, err)
				}
				if _, err := e.Query(join+before+"E.EID = ?", []int64{7}); err == nil || !strings.Contains(err.Error(), "is an id list") {
					t.Errorf("force=%s par=%d: an id list read as x = ?: %v", force, par, err)
				}
			}
			for q, want := range map[string]string{
				join + "- JSON_VAL(V.ATTR, 'name') < 0":                        "",
				join + "(E.LBL = 'knows' OR - E.LBL < 0) AND - V.ATTR IS NULL": "2|7 4|8",
				join + "(NOT (- JSON_VAL(V.ATTR, 'name') = 0) OR E.EID > 10)":  "3|11",
			} {
				r, err := e.Query(q)
				if err != nil {
					t.Errorf("force=%s par=%d %s: %v", force, par, q, err)
				} else if got := strings.Join(sortedStrings(strings.Fields(rowsText(r))), " "); got != want {
					t.Errorf("force=%s par=%d %s: %q, want %q", force, par, q, got, want)
				}
			}
		}
	}
}

// rowsOfIDs returns ids, sorted, as the values LISTAGG lists them as.
func rowsOfIDs(ids []int64) []rel.Value {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	out := make([]rel.Value, len(ids))
	for i, id := range ids {
		out[i] = rel.NewInt(id)
	}
	return out
}

// TestSubqueryRunsOnce: an uncorrelated subquery runs once per statement,
// however many outer rows probe it.
func TestSubqueryRunsOnce(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	const outer = 1000
	for i := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS"); i < outer; i++ {
		mustInsert(t, e, "NUMS", row(i, "n"))
	}
	for _, sql := range []string{
		"SELECT N FROM NUMS WHERE 4 IN (SELECT INV FROM EA)",
		"SELECT N IN (SELECT INV FROM EA) FROM NUMS",
		"SELECT N FROM NUMS WHERE N IN (SELECT INV FROM EA) OR N >= 0",
		"SELECT N FROM NUMS ORDER BY N IN (SELECT INV FROM EA)",
		"SELECT COUNT(*) FROM NUMS GROUP BY N, N NOT IN (SELECT OUTV FROM EA)",
		"SELECT N FROM NUMS WHERE N < 600 AND 4 IN (SELECT INV FROM EA) UNION ALL SELECT N FROM NUMS WHERE N >= 600",
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
}

// TestInSubqueryProbeAllocFree: probing an IN (SELECT …) set allocates
// nothing. A column of BIGINTs — stored rows, or a DISTINCT's set as it
// stands — is an id set, which a DOUBLE with an integral value still
// matches; any other column is looked up by canonical key, built on the
// stack. NULL keeps its meaning: a NULL operand is NULL, and a NULL the
// subquery returns is no member.
func TestInSubqueryProbeAllocFree(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "I", intCol("V"))
	mustTable(t, e, "S", strCol("V"))
	for i := 0; i < 100; i++ {
		mustInsert(t, e, "I", row(i*3))
		mustInsert(t, e, "S", row(fmt.Sprint("s", i)))
	}
	mustInsert(t, e, "I", row(nil))
	mustInsert(t, e, "S", row(nil))
	sc := newScope([]colInfo{{name: "X"}})
	for _, c := range []struct {
		expr string
		x    rel.Value
		want rel.Value
	}{
		{"X IN (SELECT V FROM I)", rel.NewInt(9), rel.NewBool(true)},
		{"X IN (SELECT V FROM I)", rel.NewFloat(9), rel.NewBool(true)},
		{"X IN (SELECT V FROM I)", rel.NewFloat(9.5), rel.NewBool(false)},
		{"X IN (SELECT V FROM I)", rel.NewString("9"), rel.NewBool(false)},
		{"X IN (SELECT V FROM I)", rel.Null, rel.Null},
		{"X NOT IN (SELECT V FROM I)", rel.NewInt(10), rel.NewBool(true)},
		{"X IN (SELECT DISTINCT V FROM I WHERE V IS NOT NULL)", rel.NewFloat(297), rel.NewBool(true)},
		{"X IN (SELECT DISTINCT V FROM I WHERE V IS NOT NULL)", rel.NewInt(298), rel.NewBool(false)},
		{"X IN (SELECT V FROM S)", rel.NewString("s7"), rel.NewBool(true)},
		{"X IN (SELECT V FROM S)", rel.NewString("t7"), rel.NewBool(false)},
		{"X IN (SELECT V FROM S)", rel.NewInt(7), rel.NewBool(false)},
		{"X NOT IN (SELECT V FROM S)", rel.Null, rel.Null},
	} {
		x, err := sql.ParseExpr(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		fn := compileBound(t, e, sc, x, nil)
		in := []rel.Value{c.x}
		var got rel.Value
		if n := testing.AllocsPerRun(100, func() { got = fn(in) }); n != 0 {
			t.Errorf("%s with X = %s: %v allocations per probe, want 0", c.expr, c.x, n)
		}
		if got.Kind() != c.want.Kind() || !got.IsNull() && !rel.Equal(got, c.want) {
			t.Errorf("%s with X = %s %s: %s, want %s", c.expr, c.x.Kind(), c.x, got, c.want)
		}
	}
}

// compileBound compiles x over sc as a prepared core would, binds it to
// an execution with the given arguments — running its subqueries — and
// returns it as a function of the row.
func compileBound(t *testing.T, e *Engine, sc *scope, x sql.Expr, args []Arg) func(row []rel.Value) rel.Value {
	t.Helper()
	p := &prep{}
	fn, err := p.compile(sc, x)
	if err != nil {
		t.Fatalf("%s: %v", x.SQL(), err)
	}
	f, err := p.frame(e, &queryState{params: args})
	if err != nil {
		t.Fatalf("%s: %v", x.SQL(), err)
	}
	return func(row []rel.Value) rel.Value { return fn(f, row) }
}
