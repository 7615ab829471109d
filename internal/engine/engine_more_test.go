package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqlgraph/internal/bench"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

func TestArithmetic(t *testing.T) {
	e := newTestEngine(t)
	cases := map[string]any{
		"SELECT 7 + 3":      int64(10),
		"SELECT 7 - 3":      int64(4),
		"SELECT 7 * 3":      int64(21),
		"SELECT 7 / 2":      int64(3),
		"SELECT 7 % 3":      int64(1),
		"SELECT 7.0 / 2":    3.5,
		"SELECT 1 + 2.5":    3.5,
		"SELECT -(3 + 4)":   int64(-7),
		"SELECT - 2.5":      -2.5,
		"SELECT 'a' || 'b'": "ab",
	}
	for q, want := range cases {
		r := mustQuery(t, e, q)
		got := r.Data[0][0]
		switch w := want.(type) {
		case int64:
			if got.Int() != w {
				t.Fatalf("%s = %v, want %d", q, got, w)
			}
		case float64:
			if got.Float() != w {
				t.Fatalf("%s = %v, want %g", q, got, w)
			}
		case string:
			if got.Str() != w {
				t.Fatalf("%s = %v, want %q", q, got, w)
			}
		}
	}
	// A zero divisor is NULL, whatever it was coerced from.
	for _, q := range []string{"SELECT 1 / 0", "SELECT 1 % 0", "SELECT 1.0 / 0", "SELECT 1 % 0.5", "SELECT 1 / 'abc'"} {
		if r := mustQuery(t, e, q); !r.Data[0][0].IsNull() {
			t.Fatalf("%s = %v, want NULL", q, r.Data[0][0])
		}
	}
}

func TestNullPropagation(t *testing.T) {
	e := newTestEngine(t)
	for _, q := range []string{
		"SELECT NULL + 1", "SELECT 1 < NULL", "SELECT NULL || 'x'",
		"SELECT NOT NULL", "SELECT - NULL", "SELECT NULL LIKE 'a%'",
	} {
		r := mustQuery(t, e, q)
		if !r.Data[0][0].IsNull() {
			t.Fatalf("%s = %v, want NULL", q, r.Data[0][0])
		}
	}
	// COALESCE skips nulls.
	r := mustQuery(t, e, "SELECT COALESCE(NULL, NULL, 5)")
	if r.Data[0][0].Int() != 5 {
		t.Fatalf("coalesce = %v", r.Data[0][0])
	}
}

// TestScalarFunctions: the built-ins are the functions the templates
// call; the string and math functions no emitter calls are unknown.
func TestScalarFunctions(t *testing.T) {
	e := newTestEngine(t)
	cases := map[string]string{
		"SELECT LIST(1, 'a', 2.5)":                      "[1, a, 2.5]",
		"SELECT CONTAINS('hello', 'ell')":               "true",
		"SELECT STARTSWITH('hello', 'el')":              "false",
		"SELECT JSON_VAL('{\"a\": {\"b\": 7}}', 'a.b')": "7",
		"SELECT COALESCE(NULL, 5, 6)":                   "5",
	}
	for q, want := range cases {
		if got := mustQuery(t, e, q).Data[0][0].String(); got != want {
			t.Fatalf("%s = %q, want %q", q, got, want)
		}
	}
	for _, fn := range []string{"UPPER('abC')", "LOWER('AbC')", "SUBSTR('hello', 2)", "SUBSTRING('hello', 2, 3)",
		"LENGTH('abcd')", "LEN('abcd')", "ABS(-7)", "CARDINALITY(LIST(1))", "MIN(1)", "MAX(1)", "SUM(1)", "AVG(1)"} {
		name := fn[:strings.IndexByte(fn, '(')]
		if _, err := e.Query("SELECT " + fn); err == nil || !strings.Contains(err.Error(), "engine: unknown function "+name) {
			t.Fatalf("SELECT %s: error %v, want unknown function %s", fn, err, name)
		}
	}
}

func TestCastBehaviors(t *testing.T) {
	e := newTestEngine(t)
	if v := mustQuery(t, e, "SELECT CAST('42' AS BIGINT)").Data[0][0]; v.Int() != 42 || v.Kind() != rel.KindInt {
		t.Fatalf("cast to bigint = %v", v)
	}
	if v := mustQuery(t, e, "SELECT CAST(3.9 AS BIGINT)").Data[0][0]; v.Int() != 3 {
		t.Fatalf("cast float = %v", v)
	}
	if v := mustQuery(t, e, "SELECT CAST('2.5' AS DOUBLE)").Data[0][0]; v.Float() != 2.5 || v.Kind() != rel.KindFloat {
		t.Fatalf("cast to double = %v", v)
	}
	if v := mustQuery(t, e, "SELECT CAST(3 AS DOUBLE)").Data[0][0]; v.Float() != 3 || v.Kind() != rel.KindFloat {
		t.Fatalf("cast int to double = %v", v)
	}
	if v := mustQuery(t, e, "SELECT CAST(NULL AS BIGINT)").Data[0][0]; !v.IsNull() {
		t.Fatalf("cast null = %v", v)
	}
	// BIGINT and DOUBLE are the two targets (the figure code's).
	for _, typ := range []string{"VARCHAR", "BOOLEAN", "BLOB", "INT"} {
		if _, err := e.Query("SELECT CAST(1 AS " + typ + ")"); err == nil || !strings.Contains(err.Error(), "parse error") {
			t.Fatalf("cast to %s: error %v, want a parse error", typ, err)
		}
	}
}

func TestBetweenAndIn(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// A range is two comparisons (interval's template); BETWEEN is not in
	// the dialect.
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N >= 10 AND N < 20"); got != 10 {
		t.Fatalf("range = %d", got)
	}
	if _, err := e.Query("SELECT COUNT(*) FROM NUMS WHERE N BETWEEN 10 AND 19"); err == nil {
		t.Fatal("BETWEEN accepted")
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N NOT IN (1, 2, 3)"); got != 97 {
		t.Fatalf("not in = %d", got)
	}
	// IN with NULL: no match but not an error; NOT IN with NULL matches
	// nothing.
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N IN (1, NULL)"); got != 1 {
		t.Fatalf("in with null = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N NOT IN (1, NULL)"); got != 0 {
		t.Fatalf("not in with null = %d", got)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	r := mustQuery(t, e, "SELECT LABEL, N FROM NUMS ORDER BY LABEL, - N LIMIT 2")
	if r.Data[0][0].Str() != "even" || r.Data[0][1].Int() != 98 {
		t.Fatalf("row 0 = %v", r.Data[0])
	}
	if r.Data[1][1].Int() != 96 {
		t.Fatalf("row 1 = %v", r.Data[1])
	}
}

func TestGroupByExpression(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	r := mustQuery(t, e, "SELECT N % 10 AS D, COUNT(*) AS C FROM NUMS GROUP BY N % 10 ORDER BY D")
	if len(r.Data) != 10 {
		t.Fatalf("groups = %d", len(r.Data))
	}
	for _, row := range r.Data {
		if row[1].Int() != 10 {
			t.Fatalf("group %v count = %d", row[0], row[1].Int())
		}
	}
}

func TestLimitOffsetEdgeCases(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	if got := len(mustQuery(t, e, "SELECT N FROM NUMS LIMIT 0").Data); got != 0 {
		t.Fatalf("limit 0 = %d rows", got)
	}
	if got := len(mustQuery(t, e, "SELECT N FROM NUMS LIMIT 5 OFFSET 98").Data); got != 2 {
		t.Fatalf("offset past end = %d rows", got)
	}
	if got := len(mustQuery(t, e, "SELECT N FROM NUMS OFFSET 200").Data); got != 0 {
		t.Fatalf("offset beyond = %d rows", got)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	e := newTestEngine(t)
	num := &sql.ColumnRef{Column: "N"}
	if err := e.CreateIndex("IX", "MISSING", num); err == nil {
		t.Fatal("index on missing table accepted")
	}
	if err := e.CreateIndex("IX", "NUMS", &sql.ColumnRef{Column: "NOPE"}); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if err := e.CreateIndex("IX", "NUMS"); err == nil {
		t.Fatal("index without a key accepted")
	}
	sub, err := sql.ParseExpr("N IN (SELECT 1)")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("IX", "NUMS", sub); err == nil {
		t.Fatal("subquery index expression accepted")
	}
	if err := e.CreateIndex("IX", "NUMS", num); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("IX", "NUMS", num); err == nil {
		t.Fatal("duplicate index name accepted")
	}
}

// TestDeleteAll: COUNT(*) over a table whose every row is deleted is one
// row holding 0.
func TestDeleteAll(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	if n := mustDeleteWhere(t, e, "NUMS", func([]rel.Value) bool { return true }); n != 100 {
		t.Fatalf("delete all = %d", n)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS"); got != 0 {
		t.Fatalf("count = %d", got)
	}
}

func TestSetOpArityMismatch(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	if _, err := e.Query("SELECT N FROM NUMS UNION ALL SELECT N, LABEL FROM NUMS"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestCTEShadowsBaseTable(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// A CTE named NUMS shadows the base table within the statement.
	if got := scalarInt(t, e, "WITH NUMS AS (SELECT 1 AS N) SELECT COUNT(*) FROM NUMS"); got != 1 {
		t.Fatalf("shadowed count = %d", got)
	}
	// And the base table is intact afterwards.
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS"); got != 100 {
		t.Fatalf("base count = %d", got)
	}
}

func TestRangeScanOnIndex(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	mustIndex(t, e, "NUMS_N", "NUMS", "N")
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N > 89"); got != 10 {
		t.Fatalf("range > = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N <= 9"); got != 10 {
		t.Fatalf("range <= = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE 50 < N"); got != 49 {
		t.Fatalf("flipped range = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N >= 10 AND N < 20"); got != 10 {
		t.Fatalf("two-sided range via index = %d", got)
	}
}

func TestLikePatterns(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__l", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%b%c", true},
	}
	for _, c := range cases {
		q := "SELECT '" + c.s + "' LIKE '" + c.p + "'"
		r := mustQuery(t, e, q)
		if r.Data[0][0].Bool() != c.want {
			t.Fatalf("%s = %v, want %v", q, r.Data[0][0], c.want)
		}
	}
}

func TestIOSimPenaltyChargesTime(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	e.SetIOSim(bench.NewIOSim(1, 1, 0))
	defer e.SetIOSim(nil)
	// With zero penalty this is just accounting; the query still works.
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS"); got != 100 {
		t.Fatalf("count under iosim = %d", got)
	}
}

func TestSubqueryMemoization(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// The IN-subquery is evaluated once even though it is probed per row.
	got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE N IN (SELECT N FROM NUMS WHERE LABEL = 'even')")
	if got != 50 {
		t.Fatalf("memoized in = %d", got)
	}
}

// TestIDListParam: x IN (?) bound to an id list reads like the list written
// out — same rows, same index access path, one probe per id — for a short
// list and for one past the hash-set threshold, and numbered parameters
// let one argument be read twice.
func TestIDListParam(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	for _, ids := range [][]int64{{1, 3}, {4}, {99}, {12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2}} {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprint(id)
		}
		for _, q := range []string{
			"SELECT VID FROM VA WHERE VID IN (%s)",
			"SELECT P.OUTV FROM VA V, EA P WHERE P.INV = V.VID AND V.VID IN (%s) AND P.LBL <> 'likes'",
			"SELECT EID FROM EA WHERE INV NOT IN (%s)",
		} {
			lit, err := e.Query(fmt.Sprintf(q, strings.Join(parts, ", ")))
			if err != nil {
				t.Fatal(err)
			}
			par, err := e.Query(fmt.Sprintf(q, "?"), ids)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(lit.Data, par.Data) {
				t.Fatalf("%s with %v: %v, written out: %v", q, ids, par.Data, lit.Data)
			}
			if len(lit.Stats.Scans) == 0 || !reflect.DeepEqual(scanShapes(lit), scanShapes(par)) {
				t.Fatalf("%s with %v: scans %v, written out: %v", q, ids, scanShapes(par), scanShapes(lit))
			}
		}
	}
	r, err := e.Query("SELECT VID FROM VA WHERE VID IN (?1) AND VID + 0 IN (?1) AND VID < ?2", []int64{1, 2, 4}, 4)
	if err != nil || len(r.Data) != 2 {
		t.Fatalf("numbered parameters: %v, %v", r, err)
	}
	if r.Stats.Scans[0].Access != "index-in" || r.Stats.Scans[0].RowsIn != 3 {
		t.Fatalf("IN (?) over the primary key: %+v, want 3 rows probed through the index", r.Stats.Scans[0])
	}
}

func scanShapes(r *Rows) []string {
	var out []string
	for _, s := range r.Stats.Scans {
		out = append(out, fmt.Sprintf("%s %s in=%d out=%d", s.Table, s.Access, s.RowsIn, s.RowsOut))
	}
	return out
}
