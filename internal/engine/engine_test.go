package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlgraph/internal/bench"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/sqljson"
)

// newTestEngine builds an engine with a small schema resembling the
// SQLGraph layout: a VA-like table with a JSON column, an EA-like edge
// table, and a plain numbers table.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "VA", intCol("VID"), jsonCol("ATTR"))
	mustUniqueIndex(t, e, "VA_PK", "VA", "VID")
	mustTable(t, e, "EA", intCol("EID"), intCol("INV"), intCol("OUTV"), strCol("LBL"), jsonCol("ATTR"))
	mustUniqueIndex(t, e, "EA_PK", "EA", "EID")
	mustIndex(t, e, "EA_INV", "EA", "INV")
	mustIndex(t, e, "EA_OUTV", "EA", "OUTV")
	mustTable(t, e, "NUMS", intCol("N"), strCol("LABEL"))
	return e
}

func seedGraph(t *testing.T, e *Engine) {
	t.Helper()
	// The paper's Figure 2a sample graph.
	vertices := []struct {
		id   int64
		json string
	}{
		{1, `{"name":"marko","age":29}`},
		{2, `{"name":"vadas","age":27}`},
		{3, `{"name":"lop","lang":"java"}`},
		{4, `{"name":"josh","age":32}`},
	}
	for _, v := range vertices {
		mustInsert(t, e, "VA", row(v.id, mustDoc(t, v.json)))
	}
	edges := []struct {
		eid, inv, outv int64
		lbl            string
		json           string
	}{
		{7, 1, 2, "knows", `{"weight":0.5}`},
		{8, 1, 4, "knows", `{"weight":1.0}`},
		{9, 1, 3, "created", `{"weight":0.4}`},
		{10, 4, 2, "likes", `{"weight":0.2}`},
		{11, 4, 3, "created", `{"weight":0.8}`},
	}
	for _, ed := range edges {
		mustInsert(t, e, "EA", row(ed.eid, ed.inv, ed.outv, ed.lbl, mustDoc(t, ed.json)))
	}
	for i := int64(0); i < 100; i++ {
		label := "even"
		if i%2 == 1 {
			label = "odd"
		}
		mustInsert(t, e, "NUMS", row(i, label))
	}
}

func mustDoc(t *testing.T, s string) any {
	t.Helper()
	d, err := sqljson.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustQuery(t *testing.T, e *Engine, q string, args ...any) *Rows {
	t.Helper()
	r, err := e.Query(q, args...)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	return r
}

// sameRows reports whether two results hold the same rows in the same
// order, value by value: equal kind and Compare == 0. reflect.DeepEqual
// would compare string and list addresses, not contents.
func sameRows(a, b [][]rel.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, v := range a[i] {
			if v.Kind() != b[i][j].Kind() || !rel.Equal(v, b[i][j]) {
				return false
			}
		}
	}
	return true
}

func scalarInt(t *testing.T, e *Engine, q string, args ...any) int64 {
	t.Helper()
	r := mustQuery(t, e, q, args...)
	v, err := r.Scalar()
	if err != nil {
		t.Fatalf("Scalar(%s): %v", q, err)
	}
	return v.Int()
}

func TestBasicSelect(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	r := mustQuery(t, e, "SELECT VID FROM VA ORDER BY VID")
	if len(r.Data) != 4 || r.Data[0][0].Int() != 1 || r.Data[3][0].Int() != 4 {
		t.Fatalf("rows = %v", r.Data)
	}
	if r.Columns[0] != "VID" {
		t.Fatalf("cols = %v", r.Columns)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, "SELECT 1 + 2, 'x'")
	if len(r.Data) != 1 || r.Data[0][0].Int() != 3 || r.Data[0][1].Str() != "x" {
		t.Fatalf("rows = %v", r.Data)
	}
}

func TestWhereWithIndex(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// Primary-key equality must use the unique index (observable through
	// correctness here; performance covered by benchmarks).
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM EA WHERE EID = 9"); got != 1 {
		t.Fatalf("count = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM EA WHERE INV = 1"); got != 3 {
		t.Fatalf("count INV=1: %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM EA WHERE INV = ?", 4); got != 2 {
		t.Fatalf("count INV=4: %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM EA WHERE EID IN (7, 9, 999)"); got != 2 {
		t.Fatalf("count IN: %d", got)
	}
}

func TestJSONVal(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	r := mustQuery(t, e, "SELECT VID FROM VA WHERE JSON_VAL(ATTR, 'name') = 'marko'")
	if len(r.Data) != 1 || r.Data[0][0].Int() != 1 {
		t.Fatalf("rows = %v", r.Data)
	}
	// Numeric JSON comparison.
	r = mustQuery(t, e, "SELECT VID FROM VA WHERE JSON_VAL(ATTR, 'age') > 28 ORDER BY VID")
	if len(r.Data) != 2 || r.Data[0][0].Int() != 1 || r.Data[1][0].Int() != 4 {
		t.Fatalf("rows = %v", r.Data)
	}
	// Missing key is NULL.
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'lang') IS NOT NULL"); got != 1 {
		t.Fatalf("lang count = %d", got)
	}
}

// TestJSONValOverStrings: a string column is parsed per row, and only a
// whole JSON object (or null) is a document — text after the closing
// brace makes the value NULL, as json.Unmarshal rejects it. The key may
// come from a column too, and is taken literally: a dotted or bracketed
// key names a top-level key, never a nested value. A nested object is a
// JSON value and an array a list, not Go's rendering of a map or a slice.
func TestJSONValOverStrings(t *testing.T) {
	e := newTestEngine(t)
	mustTable(t, e, "DOCS", intCol("ID"), strCol("TXT"), strCol("K"))
	mustInsert(t, e, "DOCS", row(1, `{"a":1}`, "a"), row(2, `{"a":1} x`, "a"), row(3, ` {"a":2} `, "a"),
		row(4, "[1]", "a"), row(5, "null", "a"), row(6, `{"a":{"b":9},"a.b":3}`, "a.b"), row(7, `{"zz9":4}`, "zz9"),
		row(8, `{"a":[1,"x",{"b":5}],"a[2].b":2}`, "a[2].b"))
	for _, c := range []struct{ q, want string }{
		{"SELECT ID, JSON_VAL(TXT, 'a') FROM DOCS ORDER BY ID", `1:1 2:NULL 3:2 4:NULL 5:NULL 6:{"b":9} 7:NULL 8:[1, x, {"b":5}]`},
		{"SELECT ID, JSON_VAL(TXT, K) FROM DOCS ORDER BY ID", "1:1 2:NULL 3:2 4:NULL 5:NULL 6:3 7:4 8:2"},
	} {
		var got []string
		for _, row := range mustQuery(t, e, c.q).Data {
			got = append(got, fmt.Sprintf("%d:%v", row[0].Int(), row[1]))
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s\n got %s\nwant %s", c.q, s, c.want)
		}
	}
}

func TestExpressionIndexUsedAndCorrect(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	if err := e.CreateIndex("VA_NAME", "VA", jsonVal("ATTR", "name")); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, e, "SELECT VID FROM VA WHERE JSON_VAL(ATTR, 'name') = 'josh'")
	if len(r.Data) != 1 || r.Data[0][0].Int() != 4 {
		t.Fatalf("rows = %v", r.Data)
	}
	// The index must stay correct under mutation.
	mustInsert(t, e, "VA", row(5, mustDoc(t, `{"name":"josh"}`)))
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'name') = 'josh'"); got != 2 {
		t.Fatalf("count after insert = %d", got)
	}
	mustDeleteWhere(t, e, "VA", func(r []rel.Value) bool { return r[0].Int() == 5 })
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'name') = 'josh'"); got != 1 {
		t.Fatalf("count after delete = %d", got)
	}
}

func TestLike(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'name') LIKE 'm%'"); got != 1 {
		t.Fatalf("m%% = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'name') LIKE '%o%'"); got != 3 {
		t.Fatalf("%%o%% = %d", got) // marko, lop, josh
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'name') LIKE '_op'"); got != 1 {
		t.Fatalf("_op = %d", got)
	}
}

func TestInnerJoin(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// Names of vertices marko knows.
	r := mustQuery(t, e, `SELECT JSON_VAL(v.ATTR, 'name') AS NAME
		FROM EA p, VA v
		WHERE p.INV = 1 AND p.LBL = 'knows' AND v.VID = p.OUTV
		ORDER BY NAME`)
	if len(r.Data) != 2 || r.Data[0][0].Str() != "josh" || r.Data[1][0].Str() != "vadas" {
		t.Fatalf("rows = %v", r.Data)
	}
}

func TestLeftJoin(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// Every vertex with its outgoing edge count; vertices 2 and 3 have
	// none and must still appear.
	r := mustQuery(t, e, `SELECT v.VID, COUNT(p.EID) AS C
		FROM VA v LEFT OUTER JOIN EA p ON p.INV = v.VID
		GROUP BY v.VID ORDER BY v.VID`)
	if len(r.Data) != 4 {
		t.Fatalf("rows = %v", r.Data)
	}
	wantCounts := map[int64]int64{1: 3, 2: 0, 3: 0, 4: 2}
	for _, row := range r.Data {
		if row[1].Int() != wantCounts[row[0].Int()] {
			t.Fatalf("vid %d count = %d, want %d", row[0].Int(), row[1].Int(), wantCounts[row[0].Int()])
		}
	}
}

func TestLeftJoinCoalescePattern(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// The paper's OSA pattern: COALESCE(s.val, p.val).
	mustTable(t, e, "OSA", intCol("VALID"), intCol("EID"), intCol("VAL"))
	mustIndex(t, e, "OSA_VALID", "OSA", "VALID")
	mustInsert(t, e, "OSA", row(101, 7, 2), row(101, 8, 4))
	r := mustQuery(t, e, `WITH T0 AS (SELECT 101 AS VAL FROM VA WHERE VID = 1 UNION ALL SELECT 3 FROM VA WHERE VID = 1)
		SELECT COALESCE(S.VAL, P.VAL) AS VAL FROM T0 P LEFT OUTER JOIN OSA S ON P.VAL = S.VALID ORDER BY VAL`)
	// 101 expands to {2,4}; 3 passes through.
	if len(r.Data) != 3 || r.Data[0][0].Int() != 2 || r.Data[1][0].Int() != 3 || r.Data[2][0].Int() != 4 {
		t.Fatalf("rows = %v", r.Data)
	}
}

func TestTableValuesLateral(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	r := mustQuery(t, e, `SELECT T.VAL FROM EA P, TABLE(VALUES(P.INV), (P.OUTV)) AS T(VAL)
		WHERE P.EID = 7 ORDER BY T.VAL`)
	if len(r.Data) != 2 || r.Data[0][0].Int() != 1 || r.Data[1][0].Int() != 2 {
		t.Fatalf("rows = %v", r.Data)
	}
	// IS NOT NULL filter inline (paper template).
	mustInsert(t, e, "EA", row(99, 5, nil, "x", mustDoc(t, `{}`)))
	r = mustQuery(t, e, `SELECT T.VAL FROM EA P, TABLE(VALUES(P.INV), (P.OUTV)) AS T(VAL)
		WHERE P.EID = 99 AND T.VAL IS NOT NULL`)
	if len(r.Data) != 1 || r.Data[0][0].Int() != 5 {
		t.Fatalf("rows = %v", r.Data)
	}
}

func TestCTEAndSetOps(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	if got := scalarInt(t, e, `WITH A AS (SELECT N FROM NUMS WHERE N < 10),
		B AS (SELECT N FROM NUMS WHERE N >= 5 AND N < 15),
		U AS (SELECT N FROM A UNION ALL SELECT N FROM B),
		D AS (SELECT DISTINCT N FROM U)
		SELECT COUNT(*) FROM D`); got != 15 {
		t.Fatalf("distinct union all = %d", got)
	}
	if got := scalarInt(t, e, `SELECT COUNT(*) FROM NUMS WHERE N < 10 AND N IN (SELECT N FROM NUMS WHERE N >= 5)`); got != 5 {
		t.Fatalf("in subquery = %d", got)
	}
	if got := scalarInt(t, e, `SELECT COUNT(*) FROM NUMS WHERE N < 10 AND N NOT IN (SELECT N FROM NUMS WHERE N >= 5)`); got != 5 {
		t.Fatalf("not in subquery = %d", got)
	}
	if got := scalarInt(t, e, `WITH X AS (
		SELECT N FROM NUMS WHERE N < 3 UNION ALL SELECT N FROM NUMS WHERE N < 3) SELECT COUNT(*) FROM X`); got != 6 {
		t.Fatalf("union all = %d", got)
	}
}

func TestAggregates(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	r := mustQuery(t, e, "SELECT LABEL, COUNT(*) AS C, LISTAGG(N) AS L FROM NUMS GROUP BY LABEL ORDER BY LABEL")
	if len(r.Data) != 2 {
		t.Fatalf("groups = %v", r.Data)
	}
	even := r.Data[0]
	if list := even[2].List(); even[0].Str() != "even" || even[1].Int() != 50 || len(list) != 50 || list[0].Int() != 0 || list[49].Int() != 98 {
		t.Fatalf("even = %v", even)
	}
	// Zero-row aggregate: one group, a count of 0 and an empty list.
	r = mustQuery(t, e, "SELECT COUNT(*), LISTAGG(N) FROM NUMS WHERE N > 1000")
	if len(r.Data) != 1 || r.Data[0][0].Int() != 0 || len(r.Data[0][1].List()) != 0 {
		t.Fatalf("empty aggregate = %v", r.Data)
	}
	// COUNT(x) and LISTAGG(x) skip NULL (vertex 3 has no age).
	r = mustQuery(t, e, "SELECT COUNT(JSON_VAL(ATTR, 'age')), LISTAGG(JSON_VAL(ATTR, 'age')) FROM VA")
	if r.Data[0][0].Int() != 3 || fmt.Sprint(r.Data[0][1].List()) != "[27 29 32]" {
		t.Fatalf("aggregates over NULL = %v", r.Data)
	}
	// Distinct groups counted.
	if got := scalarInt(t, e, "WITH D AS (SELECT DISTINCT LABEL FROM NUMS) SELECT COUNT(*) FROM D"); got != 2 {
		t.Fatalf("count of distinct = %d", got)
	}
}

func TestDistinctOrderLimit(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	r := mustQuery(t, e, "SELECT DISTINCT LABEL FROM NUMS ORDER BY LABEL")
	if len(r.Data) != 2 || r.Data[0][0].Str() != "even" {
		t.Fatalf("distinct = %v", r.Data)
	}
	r = mustQuery(t, e, "SELECT N FROM NUMS ORDER BY - N LIMIT 3 OFFSET 2")
	if len(r.Data) != 3 || r.Data[0][0].Int() != 97 || r.Data[2][0].Int() != 95 {
		t.Fatalf("limit/offset = %v", r.Data)
	}
	// Positional ORDER BY.
	r = mustQuery(t, e, "SELECT N FROM NUMS ORDER BY 1 LIMIT 1")
	if r.Data[0][0].Int() != 0 {
		t.Fatalf("positional order = %v", r.Data)
	}
}

func TestInSubquery(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE VID IN (SELECT OUTV FROM EA WHERE INV = 1)"); got != 3 {
		t.Fatalf("in subquery = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE VID NOT IN (SELECT OUTV FROM EA WHERE INV = 1)"); got != 1 {
		t.Fatalf("not in subquery = %d", got)
	}
}

func TestPathListOperations(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// LIST() builds a path; || appends; [i] indexes.
	r := mustQuery(t, e, "SELECT (LIST(VID) || VID)[1] FROM VA WHERE VID = 2")
	if r.Data[0][0].Int() != 2 {
		t.Fatalf("path append/index = %v", r.Data)
	}
	// Negative index counts from the end.
	r = mustQuery(t, e, "SELECT LIST(10, 20, 30)[-1]")
	if r.Data[0][0].Int() != 30 {
		t.Fatalf("negative index = %v", r.Data)
	}
}

// TestUDF: the paper's UDFs (§4.3) are built-ins of every engine, called
// by name in any case; a name no built-in has is an error.
func TestUDF(t *testing.T) {
	e := newTestEngine(t)
	r := mustQuery(t, e, "SELECT IsSimplePath(LIST(1, 2, 3)), ISSIMPLEPATH(LIST(1, 2, 1)), LIST_TRIM(LIST(1, 2, 3), 2), LIST_TRIM(LIST(1, 2), 5)")
	if got := rowsText(r); got != "1|0|[1]|[]" {
		t.Fatalf("udf = %s", got)
	}
	if _, err := e.Query("SELECT NO_SUCH_FN(1)"); err == nil {
		t.Fatal("unknown function accepted")
	}
}

// TestUpdateDelete: a query sees what a committed transaction updated
// and deleted.
func TestUpdateDelete(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	big := func(r []rel.Value) bool { return r[0].Int() >= 90 }
	if n := mustUpdateWhere(t, e, "NUMS", big, func(r []rel.Value) { r[1] = rel.NewString("big") }); n != 10 {
		t.Fatalf("update = %d", n)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE LABEL = 'big'"); got != 10 {
		t.Fatalf("post-update = %d", got)
	}
	if n := mustDeleteWhere(t, e, "NUMS", big); n != 10 {
		t.Fatalf("delete = %d", n)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS"); got != 90 {
		t.Fatalf("post-delete = %d", got)
	}
}

func TestUniquePrimaryKeyViolation(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// The duplicate comes second: the first row must roll back with it.
	if err := insertRows(e, "VA", row(5, mustDoc(t, `{}`)), row(1, mustDoc(t, `{}`))); err == nil {
		t.Fatal("duplicate PK accepted")
	}
	// Table must be unchanged.
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA"); got != 4 {
		t.Fatalf("count after failed insert = %d", got)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// lang is missing for most docs: JSON_VAL returns NULL, and NULL
	// comparisons must not match (nor must NOT of NULL).
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'lang') = 'java'"); got != 1 {
		t.Fatalf("eq = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE NOT (JSON_VAL(ATTR, 'lang') = 'java')"); got != 0 {
		t.Fatalf("not eq over null = %d", got)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE JSON_VAL(ATTR, 'lang') <> 'java'"); got != 0 {
		t.Fatalf("neq = %d", got)
	}
}

func TestQueryErrors(t *testing.T) {
	e := newTestEngine(t)
	bad := []string{
		"SELECT VID FROM MISSING",
		"SELECT BAD_COL FROM VA",
		"SELECT V.VID FROM VA",                                  // unknown alias
		"SELECT VID FROM VA WHERE X = 1",                        // unknown column
		"SELECT VID FROM VA UNION ALL SELECT VID, ATTR FROM VA", // arity
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Fatalf("Query(%q) succeeded, want error", q)
		}
	}
	if _, err := e.Query("INSERT INTO NUMS VALUES (1, 'x')"); err == nil {
		t.Fatal("Query of INSERT accepted")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := insertRows(e, "NUMS", row(1000+w*100+i, "conc")); err != nil {
					errs <- err
					return
				}
				if _, err := e.Query("SELECT COUNT(*) FROM NUMS WHERE LABEL = 'conc'"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := scalarInt(t, e, "SELECT COUNT(*) FROM NUMS WHERE LABEL = 'conc'"); got != 200 {
		t.Fatalf("concurrent inserts = %d", got)
	}
}

// mustSelect parses a SELECT once, for tests that execute it repeatedly.
func mustSelect(t *testing.T, text string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sql.SelectStmt)
}

func TestPreparedStatement(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	sel := mustSelect(t, "SELECT COUNT(*) FROM EA WHERE INV = ?")
	for want, inv := range map[int64]int64{3: 1, 2: 4, 0: 2} {
		r, err := e.QueryStmtAt(sel, rel.Latest, []Arg{{Val: rel.NewInt(inv)}})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := r.Scalar()
		if v.Int() != want {
			t.Fatalf("prepared INV=%d -> %d, want %d", inv, v.Int(), want)
		}
	}
}

func TestIOSimCountsMisses(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	sim := bench.NewIOSim(2, 10, 0)
	e.SetIOSim(sim)
	mustQuery(t, e, "SELECT COUNT(*) FROM NUMS")
	first := sim.Misses()
	if first == 0 {
		t.Fatal("expected cold-cache misses")
	}
	// A tiny pool keeps missing; a large pool stops missing.
	e.SetIOSim(bench.NewIOSim(1000, 10, 0))
	sim2 := bench.NewIOSim(1000, 10, 0)
	e.SetIOSim(sim2)
	mustQuery(t, e, "SELECT COUNT(*) FROM NUMS")
	warm := sim2.Misses()
	mustQuery(t, e, "SELECT COUNT(*) FROM NUMS")
	if sim2.Misses() != warm {
		t.Fatalf("warm cache still missing: %d -> %d", warm, sim2.Misses())
	}
}

func TestFigure7StyleQuery(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)
	// A hand-built analogue of the paper's Figure 7 translation against
	// the EA table: count distinct vertices adjacent to vertices named
	// 'marko'.
	q := `WITH TEMP_1 AS (
		SELECT VID AS VAL FROM VA WHERE JSON_VAL(ATTR, 'name') = 'marko'
	), OUTS AS (
		SELECT P.OUTV AS VAL FROM TEMP_1 V, EA P WHERE P.INV = V.VAL
	), INS AS (
		SELECT P.INV AS VAL FROM TEMP_1 V, EA P WHERE P.OUTV = V.VAL
	), BOTH_DIRS AS (
		SELECT VAL FROM OUTS UNION ALL SELECT VAL FROM INS
	), DEDUP AS (
		SELECT DISTINCT VAL FROM BOTH_DIRS
	) SELECT COUNT(*) FROM DEDUP`
	if got := scalarInt(t, e, q); got != 3 {
		t.Fatalf("figure-7 analogue = %d, want 3", got)
	}
}

func TestManyRowsJoinPerformanceSanity(t *testing.T) {
	// Not a benchmark, but guards against accidental O(n^2) joins: an
	// indexed join over 20k rows must complete quickly.
	if testing.Short() {
		t.Skip("short mode")
	}
	e := newTestEngine(t)
	rows := make([][]any, 20000)
	for i := range rows {
		rows[i] = row(i, i%1000, (i+1)%1000, "e", nil)
	}
	mustInsert(t, e, "EA", rows...)
	got := scalarInt(t, e, `SELECT COUNT(*) FROM EA A, EA B WHERE B.INV = A.OUTV AND A.EID < 100`)
	if got == 0 {
		t.Fatal("join returned nothing")
	}
}
