package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/sqljson"
)

// scanRows is the row count of newScanEngine's table D: nine morsels and
// some, so a pipe that starts at its scan runs on several workers.
const scanRows = 9*morselRows + 37

// scanDoc is row i's attribute document: k cycles through 0..6, s through
// thirteen strings, f is a number — a BIGINT where it is integral, as the
// document parser keeps it — and is missing on every eleventh row; grp is
// "a" or "b", "c" from the fifth morsel on, "late" only in the ninth and
// tenth, and missing on every thirteenth row.
func scanDoc(i int) *sqljson.Doc {
	m := map[string]any{"k": int64(i % 7), "s": fmt.Sprintf("s%d", i%13)}
	if i%11 != 0 {
		m["f"] = float64(i%50) / 4
	}
	grp := []string{"a", "b"}[i%2]
	if i >= 4*morselRows && i%5 == 2 {
		grp = "c"
	}
	if i >= 8*morselRows && i%9 == 0 {
		grp = "late"
	}
	if i%13 != 0 {
		m["grp"] = grp
	}
	return sqljson.FromMap(m)
}

// newScanEngine builds D(ID, G, ATTR) with rows rows (G = ID mod 7), an
// indexed X(VID, V) with two rows for every third id of D, the unindexed
// H(K, W) with one row per value of G, and M(B), two rows.
func newScanEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "D", intCol("ID"), intCol("G"), jsonCol("ATTR"))
	mustTable(t, e, "X", intCol("VID"), intCol("V"))
	mustIndex(t, e, "X_VID", "X", "VID")
	mustTable(t, e, "H", intCol("K"), strCol("W"))
	mustTable(t, e, "M", intCol("B"))
	mustInsert(t, e, "H", row(0, "w0"), row(1, "w1"), row(2, "w2"), row(3, "w3"), row(4, "w4"), row(5, "w5"), row(6, "w6"))
	mustInsert(t, e, "M", row(2), row(5))
	for i := 0; i < rows; i++ {
		mustInsert(t, e, "D", row(i, i%7, scanDoc(i)))
		if i%3 == 0 {
			mustInsert(t, e, "X", row(i, 10*i), row(i, 10*i+1))
		}
	}
	return e
}

// scanPipeShapes are statements over D whose pipes start at D's scan, with
// {T} where a statement reads table T.
var scanPipeShapes = []struct{ name, sql string }{
	{name: "filter", sql: "SELECT ID, G, ATTR FROM {D} WHERE G % 3 = 1 AND JSON_VAL(ATTR, 'k') >= 2"},
	{name: "json-projection", sql: "SELECT ID, JSON_VAL(ATTR, 's') AS S, JSON_VAL(ATTR, 'f') AS F FROM {D} WHERE ID >= 0"},
	{name: "count", sql: "SELECT COUNT(*) FROM {D} WHERE JSON_VAL(ATTR, 'k') <> 3"},
	{name: "group-by-late", sql: "SELECT JSON_VAL(ATTR, 'grp') AS GRP, ID, COUNT(*), COUNT(JSON_VAL(ATTR, 'f')), LISTAGG(JSON_VAL(ATTR, 'f')) FROM {D} GROUP BY JSON_VAL(ATTR, 'grp')"},
	{name: "order-limit", sql: "SELECT ID, JSON_VAL(ATTR, 'f') AS F FROM {D} WHERE JSON_VAL(ATTR, 'f') IS NOT NULL ORDER BY - F, ID LIMIT 17 OFFSET 3"},
	{name: "distinct-ids", sql: "SELECT DISTINCT G FROM {D} WHERE ID % 2 = 0"},
	{name: "distinct-strings", sql: "SELECT DISTINCT JSON_VAL(ATTR, 's') FROM {D}"},
	{name: "index-nl", sql: "SELECT A.ID, X.V FROM {D} A, X WHERE X.VID = A.ID AND A.G <> 2"},
	{name: "hash-build", sql: "SELECT A.ID, H.W FROM {D} A, {H} H WHERE H.K = A.G AND H.W <> 'w3'"},
	{name: "hash-build-empty", sql: "SELECT A.ID, H.W FROM {D} A, {H} H WHERE H.K = A.G AND H.W = 'none'"},
	{name: "index-nl-then-hash", sql: "SELECT A.ID, X.V, H.W FROM {D} A, X, {H} H WHERE X.VID = A.ID AND H.K = A.G"},
	{name: "nested-loop-inner", sql: "SELECT A.ID, M.B FROM {D} A, {M} M WHERE A.G < M.B AND A.ID % 4 = 1"},
	{name: "subquery-filter", sql: "SELECT ID FROM {D} WHERE G IN (SELECT K FROM H WHERE W <> 'w1') AND JSON_VAL(ATTR, 'k') = 4"},
}

// scanSQL renders a shape with each {T} read by a scan that heads a pipe
// or, stored, read from a CTE of T's rows that two readers share, so the
// scan is stored before any pipe reads it — what the executor did before
// scans were pipe heads.
func scanSQL(shape string, stored bool) string {
	var ctes, reads []string
	for _, t := range []struct{ name, cols string }{{"D", "ID, G, ATTR"}, {"H", "K, W"}, {"M", "B"}} {
		ref := "{" + t.name + "}"
		if !strings.Contains(shape, ref) {
			continue
		}
		if !stored {
			shape = strings.ReplaceAll(shape, ref, t.name)
			continue
		}
		ctes = append(ctes, fmt.Sprintf("S%s AS (SELECT %s FROM %s)", t.name, t.cols, t.name))
		reads = append(reads, "SELECT COUNT(*) AS N FROM S"+t.name)
		shape = strings.ReplaceAll(shape, ref, "S"+t.name)
	}
	if !stored {
		return shape
	}
	return "WITH " + strings.Join(ctes, ", ") + ", ZZ AS (" + strings.Join(reads, " UNION ALL ") + ") " + shape
}

// kindText renders a result kind by kind, so a BIGINT 1 and a DOUBLE 1.0
// do not read alike, list elements included.
func kindText(rows *Rows) string {
	var render func(v rel.Value) string
	render = func(v rel.Value) string {
		if v.Kind() != rel.KindList {
			return v.Kind().String() + ":" + v.String()
		}
		var parts []string
		for _, e := range v.List() {
			parts = append(parts, render(e))
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	var out []string
	for _, row := range rows.Data {
		var cells []string
		for _, v := range row {
			cells = append(cells, render(v))
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return strings.Join(out, " ")
}

// dScan returns the statistics of the statement's scan of D and the run it
// headed, if any.
func dScan(t *testing.T, st *ExecStats) (*ScanStat, *PipelineStat) {
	t.Helper()
	for i := range st.Scans {
		if st.Scans[i].Table != "D" {
			continue
		}
		for j := range st.Pipelines {
			if st.Pipelines[j].Scan == i {
				return &st.Scans[i], &st.Pipelines[j]
			}
		}
		return &st.Scans[i], nil
	}
	t.Fatalf("no scan of D:\n%s", st.String())
	return nil, nil
}

// checkScanShapes runs every shape as written and with its scans stored,
// at Parallelism 1, 2 and 4: the rows, in order, must be the same, and
// the scan of D must head a run, on as many workers as it is offered when
// the table holds enough rows.
func checkScanShapes(t *testing.T, e *Engine, live int) {
	t.Helper()
	for _, shape := range scanPipeShapes {
		var first string
		for _, par := range []int{1, 2, 4} {
			fused := queryForced(t, e, StrategyAuto, par, scanSQL(shape.sql, false))
			stored := queryForced(t, e, StrategyAuto, par, scanSQL(shape.sql, true))
			got := kindText(fused)
			if want := kindText(stored); got != want {
				t.Fatalf("%s par=%d: scan-rooted rows differ from stored-scan rows\n got %.300s\nwant %.300s", shape.name, par, got, want)
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Fatalf("%s: par=%d rows differ from par=1", shape.name, par)
			}
			sc, run := dScan(t, &fused.Stats)
			if run == nil || sc.Access != "full-scan" {
				t.Fatalf("%s par=%d: the scan of D headed no run\n%s", shape.name, par, fused.Stats.String())
			}
			wantWorkers := par
			if live < parallelMinRows {
				wantWorkers = 1
			}
			if sc.Workers != wantWorkers || sc.RowsIn != live || run.RowsIn != live {
				t.Fatalf("%s par=%d: scan of D on %d workers over %d rows (run from %d), want %d workers over %d\n%s",
					shape.name, par, sc.Workers, sc.RowsIn, run.RowsIn, wantWorkers, live, fused.Stats.String())
			}
			if storedScan, _ := dScan(t, &stored.Stats); storedScan.RowsIn != live {
				t.Fatalf("%s par=%d: stored scan of D examined %d rows, want %d", shape.name, par, storedScan.RowsIn, live)
			}
			if shape.name == "filter" && sc.RowsOut != len(fused.Data) {
				t.Fatalf("filter par=%d: scan passed %d rows, result has %d", par, sc.RowsOut, len(fused.Data))
			}
			// A hash join leaves its left input pending: the scan of D heads
			// the run the probe is a stage of, and besides the result only
			// the build side can have been stored.
			if strings.Contains(shape.name, "hash") {
				var hash *JoinStat
				for _, j := range run.Joins {
					if fused.Stats.Joins[j].Strategy == StrategyHash {
						hash = &fused.Stats.Joins[j]
					}
				}
				if hash == nil || fused.Stats.MaterializedRows-len(fused.Data) > hash.BuildRows {
					t.Fatalf("%s par=%d: the scan of D did not head the hash probe's run, or more than the build side was stored\n%s", shape.name, par, fused.Stats.String())
				}
			}
		}
		if first == "" && !strings.HasPrefix(shape.name, "hash-build-empty") && live > 0 {
			t.Fatalf("%s: no rows; the shape proves nothing", shape.name)
		}
	}
}

// TestScanPipeEquivalence: a pipe that starts at a table scan returns the
// rows, in the order, of the same statement with the scan stored first,
// at any worker count — filters, projections, COUNT, GROUP BY with a
// group first seen in a late morsel, ORDER BY + LIMIT, DISTINCT, an
// index nested-loop join after the scan, hash builds read from a scan
// (one of them empty) and probed by the scan, also after an index
// nested-loop join, a nested loop's inner side, and a filter holding a
// subquery — over a full table, one with deleted slots and empty morsels,
// and an empty one.
func TestScanPipeEquivalence(t *testing.T) {
	e := newScanEngine(t, scanRows)
	checkScanShapes(t, e, scanRows)

	// Deleted slots: every tenth row, and the whole third morsel.
	mustDeleteWhere(t, e, "D", func(r []rel.Value) bool { return r[0].Int()%10 == 3 })
	mustDeleteWhere(t, e, "D", func(r []rel.Value) bool { return r[0].Int() >= 2*morselRows && r[0].Int() < 3*morselRows })
	live := int(scalarInt(t, e, "SELECT COUNT(*) FROM D"))
	if d, _ := e.cat.Table("D"); d.Slots() == live {
		t.Fatal("deletes left no dead slot: the fixture proves nothing")
	}
	checkScanShapes(t, e, live)

	// Below the gate in live rows, however many slots they lie in.
	mustDeleteWhere(t, e, "D", func(r []rel.Value) bool { return r[0].Int() >= parallelMinRows })
	checkScanShapes(t, e, int(scalarInt(t, e, "SELECT COUNT(*) FROM D")))

	checkScanShapes(t, newScanEngine(t, 0), 0)
}

// TestScanPipeAsOf: a scan-rooted pipe reads the row images of the
// version it is pinned at, on every worker, while a writer commits
// inserts and deletes to the table it scans.
func TestScanPipeAsOf(t *testing.T) {
	e := newScanEngine(t, scanRows)
	e.SetExecOptions(ExecOptions{})
	ver := e.Catalog().Pin()
	defer e.Catalog().Unpin(ver)
	want := map[string]string{}
	for _, shape := range scanPipeShapes {
		r, err := e.QueryAt(scanSQL(shape.sql, true), ver)
		if err != nil {
			t.Fatal(err)
		}
		want[shape.name] = kindText(r)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := scanRows; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := insertRows(e, "D", row(i, i%7, scanDoc(i))); err != nil {
				t.Error(err)
				return
			}
			gone := int64((i * 37) % scanRows)
			if _, err := deleteWhere(e, "D", func(r []rel.Value) bool { return r[0].Int() == gone }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for round := 0; round < 2; round++ {
		for _, par := range []int{1, 2, 4} {
			e.SetExecOptions(ExecOptions{Parallelism: par})
			for _, shape := range scanPipeShapes {
				r, err := e.QueryAt(scanSQL(shape.sql, false), ver)
				if err != nil {
					t.Fatal(err)
				}
				if got := kindText(r); got != want[shape.name] {
					t.Fatalf("%s par=%d: as-of rows differ from the pinned version's\n got %.300s\nwant %.300s", shape.name, par, got, want[shape.name])
				}
			}
		}
	}
}

// aggRows is the row count of newAggEngine's table P: seven morsels.
const aggRows = 7*morselRows - 50

// Rows of P whose X ties another across morsels: a BIGINT 1 before a
// DOUBLE 1.0 in group a, a DOUBLE 1.0 before a BIGINT 1 in group b, and a
// DOUBLE 20.0 before a BIGINT 20 in group a.
const (
	tieIntOneA   = 5
	tieFloatOneA = 3*morselRows + 5
	tieFloatOneB = 7
	tieIntOneB   = 2*morselRows + 7
	tieFloatMaxA = morselRows + 9
	tieIntMaxA   = 5*morselRows + 9
)

// lateFirst is the first row of P's group "late".
const lateFirst = 6*morselRows + 9

// newAggEngine builds P(ID, G, X). G is "a" or "b" by parity, NULL on
// every seventeenth row, and "late" only in the last morsel, from
// lateFirst on; X is a DOUBLE between 2 and 11.6, NULL on every seventh
// row, except on the tie rows above. Tenths do not add up exactly in
// binary: a sum of them depends on the order it is taken in.
func newAggEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "P", intCol("ID"), strCol("G"), floatCol("X"))
	type tie struct {
		g string
		x any
	}
	ties := map[int]tie{tieIntOneA: {"a", int64(1)}, tieFloatOneA: {"a", 1.0}, tieFloatOneB: {"b", 1.0}, tieIntOneB: {"b", int64(1)},
		tieFloatMaxA: {"a", 20.0}, tieIntMaxA: {"a", int64(20)}}
	for i := 0; i < aggRows; i++ {
		var g any = []string{"a", "b"}[i%2]
		if i%17 == 0 {
			g = nil
		}
		if i >= lateFirst && i%10 == lateFirst%10 {
			g = "late"
		}
		var x any = float64(i%97)/10 + 2
		if i%7 == 0 {
			x = nil
		}
		if v, ok := ties[i]; ok {
			g, x = v.g, v.x
		}
		mustInsert(t, e, "P", row(i, g, x))
	}
	return e
}

// TestPartialAggregatesExact: COUNT, MIN, MAX and LISTAGG merge per-morsel
// partial states, and merging is exact — a tie across morsels keeps the
// value a serial run keeps (the first), LISTAGG lists ties in row order,
// NULLs are skipped, and a group first seen in the last morsel comes out
// last with its own first row — at Parallelism 1, 2 and 4, whether the
// rows come straight from the scan or through a stage. SUM, AVG and
// COUNT(DISTINCT) replay the morsels' rows in order: their doubles add up
// byte-identically to a serial run.
func TestPartialAggregatesExact(t *testing.T) {
	e := newAggEngine(t)
	for _, q := range []string{
		"SELECT G, ID, COUNT(*), COUNT(X), LISTAGG(X) FROM P GROUP BY G",
		"SELECT COUNT(*), COUNT(X), LISTAGG(X) FROM P",
		"SELECT G, COUNT(*), LISTAGG(ID) FROM P WHERE ID % 3 <> 1 GROUP BY G",
		"WITH T AS (SELECT G, X * 1 AS X FROM P WHERE ID >= 0) SELECT G, LISTAGG(X), COUNT(X) FROM T GROUP BY G",
		"SELECT COUNT(*), LISTAGG(X) FROM P WHERE ID < 0",
	} {
		var first string
		for _, par := range []int{1, 2, 4} {
			r := queryForced(t, e, StrategyAuto, par, q)
			if got := kindText(r); first == "" {
				first = got
			} else if got != first {
				t.Fatalf("%s: par=%d differs from par=1\n got %.400s\nwant %.400s", q, par, got, first)
			}
			if sc := r.Stats.Scans[0]; sc.Workers != par {
				t.Fatalf("%s par=%d: the scan ran on %d workers", q, par, sc.Workers)
			}
		}
	}

	for _, par := range []int{1, 2, 4} {
		r := queryForced(t, e, StrategyAuto, par, "SELECT G, ID, LISTAGG(X) FROM P GROUP BY G")
		groups := map[string][]rel.Value{}
		var order []string
		for _, row := range r.Data {
			groups[row[0].String()] = row
			order = append(order, row[0].String())
		}
		if last := order[len(order)-1]; last != "late" || groups["late"][1].Int() != lateFirst {
			t.Fatalf("par=%d: groups %v; want late last, its first row %d", par, order, lateFirst)
		}
		list := groups["a"][2].List()
		if len(list) < 2 || list[0].Kind() != rel.KindInt || list[1].Kind() != rel.KindFloat || list[1].Float() != 1 {
			t.Fatalf("par=%d: LISTAGG of a starts %s, %s; want BIGINT 1 then DOUBLE 1.0", par, kindOf(list, 0), kindOf(list, 1))
		}
	}
}

// TestAggregateSubqueryMergesPartials: a GROUP BY key or an aggregate
// argument that holds a subquery is evaluated on the workers, whose parts
// are group tables merged in morsel order — the subquery's set was built
// when the core's frame bound — and the statement answers as it does on
// one worker.
func TestAggregateSubqueryMergesPartials(t *testing.T) {
	e := newScanEngine(t, scanRows)
	for _, q := range []string{
		"SELECT COUNT(*), ID FROM D GROUP BY G IN (SELECT K FROM H WHERE W <> 'w3')",
		"SELECT COUNT(G IN (SELECT K FROM H WHERE K > 2)), LISTAGG(ID IN (SELECT VID FROM X)) FROM D",
		"SELECT JSON_VAL(ATTR, 'grp'), LISTAGG(G IN (SELECT B FROM M)) FROM D GROUP BY JSON_VAL(ATTR, 'grp')",
	} {
		var first string
		for _, par := range []int{1, 4} {
			r := queryForced(t, e, StrategyAuto, par, q)
			if got := kindText(r); first == "" {
				first = got
			} else if got != first {
				t.Fatalf("%s: par=%d differs from par=1\n got %.300s\nwant %.300s", q, par, got, first)
			}
			if sc, run := dScan(t, &r.Stats); sc.Workers != par || run == nil || run.Workers != par {
				t.Fatalf("%s par=%d: the scan ran on %d workers\n%s", q, par, sc.Workers, r.Stats.String())
			}
		}
		if first == "" {
			t.Fatalf("%s: no rows; the statement proves nothing", q)
		}
		cp, err := e.prepared(&queryState{}, mustSelect(t, q).Body.(*sql.SimpleSelect))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cp.agg.newTable(nil).part(3, false).(*aggTable); !ok {
			t.Fatalf("%s: a worker's part is not a group table", q)
		}
	}
}

// TestSubqueryStageFansOut: a stage holding IN (SELECT …) — a filter, a
// projection, an index nested-loop join and a hash probe — runs on every
// worker its pipe is offered once the pipe passes the fan-out gate, and
// answers as it does on one worker.
func TestSubqueryStageFansOut(t *testing.T) {
	e := newScanEngine(t, scanRows)
	for _, c := range []struct{ name, sql, join string }{
		{"where", "WITH T AS (SELECT ID, G FROM D) SELECT ID FROM T WHERE G IN (SELECT K FROM H WHERE W <> 'w1')", ""},
		{"projection", "SELECT ID, G NOT IN (SELECT B FROM M) AS NM FROM D", ""},
		{"index-nl", "SELECT A.ID, X.V FROM D A, X WHERE X.VID = A.ID AND X.V % 7 NOT IN (SELECT B FROM M)", "index-nl"},
		{"hash-probe", "SELECT A.ID, H.W FROM D A, H WHERE H.K = A.G AND (A.ID IN (SELECT VID FROM X) OR H.W = 'w3')", "hash"},
	} {
		var first string
		for _, par := range []int{1, 4} {
			r := queryForced(t, e, StrategyAuto, par, c.sql)
			if got := kindText(r); first == "" {
				first = got
			} else if got != first {
				t.Fatalf("%s: par=%d differs from par=1\n got %.300s\nwant %.300s", c.name, par, got, first)
			}
			sc, run := dScan(t, &r.Stats)
			if sc.Workers != par || run == nil || run.Workers != par {
				t.Fatalf("%s par=%d: the run from D's scan had %d workers, want %d\n%s", c.name, par, sc.Workers, par, r.Stats.String())
			}
			if c.join == "" {
				continue
			}
			if len(run.Joins) != 1 {
				t.Fatalf("%s par=%d: the run holds joins %v, want one\n%s", c.name, par, run.Joins, r.Stats.String())
			}
			if js := r.Stats.Joins[run.Joins[0]]; string(js.Strategy) != c.join || js.Workers != par {
				t.Fatalf("%s par=%d: %s join on %d workers, want %s on %d\n%s", c.name, par, js.Strategy, js.Workers, c.join, par, r.Stats.String())
			}
		}
		if first == "" {
			t.Fatalf("%s: no rows; the statement proves nothing", c.name)
		}
	}
}

func kindOf(list []rel.Value, i int) string {
	if i >= len(list) {
		return "nothing"
	}
	return list[i].Kind().String() + " " + list[i].String()
}

// TestGroupKeyMatchesValueKey: a GROUP BY key built in place is the
// value's canonical key and a separator, so groups are what they were
// when each key was a string of its own.
func TestGroupKeyMatchesValueKey(t *testing.T) {
	doc, _ := sqljson.Parse(`{"a":1}`)
	for _, v := range []rel.Value{
		rel.Null, rel.NewBool(true), rel.NewBool(false), rel.NewInt(0), rel.NewInt(-7), rel.NewInt(1 << 60),
		rel.NewFloat(1), rel.NewFloat(-2.5), rel.NewFloat(1e300), rel.NewFloat(1 << 53), rel.NewString(""), rel.NewString("abc"),
		rel.NewJSON(&doc), rel.NewList([]rel.Value{rel.NewInt(1), rel.NewString("x")}),
	} {
		if got, want := string(appendGroupKey([]byte("p"), v)), "p"+v.Key()+"\xff"; got != want {
			t.Errorf("%s %s: key %q, want %q", v.Kind(), v, got, want)
		}
	}
}

// TestDocPredicateMatchesCompare: JSON_VAL(doc, 'v') <op> c, with the
// document read from its column in place or computed, is exactly
// JSON_VAL's value compared with c by rel.Compare — for every kind a
// document value can have, every kind of constant, literal or parameter,
// all six operators in both operand orders, IS [NOT] NULL, and documents
// stored as JSON or as text.
func TestDocPredicateMatchesCompare(t *testing.T) {
	e := New(rel.NewCatalog())
	docs := []string{`{"v":3}`, `{"v":-2}`, `{"v":0}`, `{"v":2.5}`, `{"v":-0.5}`, `{"v":"3"}`, `{"v":"abc"}`, `{"v":""}`,
		`{"v":true}`, `{"v":false}`, `{"v":null}`, `{"v":{"a":1}}`, `{"v":[1,2]}`, `{}`, `{"w":3}`}
	consts := []struct {
		text string
		arg  any
	}{
		{"3", nil}, {"-2", nil}, {"2.5", nil}, {"3.0", nil}, {"'3'", nil}, {"'abc'", nil}, {"''", nil}, {"NULL", nil}, {"TRUE", nil},
		{"?", int64(3)}, {"?", 2.5}, {"?", 3.0}, {"?", "abc"}, {"?", nil}, {"?", false},
	}
	path := sqljson.CompilePath("v")
	sc := newScope([]colInfo{{name: "ATTR"}})
	var rows [][]rel.Value
	for _, text := range docs {
		d, err := sqljson.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, []rel.Value{rel.NewJSON(&d)}, []rel.Value{rel.NewString(text)})
	}
	rows = append(rows, []rel.Value{rel.Null}, []rel.Value{rel.NewString("not a document")}, []rel.Value{rel.NewInt(3)})
	compile := func(args []Arg, text string) func(row []rel.Value) rel.Value {
		t.Helper()
		x, err := sql.ParseExpr(text)
		if err != nil {
			t.Fatal(err)
		}
		return compileBound(t, e, sc, x, args)
	}
	same := func(text string, row []rel.Value, got, want rel.Value) {
		t.Helper()
		if got.Kind() != want.Kind() || !rel.Equal(got, want) {
			t.Errorf("%s over %s %s: %s %s, want %s %s", text, row[0].Kind(), row[0], got.Kind(), got, want.Kind(), want)
		}
	}
	vals := []string{"JSON_VAL(ATTR, 'v')", "JSON_VAL(COALESCE(ATTR, ATTR), 'v')"}
	for _, c := range consts {
		var args []Arg
		if c.text == "?" {
			args = toArgs([]any{c.arg})
		}
		constFn := compile(args, c.text)
		cv := constFn(nil)
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			for i := range 2 * len(vals) {
				val, swapped := vals[i/2], i%2 == 1
				text := val + " " + op + " " + c.text
				if swapped {
					text = c.text + " " + op + " " + val
				}
				fn := compile(args, text)
				for _, row := range rows {
					got := fn(row)
					v, want := jsonValPath(row[0], path), rel.Null
					if !v.IsNull() && !cv.IsNull() {
						cmp := rel.Compare(v, cv)
						if swapped {
							cmp = rel.Compare(cv, v)
						}
						want = rel.NewBool(holdsOp(op, cmp))
					}
					same(text, row, got, want)
				}
			}
		}
	}
	for i := range 2 * len(vals) {
		text, not := vals[i/2]+" IS NULL", i%2 == 1
		if not {
			text = vals[i/2] + " IS NOT NULL"
		}
		fn := compile(nil, text)
		for _, row := range rows {
			got := fn(row)
			same(text, row, got, rel.NewBool(jsonValPath(row[0], path).IsNull() != not))
		}
	}
}

// TestJSONValNoAllocs: JSON_VAL of a stored document reads an int, a
// float, a bool or a string straight out of the document's record — the
// string shares its bytes — and allocates nothing, a missing key included.
func TestJSONValNoAllocs(t *testing.T) {
	e := New(rel.NewCatalog())
	doc, err := sqljson.Parse(`{"i":7,"f":2.5,"b":true,"s":"text","o":{"x":1}}`)
	if err != nil {
		t.Fatal(err)
	}
	row := []rel.Value{rel.NewJSON(&doc)}
	sc := newScope([]colInfo{{name: "ATTR"}})
	for _, c := range []struct {
		key  string
		want rel.Value
	}{
		{"i", rel.NewInt(7)}, {"f", rel.NewFloat(2.5)}, {"b", rel.NewBool(true)}, {"s", rel.NewString("text")}, {"missing", rel.Null},
	} {
		x, err := sql.ParseExpr("JSON_VAL(ATTR, '" + c.key + "')")
		if err != nil {
			t.Fatal(err)
		}
		fn := compileBound(t, e, sc, x, nil)
		var got rel.Value
		if n := testing.AllocsPerRun(100, func() { got = fn(row) }); n != 0 {
			t.Errorf("JSON_VAL(ATTR, %q): %v allocations, want 0", c.key, n)
		}
		if got.Kind() != c.want.Kind() || !rel.Equal(got, c.want) {
			t.Errorf("JSON_VAL(ATTR, %q) = %s %s, want %s %s", c.key, got.Kind(), got, c.want.Kind(), c.want)
		}
	}
}

// holdsOp is the comparison the generic evaluator makes, restated.
func holdsOp(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}
