package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqlgraph/internal/rel"
)

// cteStmt is a WITH statement kept in pieces so a test can run it twice:
// as written, where every CTE with one reader is fused into it, and with
// a trailing CTE nobody reads that mentions every name once more — two
// readers each, so every CTE is stored, which is what the executor did
// before it had pipelines.
type cteStmt struct {
	names, bodies []string
	final         string
}

func (s cteStmt) with(name, body string) cteStmt {
	s.names = append(append([]string(nil), s.names...), name)
	s.bodies = append(append([]string(nil), s.bodies...), body)
	return s
}

func (s cteStmt) sql(stored bool) string {
	var parts, arms []string
	for i, n := range s.names {
		parts = append(parts, n+" AS ("+s.bodies[i]+")")
		arms = append(arms, "SELECT 1 FROM "+n)
	}
	if stored {
		parts = append(parts, "ZZ AS ("+strings.Join(arms, " UNION ALL ")+")")
	}
	return "WITH " + strings.Join(parts, ", ") + " " + s.final
}

// newPipelineEngine builds a frontier O(ID, G) of outer rows, an indexed
// adjacency table ADJ(VID, LBL, VAL) whose VAL point back into O, and a
// secondary table SEC(VALID, VAL) that redirects some of them. The outer
// rows either side of every morsel boundary, and every 11th row, have no
// adjacency rows.
func newPipelineEngine(t testing.TB, outer int) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "O", intCol("ID"), intCol("G"))
	mustTable(t, e, "ADJ", intCol("VID"), strCol("LBL"), intCol("VAL"))
	mustIndex(t, e, "ADJ_VID", "ADJ", "VID")
	mustTable(t, e, "SEC", intCol("VALID"), intCol("VAL"))
	mustIndex(t, e, "SEC_VALID", "SEC", "VALID")
	for i := 0; i < outer; i++ {
		mustInsert(t, e, "O", row(i, i%5))
		edge := i%morselRows == 0 || i%morselRows == morselRows-1
		for k := 0; !edge && i%11 != 0 && k < 1+i%3; k++ {
			var val any = int64((i*7 + 13*k) % outer)
			if i%17 == 0 && k == 0 {
				val = nil
			}
			mustInsert(t, e, "ADJ", row(i, fmt.Sprintf("l%d", k%2), val))
		}
		if i%9 == 4 {
			for k := 0; k < 1+i%2; k++ {
				mustInsert(t, e, "SEC", row(i, (i+100*k)%outer))
			}
		}
	}
	return e
}

const (
	pipeHop  = "SELECT P.VAL AS VAL FROM %s V, ADJ P WHERE P.VID = V.VAL AND P.VID >= 0 AND P.VAL IS NOT NULL"
	pipeSide = "SELECT COALESCE(S.VAL, P.VAL) AS VAL FROM %s P LEFT OUTER JOIN SEC S ON P.VAL = S.VALID"
)

// pipelineShapes are the fusable shapes of the Table-8 translation, each
// with the CTEs that must report Fused when the statement runs as
// written under the planner's own strategy choice.
func pipelineShapes() map[string]struct {
	stmt  cteStmt
	fused []string
} {
	base := cteStmt{}.with("T1", "SELECT ID AS VAL FROM O")
	hop := base.with("T2", fmt.Sprintf(pipeHop, "T1")).with("T3", fmt.Sprintf(pipeSide, "T2"))
	chain := hop
	for i := 4; i <= 8; i += 2 {
		chain = chain.with(fmt.Sprintf("T%d", i), fmt.Sprintf(pipeHop, fmt.Sprintf("T%d", i-1))).
			with(fmt.Sprintf("T%d", i+1), fmt.Sprintf(pipeSide, fmt.Sprintf("T%d", i)))
	}
	shapes := map[string]struct {
		stmt  cteStmt
		fused []string
	}{}
	add := func(name string, s cteStmt, final string, fused ...string) {
		s.final = final
		shapes[name] = struct {
			stmt  cteStmt
			fused []string
		}{s, fused}
	}
	add("join-leftjoin-project", hop, "SELECT VAL FROM T3", "T1", "T2")
	add("union-all-into-distinct",
		hop.with("T4", "SELECT P.VID AS VAL FROM T1 V, ADJ P WHERE P.VAL = V.VAL AND P.LBL = 'l1'").
			with("T5", "SELECT VAL FROM T3 UNION ALL SELECT VAL FROM T4").
			with("T6", "SELECT DISTINCT VAL FROM T5"),
		"SELECT VAL FROM T6", "T2", "T3", "T5")
	add("distinct-count",
		hop.with("T4", "SELECT DISTINCT VAL FROM T3").with("T5", "SELECT COUNT(*) AS VAL FROM T4"),
		"SELECT VAL FROM T5", "T1", "T2", "T3")
	add("four-hops", chain, "SELECT VAL FROM T9", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
	add("lateral-values",
		base.with("T2", "SELECT T.VAL AS VAL FROM T1 V, ADJ P, TABLE(VALUES (P.VAL), (P.VID + V.VAL)) AS T(VAL) WHERE P.VID = V.VAL AND T.VAL IS NOT NULL").
			with("T3", fmt.Sprintf(pipeSide, "T2")),
		"SELECT VAL FROM T3", "T1", "T2")
	add("left-join-morsel-edges",
		base.with("T2", "SELECT V.VAL AS ID, P.VAL AS VAL, P.LBL AS LBL FROM T1 V LEFT OUTER JOIN ADJ P ON V.VAL = P.VID").
			with("T3", "SELECT ID, COALESCE(VAL, -1) AS VAL FROM T2 WHERE LBL IS NULL OR LBL = 'l0'"),
		"SELECT ID, VAL FROM T3", "T1", "T2")
	add("zero-width-rows",
		hop.with("T4", "SELECT 7 AS N FROM T3").with("T5", "SELECT COUNT(*) AS N FROM T4"),
		"SELECT N FROM T5", "T1", "T2", "T3", "T4")
	return shapes
}

// rowsText renders a result on one line: rows apart by spaces, columns by |.
func rowsText(rows *Rows) string {
	var out []string
	for _, row := range rows.Data {
		var cells []string
		for _, v := range row {
			cells = append(cells, v.String())
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return strings.Join(out, " ")
}

func fusedCTEs(st *ExecStats) map[string]bool {
	m := map[string]bool{}
	for _, c := range st.CTEs {
		if c.Fused {
			m[c.Name] = true
		}
	}
	return m
}

// TestPipelineEquivalence: for every fusable shape, under every join
// strategy and on one worker or several, the statement as written — its
// single-reader CTEs spliced into their readers — returns the rows, in
// the order, of the same statement with every CTE stored.
func TestPipelineEquivalence(t *testing.T) {
	big := newPipelineEngine(t, parallelMinRows+morselRows+37)
	small := newPipelineEngine(t, 300)
	for name, shape := range pipelineShapes() {
		for _, force := range []JoinStrategy{StrategyAuto, StrategyHash, StrategyNestedLoop} {
			e := big
			if force == StrategyNestedLoop {
				e = small // every pair is compared: keep the frontier short
			}
			for _, par := range []int{1, 4} {
				stored := queryForced(t, e, force, par, shape.stmt.sql(true))
				fused := queryForced(t, e, force, par, shape.stmt.sql(false))
				if len(stored.Data) == 0 || !sameStrings(rowsKeys(stored), rowsKeys(fused)) {
					t.Fatalf("%s force=%q par=%d: fused output differs from stored (%d vs %d rows)", name, force, par, len(fused.Data), len(stored.Data))
				}
				if got := fusedCTEs(&stored.Stats); len(got) != 0 {
					t.Fatalf("%s force=%q par=%d: CTEs with two readers reported fused: %v", name, force, par, got)
				}
				for i, c := range fused.Stats.CTEs {
					if s := stored.Stats.CTEs[i]; c.Name != s.Name || c.Rows != s.Rows {
						t.Fatalf("%s force=%q par=%d: CTE %s produced %d rows fused, %s %d stored", name, force, par, c.Name, c.Rows, s.Name, s.Rows)
					}
				}
				if fused.Stats.MaterializedRows >= stored.Stats.MaterializedRows {
					t.Fatalf("%s force=%q par=%d: fused run stored %d rows, stored run %d", name, force, par, fused.Stats.MaterializedRows, stored.Stats.MaterializedRows)
				}
				if force != StrategyAuto {
					continue
				}
				got := fusedCTEs(&fused.Stats)
				for _, want := range shape.fused {
					if !got[want] {
						t.Fatalf("%s par=%d: CTE %s was stored, want fused (fused: %v)\n%s", name, par, want, got, fused.Stats.String())
					}
				}
				if par == 4 && fused.Stats.MaxWorkers() != 4 {
					t.Fatalf("%s: par=4 ran on %d workers", name, fused.Stats.MaxWorkers())
				}
			}
		}
	}
	// A nested-loop stage on several workers: a long frontier against a
	// short inner side.
	q := cteStmt{final: "SELECT ID, VAL FROM T2"}.with("T1", "SELECT ID AS VAL FROM O").
		with("T2", "SELECT V.VAL AS ID, S.VAL AS VAL FROM T1 V LEFT OUTER JOIN SEC S ON S.VALID + 1 > V.VAL AND S.VALID < V.VAL + 1 AND S.VALID < 200")
	stored := queryForced(t, big, StrategyAuto, 1, q.sql(true))
	fused := queryForced(t, big, StrategyAuto, 4, q.sql(false))
	if j := fused.Stats.Joins[0]; j.Strategy != StrategyNestedLoop || j.Workers != 4 || !sameStrings(rowsKeys(stored), rowsKeys(fused)) {
		t.Fatalf("parallel nested-loop stage: %s on %d workers, %d rows vs %d stored", j.Strategy, j.Workers, len(fused.Data), len(stored.Data))
	}
}

// TestPipelineBreakers: what must not be fused is not, and behaves as it
// did when every CTE was stored.
func TestPipelineBreakers(t *testing.T) {
	e := newPipelineEngine(t, 400)
	e.SetExecOptions(ExecOptions{})
	hop := cteStmt{}.with("T1", "SELECT ID AS VAL FROM O").with("T2", fmt.Sprintf(pipeHop, "T1"))

	// Read twice: stored once, both readers see the same rows.
	twice := hop
	twice.final = "SELECT VAL FROM T2 UNION ALL SELECT VAL FROM T2"
	rows := mustQuery(t, e, twice.sql(false))
	if fusedCTEs(&rows.Stats)["T2"] || len(rows.Data) != 2*rows.Stats.CTEs[1].Rows || len(rows.Data) == 0 {
		t.Fatalf("CTE read twice: fused=%v, %d result rows for %d CTE rows", fusedCTEs(&rows.Stats), len(rows.Data), rows.Stats.CTEs[1].Rows)
	}

	// Read zero times: still evaluated.
	unread := hop.with("UNREAD", "SELECT VAL + 1 AS X FROM T2")
	unread.final = "SELECT VAL FROM T1"
	rows = mustQuery(t, e, unread.sql(false))
	if c := rows.Stats.CTEs[2]; c.Fused || c.Rows == 0 || len(rows.Data) != 400 {
		t.Fatalf("unread CTE: %+v, %d result rows", c, len(rows.Data))
	}

	// ORDER BY / LIMIT over a pending input: the sort stores it.
	sorted := hop
	sorted.final = "SELECT VAL FROM T2 ORDER BY - VAL LIMIT 5 OFFSET 2"
	a, b := mustQuery(t, e, sorted.sql(false)), mustQuery(t, e, sorted.sql(true))
	if f := fusedCTEs(&a.Stats); len(a.Data) != 5 || !f["T1"] || f["T2"] || !sameStrings(rowsKeys(a), rowsKeys(b)) {
		t.Fatalf("ORDER BY/LIMIT over a fused CTE: %v (fused %v) vs stored %v", rowsKeys(a), fusedCTEs(&a.Stats), rowsKeys(b))
	}

	// A CTE read only inside an expression's subquery is stored: the
	// subquery may run any number of times.
	sub := hop
	sub.final = "SELECT COUNT(*) FROM O WHERE ID IN (SELECT VAL FROM T2)"
	rows = mustQuery(t, e, sub.sql(false))
	if fusedCTEs(&rows.Stats)["T2"] || rows.Data[0][0].Int() == 0 {
		t.Fatalf("CTE read by an IN subquery: fused=%v count=%v", fusedCTEs(&rows.Stats), rows.Data[0][0])
	}

	// A subquery in GROUP BY is a second reader of the CTE the core drives
	// from.
	five := cteStmt{}.with("T1", "SELECT ID AS VAL FROM O WHERE ID < 5")
	for final, want := range map[string]string{
		"SELECT COUNT(*), VAL FROM T1 GROUP BY VAL IN (SELECT VAL FROM T1 WHERE VAL < 3)": "3|0 2|3",
	} {
		five.final = final
		for _, stored := range []bool{false, true} {
			rows = mustQuery(t, e, five.sql(stored))
			if got := rowsText(rows); got != want || fusedCTEs(&rows.Stats)["T1"] {
				t.Fatalf("%s (stored=%v) = %q, want %q (fused %v)", final, stored, got, want, fusedCTEs(&rows.Stats))
			}
		}
	}

	// A CTE whose stage holds a subquery is stored where it is bound: the
	// names the subquery reads mean what they mean there, whatever a later
	// WITH entry or the reader's own WITH rebinds them to.
	for q, want := range map[string]string{
		`WITH T0 AS (SELECT ID AS VAL FROM O WHERE ID < 3),
			T2 AS (SELECT ID IN (SELECT VAL FROM T0) AS VAL FROM O WHERE ID < 4),
			T0 AS (SELECT ID AS VAL FROM O WHERE ID > 5) SELECT VAL FROM T2`: "true true true false",
		`WITH T0 AS (SELECT ID AS VAL FROM O WHERE ID < 3),
			T2 AS (SELECT ID IN (SELECT VAL FROM T0) AS VAL FROM O WHERE ID < 4),
			T3 AS (WITH T0 AS (SELECT ID AS VAL FROM O WHERE ID > 5) SELECT VAL FROM T2) SELECT VAL FROM T3`: "true true true false",
		`WITH T0 AS (SELECT ID AS VAL FROM O WHERE ID < 3), T1 AS (SELECT ID AS VAL FROM O WHERE ID < 10),
			T2 AS (SELECT VAL FROM T1 WHERE VAL IN (SELECT VAL FROM T0 WHERE VAL IN (SELECT VAL FROM T0))),
			T3 AS (WITH T0 AS (SELECT ID AS VAL FROM O WHERE ID > 5) SELECT VAL + 0 AS VAL FROM T2) SELECT VAL FROM T3`: "0 1 2",
	} {
		rows = mustQuery(t, e, q)
		if got := rowsText(rows); got != want {
			t.Fatalf("%s = %q, want %q: the subquery read a rebound T0", q, got, want)
		}
		if fusedCTEs(&rows.Stats)["T2"] {
			t.Fatalf("%s: T2 has a subquery stage and was fused", q)
		}
	}

	// A relation its one reader has taken fails a second reader: a reader
	// the count missed must not see an empty input.
	taken := &relation{cols: []colInfo{{name: "X"}}, rows: [][]rel.Value{{rel.NewInt(1)}}}
	pending := taken.then(taken.cols, stageFunc(func(next sink) (sink, error) { return next, nil }), oneToOne)
	first := pending.as(pending.cols)
	qs := &queryState{}
	if err := e.materialize(qs, first); err != nil || first.count() != 1 {
		t.Fatalf("first reader: %v, %d rows", err, first.count())
	}
	if err := e.materialize(qs, pending); err != errTaken {
		t.Fatalf("storing a taken relation = %v, want errTaken", err)
	}
	if err := e.materialize(qs, pending.as(pending.cols)); err != errTaken {
		t.Fatalf("second reader = %v, want errTaken", err)
	}
}

// TestPipelinePlannerInputsStored: with statistics attached, a CTE that a
// two-table FROM clause reads is stored before the planner costs the
// clause, so the plan is the one its actual row count earns; the CTE
// behind it, read by a single-table core, still streams.
func TestPipelinePlannerInputsStored(t *testing.T) {
	e := newPlannerEngine(t, 2000)
	r, err := e.Query(`WITH PICK AS (SELECT K AS VAL FROM SMALL WHERE ID = 3),
		SAME AS (SELECT VAL FROM PICK WHERE VAL >= 0),
		HOP AS (SELECT B.V AS VAL FROM SAME S, BIG B WHERE B.K = S.VAL)
		SELECT VAL FROM HOP`)
	if err != nil {
		t.Fatal(err)
	}
	fused := fusedCTEs(&r.Stats)
	if !fused["PICK"] || fused["SAME"] || len(r.Data) != 1 || r.Data[0][0].Int() != 300*7 {
		t.Fatalf("fused=%v rows=%v, want PICK fused, SAME stored, one row 2100", fused, rowsKeys(r))
	}
	if j := r.Stats.Joins[0]; j.Strategy != StrategyIndexNL || j.BuildRows != 1 {
		t.Fatalf("hop not planned from SAME's one row: %+v", j)
	}
}

// TestPipelineAsOf: a fused chain probes its indexes at the query's
// snapshot version, like the stored one.
func TestPipelineAsOf(t *testing.T) {
	e := newPipelineEngine(t, 500)
	e.SetExecOptions(ExecOptions{})
	s := pipelineShapes()["four-hops"].stmt
	before := mustQuery(t, e, s.sql(false))
	ver := e.Catalog().Pin()
	defer e.Catalog().Unpin(ver)
	mustDeleteWhere(t, e, "ADJ", func(r []rel.Value) bool { return r[0].Int() < 250 })
	mustUpdateWhere(t, e, "SEC", func(r []rel.Value) bool { return r[0].Int() > 100 }, func(r []rel.Value) { r[1] = rel.NewInt(1) })
	mustInsert(t, e, "ADJ", row(3, "l0", 4))
	after := mustQuery(t, e, s.sql(false))
	if sameStrings(rowsKeys(before), rowsKeys(after)) {
		t.Fatal("mutations did not change the chain's result: the fixture proves nothing")
	}
	for _, stored := range []bool{false, true} {
		at, err := e.QueryAt(s.sql(stored), ver)
		if err != nil {
			t.Fatal(err)
		}
		if !sameStrings(rowsKeys(before), rowsKeys(at)) {
			t.Fatalf("stored=%v: as-of result has %d rows, pre-mutation result %d", stored, len(at.Data), len(before.Data))
		}
	}
}

// TestPipelineDeduperProbe: under an order-kept DISTINCT, membership of
// a float, a string or NULL in a set of integers is decided by canonical
// keys — one lookup each once the set has moved to them. An ascending
// DISTINCT lists its integers ahead of the other rows, and an integral
// DOUBLE equal to one of them is that integer.
func TestPipelineDeduperProbe(t *testing.T) {
	var d deduper
	for i := int64(0); i < 1000; i++ {
		d.seen([]rel.Value{rel.NewInt(i)})
	}
	for _, c := range []struct {
		v    rel.Value
		want bool
	}{{rel.NewInt(1), true}, {rel.NewFloat(1.0), true}, {rel.NewFloat(1.5), false}, {rel.NewString("1"), false}, {rel.Null, false}, {rel.NewInt(999), true}, {rel.NewInt(1000), false}} {
		if got := d.seen([]rel.Value{c.v}); got != c.want {
			t.Fatalf("seen(%v %s) = %v, want %v", c.v.Kind(), c.v.Key(), got, c.want)
		}
	}
	if d.ids.len() != 0 || len(d.strs) != 1004 {
		t.Fatalf("set did not move to string keys once: ints=%d strs=%d", d.ids.len(), len(d.strs))
	}
	e := New(rel.NewCatalog())
	mustTable(t, e, "A", floatCol("X"))
	mustTable(t, e, "B", intCol("Y"))
	mustInsert(t, e, "A", row(1.0), row(2.5), row(nil), row(3.0))
	mustInsert(t, e, "B", row(1), row(2), row(3), row(3))
	for q, want := range map[string]string{
		"WITH U AS (SELECT Y AS X FROM B UNION ALL SELECT X FROM A) SELECT DISTINCT X FROM U": "1 2 3 2.5 NULL",
		"WITH U AS (SELECT X FROM A UNION ALL SELECT Y AS X FROM B) SELECT DISTINCT X FROM U": "1 2 3 2.5 NULL",
	} {
		var got []string
		for _, row := range mustQuery(t, e, q).Data {
			got = append(got, row[0].String())
		}
		if strings.Join(got, " ") != want {
			t.Fatalf("%s = %v, want %s", q, got, want)
		}
	}
}
