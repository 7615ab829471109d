package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/stats"
)

// newAccessPathEngine builds T(ID, ATTR) with an index on ID: ids 0..1999
// plus twenty negative (soft-deleted) ones. Every tenth row carries a
// 'tag' attribute, indexed by an expression index.
func newAccessPathEngine(t *testing.T, withStats bool) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "T", intCol("ID"), jsonCol("ATTR"))
	mustIndex(t, e, "T_ID", "T", "ID")
	if err := e.CreateIndex("T_TAG", "T", jsonVal("ATTR", "tag")); err != nil {
		t.Fatal(err)
	}
	for i := -20; i < 2000; i++ {
		doc := "{}"
		if i%10 == 0 {
			doc = fmt.Sprintf(`{"tag": "t%d"}`, i%30)
		}
		mustInsert(t, e, "T", row(i, mustDoc(t, doc)))
	}
	if withStats {
		coll := stats.NewCollection(e.Catalog(), stats.Config{Tables: []stats.TableSpec{
			{Name: "T", NDVCols: []int{0}, HistCols: []int{0}, GroupCol: -1},
		}})
		if err := coll.RebuildAll(); err != nil {
			t.Fatal(err)
		}
		e.Catalog().SetChangeObserver(coll)
		e.SetStatsProvider(coll)
	}
	return e
}

// TestAccessPathChoice pins how scanBase reads a table: by cost when
// statistics answer the predicate, by the syntactic preference order when
// there are none — and the rows are the same either way.
func TestAccessPathChoice(t *testing.T) {
	costed := newAccessPathEngine(t, true)
	syntactic := newAccessPathEngine(t, false)
	for _, tc := range []struct {
		where              string
		withStats, noStats string
		rows               int
	}{
		// The soft-delete guard keeps 99% of the table: a full scan with
		// statistics, the index "range" it always was without.
		{"ID >= 0", "full-scan", "index-range", 2000},
		// A selective range stays an index probe.
		{"ID >= 1990", "index-range", "index-range", 10},
		{"ID BETWEEN 10 AND 29", "index-range", "index-range", 20},
		{"ID < 0", "index-range", "index-range", 20},
		// A range keeping half the table is past the break-even two fifths.
		{"ID >= 1000", "full-scan", "index-range", 1000},
		// Equality and IN beat the guard that rides along with them.
		{"ID >= 0 AND ID = 5", "index-eq", "index-eq", 1},
		{"ID >= 0 AND ID IN (1, 2, 3, 5000)", "index-in", "index-in", 3},
		// Every row has a non-null ID: nothing to gain from the index.
		{"ID IS NOT NULL", "full-scan", "index-notnull", 2020},
		// No statistic covers an expression index: it keeps the benefit of
		// the doubt under either regime.
		{"JSON_VAL(ATTR, 'tag') IS NOT NULL", "index-notnull", "index-notnull", 202},
		{"ID >= 0 AND JSON_VAL(ATTR, 'tag') = 't10'", "index-eq", "index-eq", 67},
		{"JSON_VAL(ATTR, 'tag') >= 't2'", "index-range", "index-range", 66},
	} {
		q := "SELECT ID FROM T WHERE " + tc.where
		with, without := mustQuery(t, costed, q), mustQuery(t, syntactic, q)
		if got := with.Stats.Scans[0].Access; got != tc.withStats {
			t.Errorf("%s with statistics: access %s, want %s", tc.where, got, tc.withStats)
		}
		if got := without.Stats.Scans[0].Access; got != tc.noStats {
			t.Errorf("%s without statistics: access %s, want %s", tc.where, got, tc.noStats)
		}
		if len(with.Data) != tc.rows || !sameStrings(sortedKeys(with), sortedKeys(without)) {
			t.Errorf("%s: %d rows with statistics, %d without, want %d identical rows", tc.where, len(with.Data), len(without.Data), tc.rows)
		}
	}
}

// TestAccessPathHashedIndex: a hashed index, as on the adjacency tables,
// serves equality and IN only. The soft-delete guard `P.VID >= 0` and
// every other range or IS NOT NULL predicate is read by full scan under
// either regime — or through an ordered index on the same column when
// there is one — and never reaches the hashed index as a range.
func TestAccessPathHashedIndex(t *testing.T) {
	for _, withStats := range []bool{false, true} {
		e := New(rel.NewCatalog())
		mustTable(t, e, "OPA", intCol("VID"), intCol("VAL"))
		mustTable(t, e, "Q", intCol("VID"), intCol("VAL"))
		for _, table := range []string{"OPA", "Q"} {
			if _, err := e.Catalog().CreateHashIndex(table+"_VID", table, []int{0}); err != nil {
				t.Fatal(err)
			}
		}
		mustIndex(t, e, "Q_VID_ORDERED", "Q", "VID")
		for i := -20; i < 2000; i++ {
			for _, table := range []string{"OPA", "Q"} {
				mustInsert(t, e, table, row(i, i%7))
			}
		}
		if withStats {
			coll := stats.NewCollection(e.Catalog(), stats.Config{Tables: []stats.TableSpec{
				{Name: "OPA", NDVCols: []int{0}, HistCols: []int{0}, GroupCol: -1},
				{Name: "Q", NDVCols: []int{0}, HistCols: []int{0}, GroupCol: -1},
			}})
			if err := coll.RebuildAll(); err != nil {
				t.Fatal(err)
			}
			e.SetStatsProvider(coll)
		}
		for _, tc := range []struct {
			query, access string
			rows          int
		}{
			{"SELECT P.VAL FROM OPA P WHERE P.VID >= 0", "full-scan", 2000},
			{"SELECT P.VAL FROM OPA P WHERE P.VID < 0", "full-scan", 20},
			{"SELECT P.VAL FROM OPA P WHERE P.VID BETWEEN 10 AND 19", "full-scan", 10},
			{"SELECT P.VAL FROM OPA P WHERE P.VID IS NOT NULL", "full-scan", 2020},
			{"SELECT P.VAL FROM OPA P WHERE P.VID >= 0 AND P.VID = 5", "index-eq", 1},
			{"SELECT P.VAL FROM OPA P WHERE P.VID >= 0 AND P.VID IN (1, 2, 3, 5000)", "index-in", 3},
			{"SELECT P.VAL FROM OPA P WHERE P.VID = 5.0", "index-eq", 1},
			{"SELECT Q.VAL FROM Q WHERE Q.VID < -10", "index-range", 10},
		} {
			res := mustQuery(t, e, tc.query)
			if got := res.Stats.Scans[0].Access; got != tc.access {
				t.Errorf("stats=%v %s: access %s, want %s", withStats, tc.query, got, tc.access)
			}
			if len(res.Data) != tc.rows {
				t.Errorf("stats=%v %s: %d rows, want %d", withStats, tc.query, len(res.Data), tc.rows)
			}
		}
	}
}

// TestAccessPathSkipsIndexYoungerThanSnapshot: historical images are not
// back-indexed, so a snapshot pinned before an index existed must never
// be read through it, whatever the cost model thinks of it.
func TestAccessPathSkipsIndexYoungerThanSnapshot(t *testing.T) {
	for _, withStats := range []bool{false, true} {
		e := New(rel.NewCatalog())
		mustTable(t, e, "T", intCol("ID"), intCol("N"))
		for i := 0; i < 200; i++ {
			mustInsert(t, e, "T", row(i, i%7))
		}
		if withStats {
			coll := stats.NewCollection(e.Catalog(), stats.Config{Tables: []stats.TableSpec{{Name: "T", NDVCols: []int{0, 1}, HistCols: []int{0}, GroupCol: -1}}})
			if err := coll.RebuildAll(); err != nil {
				t.Fatal(err)
			}
			e.SetStatsProvider(coll)
		}
		old := e.Catalog().Pin()
		mustUpdateWhere(t, e, "T", func(r []rel.Value) bool { return r[0].Int() == 5 }, func(r []rel.Value) { r[0] = rel.NewInt(1000) })
		mustIndex(t, e, "T_ID", "T", "ID")
		for _, q := range []string{"SELECT N FROM T WHERE ID = 5", "SELECT N FROM T WHERE ID IN (5, 6)", "SELECT N FROM T WHERE ID < 6 AND ID > 4"} {
			at, err := e.QueryAt(q, old)
			if err != nil {
				t.Fatal(err)
			}
			if got := at.Stats.Scans[0].Access; got != "full-scan" {
				t.Errorf("stats=%v %s at the old snapshot: access %s, want full-scan", withStats, q, got)
			}
			hit := false
			for _, row := range at.Data {
				hit = hit || row[0].Int() == 5
			}
			if !hit {
				t.Errorf("stats=%v %s at the old snapshot lost the pre-update image", withStats, q)
			}
			now := mustQuery(t, e, q)
			if got := now.Stats.Scans[0].Access; !strings.HasPrefix(got, "index-") {
				t.Errorf("stats=%v %s at latest: access %s, want the new index", withStats, q, got)
			}
		}
		e.Catalog().Unpin(old)
	}
}

// newPruneEngine builds L(K, A, P) and R(K, B, Q): join keys from a small
// domain with NULLs, A and B for a residual that reads both sides.
func newPruneEngine(t *testing.T, seed int64, nLeft, nRight int, indexed bool) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "L", intCol("K"), intCol("A"), strCol("P"))
	mustTable(t, e, "R", intCol("K"), intCol("B"), strCol("Q"))
	if indexed {
		mustIndex(t, e, "R_K", "R", "K")
	}
	rng := rand.New(rand.NewSource(seed))
	fill := func(table, tag string, n int) {
		for i := 0; i < n; i++ {
			var k any = int64(rng.Intn(25))
			if rng.Intn(9) == 0 {
				k = nil
			}
			mustInsert(t, e, table, row(k, rng.Intn(10), fmt.Sprintf("%s%d", tag, i)))
		}
	}
	fill("L", "l", nLeft)
	fill("R", "r", nRight)
	return e
}

// TestPrunedEmitEquivalence: a join that emits only the columns the
// SELECT reads must produce, row for row, the projection of the join that
// emits everything (SELECT * needs every column, so nothing is pruned) —
// for INNER and LEFT joins under every strategy and build side, with and
// without a residual term that reads both inputs.
func TestPrunedEmitEquivalence(t *testing.T) {
	type variant struct {
		name          string
		nLeft, nRight int
		indexed       bool
		force         JoinStrategy
		strategy      JoinStrategy
		buildSide     string
	}
	for _, v := range []variant{
		{"index-nl", 70, 110, true, StrategyAuto, StrategyIndexNL, ""},
		{"hash build-left", 60, 130, false, StrategyAuto, StrategyHash, "left"},
		{"hash build-right", 130, 60, false, StrategyAuto, StrategyHash, "right"},
		{"hash over index", 70, 110, true, StrategyHash, StrategyHash, "left"},
		{"nested-loop", 50, 70, false, StrategyNestedLoop, StrategyNestedLoop, ""},
	} {
		e := newPruneEngine(t, 5, v.nLeft, v.nRight, v.indexed)
		for _, kind := range []string{"JOIN", "LEFT JOIN"} {
			for _, on := range []string{"L.K = R.K", "L.K = R.K AND L.A < R.B", "L.K = R.K AND L.A + R.B = 9"} {
				from := fmt.Sprintf(" FROM L %s R ON %s", kind, on)
				for _, par := range []int{1, 4} {
					full := queryForced(t, e, v.force, par, "SELECT *"+from)
					j := full.Stats.Joins[0]
					if j.Strategy != v.strategy || j.BuildSide != v.buildSide {
						t.Fatalf("%s: ran as %s build=%q, want %s build=%q", v.name, j.Strategy, j.BuildSide, v.strategy, v.buildSide)
					}
					if len(full.Columns) != 6 {
						t.Fatalf("%s: SELECT * has %d columns, want 6", v.name, len(full.Columns))
					}
					// Column subsets in and out of input order, none at all,
					// and an expression over both sides.
					for _, sel := range []struct {
						items string
						pick  func(row []rel.Value) string
					}{
						{"L.P, R.Q", func(r []rel.Value) string { return r[2].Key() + "|" + r[5].Key() }},
						{"R.Q, L.K", func(r []rel.Value) string { return r[5].Key() + "|" + r[0].Key() }},
						{"R.B", func(r []rel.Value) string { return r[4].Key() }},
						{"L.P", func(r []rel.Value) string { return r[2].Key() }},
						{"COALESCE(R.Q, L.P)", func(r []rel.Value) string {
							if r[5].IsNull() {
								return r[2].Key()
							}
							return r[5].Key()
						}},
						{"7", func([]rel.Value) string { return rel.NewInt(7).Key() }},
					} {
						pruned := queryForced(t, e, v.force, par, "SELECT "+sel.items+from)
						want := make([]string, len(full.Data))
						for i, row := range full.Data {
							want[i] = sel.pick(row)
						}
						if !sameStrings(rowsKeys(pruned), want) {
							t.Fatalf("%s par=%d: SELECT %s%s differs from the projection of SELECT *\ngot  %v\nwant %v",
								v.name, par, sel.items, from, rowsKeys(pruned), want)
						}
					}
				}
			}
		}
	}
}

// TestPrunedJoinKeepsLaterTermsColumns: a column only a later join or the
// WHERE residue reads must survive the joins before it.
func TestPrunedJoinKeepsLaterTermsColumns(t *testing.T) {
	e := newPruneEngine(t, 9, 40, 60, true)
	mustTable(t, e, "M", intCol("B"), strCol("W"))
	mustInsert(t, e, "M", row(1, "one"), row(3, "three"), row(7, "seven"))
	pruned := mustQuery(t, e, "SELECT M.W FROM L, R, M WHERE L.K = R.K AND R.B = M.B AND L.A < M.B")
	full := mustQuery(t, e, "SELECT * FROM L, R, M WHERE L.K = R.K AND R.B = M.B AND L.A < M.B")
	want := make([]string, len(full.Data))
	for i, row := range full.Data {
		want[i] = row[len(row)-1].Key()
	}
	if len(want) == 0 || !sameStrings(sortedKeys(pruned), sortedStrings(want)) {
		t.Fatalf("3-way join: %d pruned rows vs %d full rows", len(pruned.Data), len(full.Data))
	}
	if n := scalarInt(t, e, "SELECT COUNT(*) FROM L, R, M WHERE L.K = R.K AND R.B = M.B AND L.A < M.B"); int(n) != len(full.Data) {
		t.Fatalf("COUNT(*) over zero-width join rows = %d, want %d", n, len(full.Data))
	}
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// TestParallelIndexNLDeterminism: the morsel-parallel index nested-loop
// join is byte-identical to the serial one — INNER and LEFT, with the
// unmatched outer rows of a LEFT join sitting on morsel boundaries — and
// engages exactly from parallelMinRows outer rows on.
func TestParallelIndexNLDeterminism(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "O", intCol("ID"), intCol("G"))
	mustTable(t, e, "ADJ", intCol("VID"), strCol("LBL"), intCol("VAL"))
	mustIndex(t, e, "ADJ_VID", "ADJ", "VID")
	outer := parallelMinRows + morselRows + 37
	for i := 0; i < outer; i++ {
		mustInsert(t, e, "O", row(i, i%5))
		// No adjacency rows for the outer rows either side of every morsel
		// boundary, nor for every 11th row; up to three rows for the rest.
		edge := i%morselRows == 0 || i%morselRows == morselRows-1
		for k := 0; !edge && i%11 != 0 && k < 1+i%3; k++ {
			mustInsert(t, e, "ADJ", row(i, fmt.Sprintf("l%d", k%2), 1000*k+i))
		}
	}
	for _, q := range []string{
		"SELECT P.VAL FROM O V, ADJ P WHERE P.VID = V.ID AND P.VID >= 0 AND P.LBL = 'l0' AND P.VAL IS NOT NULL",
		"SELECT V.ID, P.VAL FROM O V JOIN ADJ P ON P.VID = V.ID AND P.VAL + V.G > 1002",
		"SELECT V.ID, P.VAL, P.LBL FROM O V LEFT JOIN ADJ P ON V.ID = P.VID",
		"SELECT COALESCE(P.VAL, V.ID) FROM O V LEFT JOIN ADJ P ON V.ID = P.VID AND P.VAL + V.G > 1002",
	} {
		serial := queryForced(t, e, StrategyAuto, 1, q)
		par := queryForced(t, e, StrategyAuto, 4, q)
		sj, pj := serial.Stats.Joins[0], par.Stats.Joins[0]
		if sj.Strategy != StrategyIndexNL || pj.Strategy != StrategyIndexNL {
			t.Fatalf("%s: strategies %s/%s, want index-nl", q, sj.Strategy, pj.Strategy)
		}
		if sj.Workers != 1 || pj.Workers != 4 || pj.Morsels != (outer+morselRows-1)/morselRows {
			t.Fatalf("%s: serial workers=%d, parallel workers=%d morsels=%d", q, sj.Workers, pj.Workers, pj.Morsels)
		}
		if sj.ProbeRows != pj.ProbeRows || sj.OutRows != pj.OutRows {
			t.Fatalf("%s: probe/out rows %d/%d serial vs %d/%d parallel", q, sj.ProbeRows, sj.OutRows, pj.ProbeRows, pj.OutRows)
		}
		if len(serial.Data) == 0 || !sameStrings(rowsKeys(serial), rowsKeys(par)) {
			t.Fatalf("%s: parallel index-nl output differs from serial (%d vs %d rows)", q, len(par.Data), len(serial.Data))
		}
	}
	// One row under the gate the same join stays on one worker. The join
	// is a stage of the pipe O's scan heads, and the deletes leave O's
	// slots behind: the gate counts the table's live rows, not the slots
	// its morsels are cut from.
	mustDeleteWhere(t, e, "O", func(r []rel.Value) bool { return r[0].Int() >= parallelMinRows-1 })
	small := queryForced(t, e, StrategyAuto, 4, "SELECT P.VAL FROM O V, ADJ P WHERE P.VID = V.ID")
	if j := small.Stats.Joins[0]; j.Strategy != StrategyIndexNL || j.Workers != 1 || j.BuildRows != parallelMinRows-1 {
		t.Fatalf("below the gate: %s workers=%d outer=%d, want index-nl on 1 worker over %d rows", j.Strategy, j.Workers, j.BuildRows, parallelMinRows-1)
	}
}

// TestSharedCTERowsNotReordered: identity projections and the first FROM
// item share a CTE's row slice, so a branch that sorts and limits it must
// not disturb what another branch of the same statement reads.
func TestSharedCTERowsNotReordered(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "NUMS", intCol("N"))
	mustInsert(t, e, "NUMS", row(3), row(1), row(4), row(1), row(5), row(9), row(2), row(6))
	rows := mustQuery(t, e, `WITH T AS (SELECT N FROM NUMS),
		TOP AS (SELECT N FROM T ORDER BY N DESC LIMIT 3),
		LOW AS (SELECT N FROM T ORDER BY N LIMIT 2 OFFSET 1)
		SELECT N FROM TOP UNION ALL SELECT N FROM T UNION ALL SELECT N FROM LOW UNION ALL SELECT N FROM T`)
	var got []string
	for _, row := range rows.Data {
		got = append(got, fmt.Sprint(row[0].Int()))
	}
	want := "9 6 5 3 1 4 1 5 9 2 6 1 2 3 1 4 1 5 9 2 6"
	if strings.Join(got, " ") != want {
		t.Fatalf("CTE consumed by sorted and plain branches:\ngot  %s\nwant %s", strings.Join(got, " "), want)
	}
}

// TestHashJoinIntKeysMatchStringKeys: the BIGINT fast path must agree
// with canonical string keys, including when a non-integer key sends the
// join back to them (an integral DOUBLE still matches its BIGINT twin).
func TestHashJoinIntKeysMatchStringKeys(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "A", intCol("K"), strCol("P"))
	mustTable(t, e, "B", floatCol("K"), strCol("Q"))
	mustInsert(t, e, "A", row(1, "a1"), row(2, "a2"), row(nil, "an"), row(2, "a2b"), row(9, "a9"))
	mustInsert(t, e, "B", row(2.0, "b2"), row(1.5, "b15"), row(nil, "bn"), row(1.0, "b1"), row(2.0, "b2b"))
	mixed := queryForced(t, e, StrategyHash, 1, "SELECT A.P, B.Q FROM A JOIN B ON A.K = B.K")
	ref := queryForced(t, e, StrategyNestedLoop, 1, "SELECT A.P, B.Q FROM A JOIN B ON A.K = B.K")
	if len(ref.Data) != 5 || !sameStrings(rowsKeys(mixed), rowsKeys(ref)) {
		t.Fatalf("BIGINT x DOUBLE hash join = %v, nested loop = %v", rowsKeys(mixed), rowsKeys(ref))
	}
	ints := queryForced(t, e, StrategyHash, 1, "SELECT X.P, Y.P FROM A X LEFT JOIN A Y ON X.K = Y.K")
	ref = queryForced(t, e, StrategyNestedLoop, 1, "SELECT X.P, Y.P FROM A X LEFT JOIN A Y ON X.K = Y.K")
	if len(ref.Data) != 7 || !sameStrings(rowsKeys(ints), rowsKeys(ref)) {
		t.Fatalf("BIGINT self join = %v, nested loop = %v", rowsKeys(ints), rowsKeys(ref))
	}
}
