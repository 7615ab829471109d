package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlgraph/internal/rel"
)

// rowsKey renders a result set as one sortable string per row so result
// sets can be compared either order-sensitively or as multisets.
func rowsKeys(rows *Rows) []string {
	out := make([]string, 0, len(rows.Data))
	for _, row := range rows.Data {
		var sb strings.Builder
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.Key())
		}
		out = append(out, sb.String())
	}
	return out
}

func sortedKeys(rows *Rows) []string {
	ks := rowsKeys(rows)
	sort.Strings(ks)
	return ks
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newJoinEngine builds two non-indexed tables L and R with randomized
// contents: join keys drawn from a small domain (so there are dense
// matches), occasional NULL keys, and a payload column.
func newJoinEngine(t testing.TB, seed int64, nLeft, nRight int) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "L", intCol("K"), strCol("P"))
	mustTable(t, e, "R", intCol("K"), strCol("Q"))
	rng := rand.New(rand.NewSource(seed))
	insert := func(table string, n int, payload string) {
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 { // NULL join key: must never match
				mustInsert(t, e, table, row(nil, fmt.Sprintf("%s%d", payload, i)))
				continue
			}
			mustInsert(t, e, table, row(rng.Intn(40), fmt.Sprintf("%s%d", payload, i)))
		}
	}
	insert("L", nLeft, "l")
	insert("R", nRight, "r")
	return e
}

func queryForced(t testing.TB, e *Engine, force JoinStrategy, par int, sqlText string) *Rows {
	t.Helper()
	e.SetExecOptions(ExecOptions{Parallelism: par, ForceJoin: force})
	rows, err := e.Query(sqlText)
	if err != nil {
		t.Fatalf("query (force=%q par=%d): %v", force, par, err)
	}
	return rows
}

// TestJoinStrategyEquivalence runs the same randomized equi-joins under
// every strategy (and serial vs parallel) and requires identical result
// multisets, with inner-join output additionally byte-identical in order.
func TestJoinStrategyEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		e := newJoinEngine(t, seed, 90, 130)
		for _, q := range []string{
			"SELECT L.K, L.P, R.Q FROM L JOIN R ON L.K = R.K",
			"SELECT L.K, L.P, R.Q FROM L LEFT JOIN R ON L.K = R.K",
			"SELECT L.P, R.Q FROM L JOIN R ON L.K = R.K WHERE R.Q <> 'r3'",
		} {
			ref := queryForced(t, e, StrategyNestedLoop, 1, q)
			for _, force := range []JoinStrategy{StrategyHash, StrategyAuto} {
				for _, par := range []int{1, 4} {
					got := queryForced(t, e, force, par, q)
					if !sameStrings(rowsKeys(ref), rowsKeys(got)) {
						t.Fatalf("seed %d force=%q par=%d: rows differ from nested-loop reference for %s\nref=%v\ngot=%v",
							seed, force, par, q, sortedKeys(ref), sortedKeys(got))
					}
				}
			}
		}
	}
}

// TestJoinStrategyEquivalenceIndexed adds an index on the probe side so
// index-NL is eligible, and checks it agrees with hash and nested-loop
// as a multiset (index-NL visits probe matches in index order, so row
// order may differ).
func TestJoinStrategyEquivalenceIndexed(t *testing.T) {
	e := newJoinEngine(t, 7, 80, 120)
	mustIndex(t, e, "R_K", "R", "K")
	q := "SELECT L.K, L.P, R.Q FROM L JOIN R ON L.K = R.K"
	ref := queryForced(t, e, StrategyNestedLoop, 1, q)
	auto := queryForced(t, e, StrategyAuto, 1, q)
	hash := queryForced(t, e, StrategyHash, 4, q)
	if got := auto.Stats.JoinStrategies(); len(got) != 1 || got[0] != StrategyIndexNL {
		t.Fatalf("auto strategy with index available = %v, want [index-nl]", got)
	}
	if !sameStrings(sortedKeys(ref), sortedKeys(auto)) {
		t.Fatalf("index-nl result differs from nested-loop:\nref=%v\ngot=%v", sortedKeys(ref), sortedKeys(auto))
	}
	if !sameStrings(sortedKeys(ref), sortedKeys(hash)) {
		t.Fatalf("hash result differs from nested-loop:\nref=%v\ngot=%v", sortedKeys(ref), sortedKeys(hash))
	}
}

// TestHashJoinChosenForNonIndexedEquiJoin asserts the planner's default:
// no usable index on the join key means a hash join, not a nested loop.
func TestHashJoinChosenForNonIndexedEquiJoin(t *testing.T) {
	e := newJoinEngine(t, 11, 50, 60)
	rows := queryForced(t, e, StrategyAuto, 0, "SELECT L.P, R.Q FROM L JOIN R ON L.K = R.K")
	got := rows.Stats.JoinStrategies()
	if len(got) != 1 || got[0] != StrategyHash {
		t.Fatalf("join strategies = %v, want [hash]\nstats:\n%s", got, rows.Stats.String())
	}
	j := rows.Stats.Joins[0]
	if j.BuildRows == 0 || j.ProbeRows == 0 || j.OutRows != len(rows.Data) {
		t.Fatalf("implausible hash-join stats: %+v (rows=%d)", j, len(rows.Data))
	}
}

// TestHashJoinNullKeys checks SQL NULL semantics: NULL join keys match
// nothing in inner joins and null-pad in LEFT joins, under every
// strategy.
func TestHashJoinNullKeys(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "L", intCol("K"), strCol("P"))
	mustTable(t, e, "R", intCol("K"), strCol("Q"))
	mustInsert(t, e, "L", row(1, "a"), row(nil, "b"), row(2, "c"))
	mustInsert(t, e, "R", row(1, "x"), row(nil, "y"))
	for _, force := range []JoinStrategy{StrategyAuto, StrategyHash, StrategyNestedLoop} {
		inner := queryForced(t, e, force, 1, "SELECT L.P, R.Q FROM L JOIN R ON L.K = R.K")
		if want := []string{"\x03a|\x03x"}; !sameStrings(sortedKeys(inner), want) {
			t.Fatalf("force=%q inner join = %q, want %q", force, sortedKeys(inner), want)
		}
		left := queryForced(t, e, force, 1, "SELECT L.P, R.Q FROM L LEFT JOIN R ON L.K = R.K")
		if len(left.Data) != 3 {
			t.Fatalf("force=%q left join returned %d rows, want 3", force, len(left.Data))
		}
		padded := 0
		for _, row := range left.Data {
			if row[1].IsNull() {
				padded++
			}
		}
		if padded != 2 {
			t.Fatalf("force=%q left join null-padded %d rows, want 2 (NULL key + unmatched)", force, padded)
		}
	}
}

// TestLeftJoinEmptyBuildSide: LEFT join against an empty table must
// null-pad every left row regardless of strategy or build-side choice.
func TestLeftJoinEmptyBuildSide(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "L", intCol("K"), strCol("P"))
	mustTable(t, e, "R", intCol("K"), strCol("Q"))
	mustInsert(t, e, "L", row(1, "a"), row(2, "b"))
	for _, force := range []JoinStrategy{StrategyAuto, StrategyHash, StrategyNestedLoop} {
		rows := queryForced(t, e, force, 2, "SELECT L.P, R.Q FROM L LEFT JOIN R ON L.K = R.K")
		if len(rows.Data) != 2 {
			t.Fatalf("force=%q: %d rows, want 2", force, len(rows.Data))
		}
		for _, row := range rows.Data {
			if !row[1].IsNull() {
				t.Fatalf("force=%q: expected null-padded right column, got %v", force, row[1])
			}
		}
		// Inner join against the empty side yields nothing.
		inner := queryForced(t, e, force, 2, "SELECT L.P, R.Q FROM L JOIN R ON L.K = R.K")
		if len(inner.Data) != 0 {
			t.Fatalf("force=%q inner join vs empty table: %d rows, want 0", force, len(inner.Data))
		}
	}
}

// TestMorselEdgeCases covers the scheduler's degenerate inputs: empty
// tables, single rows, and row counts straddling the morsel boundary.
func TestMorselEdgeCases(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "T", intCol("N"))
	check := func(wantRows int) {
		t.Helper()
		for _, par := range []int{0, 1, 3} {
			rows := queryForced(t, e, StrategyAuto, par, "SELECT N FROM T WHERE N >= 0")
			if len(rows.Data) != wantRows {
				t.Fatalf("par=%d: %d rows, want %d", par, len(rows.Data), wantRows)
			}
			for i, row := range rows.Data {
				if row[0].Int() != int64(i) {
					t.Fatalf("par=%d: row %d = %d, out of order", par, i, row[0].Int())
				}
			}
		}
	}
	check(0) // empty table
	mustInsert(t, e, "T", row(0))
	check(1) // single row
	for n := 1; n < morselRows+5; n++ {
		mustInsert(t, e, "T", row(n))
	}
	check(morselRows + 5) // straddles one morsel boundary
}

// TestParallelScanDeterminism: a morsel-parallel scan+filter must emit
// byte-identical rows in the same order as serial execution, and fan out
// exactly from parallelMinRows rows on — one row below the gate the scan
// stays serial however many workers it is offered, so the assertions hold
// at any GOMAXPROCS.
func TestParallelScanDeterminism(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "T", intCol("N"), strCol("S"))
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			mustInsert(t, e, "T", row(i, fmt.Sprintf("s%d", i%97)))
		}
	}
	q := "SELECT N, S FROM T WHERE N % 3 = 0 AND S <> 's5'"
	check := func(wantWorkers int) {
		t.Helper()
		serial := queryForced(t, e, StrategyAuto, 1, q)
		par := queryForced(t, e, StrategyAuto, 4, q)
		if !sameStrings(rowsKeys(serial), rowsKeys(par)) {
			t.Fatal("parallel scan output differs from serial")
		}
		if got := par.Stats.MaxWorkers(); got != wantWorkers {
			t.Fatalf("Parallelism=4 over %d rows used %d workers, want %d, stats:\n%s", par.Stats.Scans[0].RowsIn, got, wantWorkers, par.Stats.String())
		}
		if serial.Stats.MaxWorkers() != 1 {
			t.Fatalf("Parallelism=1 must stay serial, stats:\n%s", serial.Stats.String())
		}
	}
	insert(0, parallelMinRows-1)
	check(1) // one row short of the gate
	insert(parallelMinRows-1, parallelMinRows)
	check(4) // at the gate: parallelMinRows/morselRows morsels, one worker each
	// The default budget is GOMAXPROCS workers, capped by the morsel count.
	auto := queryForced(t, e, StrategyAuto, 0, q)
	if want := min(runtime.GOMAXPROCS(0), parallelMinRows/morselRows); auto.Stats.MaxWorkers() != want {
		t.Fatalf("Parallelism=0 used %d workers, want %d, stats:\n%s", auto.Stats.MaxWorkers(), want, auto.Stats.String())
	}
}

// TestRegisterFuncRace exercises concurrent RegisterFunc against queries
// that call scalar functions; run under -race this used to report a data
// race on the engine's funcs map.
func TestRegisterFuncRace(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "T", intCol("N"))
	mustInsert(t, e, "T", row(1), row(2), row(3), row(4))
	e.RegisterFunc("DOUBLEIT", func(args []rel.Value) (rel.Value, error) {
		return rel.NewInt(args[0].Int() * 2), nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					e.RegisterFunc(fmt.Sprintf("F_%d_%d", w, i), func(args []rel.Value) (rel.Value, error) {
						return args[0], nil
					})
					continue
				}
				rows, err := e.Query("SELECT DOUBLEIT(N) FROM T WHERE N > 1")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(rows.Data) != 3 {
					t.Errorf("got %d rows, want 3", len(rows.Data))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentQueries runs parallel-executing queries from several
// goroutines at once: the engine-level locks plus per-query state must
// keep them independent.
func TestConcurrentQueries(t *testing.T) {
	e := newJoinEngine(t, 23, 200, 200)
	ref := queryForced(t, e, StrategyAuto, 0, "SELECT L.P, R.Q FROM L JOIN R ON L.K = R.K")
	want := rowsKeys(ref)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rows, err := e.Query("SELECT L.P, R.Q FROM L JOIN R ON L.K = R.K")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if !sameStrings(want, rowsKeys(rows)) {
					t.Error("concurrent query returned different rows")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestOrderLimitTopK: ORDER BY with a LIMIT keeps only OFFSET+LIMIT rows
// while it sorts; what it returns must be exactly the full sort cut to
// [OFFSET, OFFSET+LIMIT) — equal keys (the key domain is tiny) in input
// order, NULL keys where the full sort puts them, either direction —
// serially and under morsel parallelism.
func TestOrderLimitTopK(t *testing.T) {
	e := newJoinEngine(t, 11, 150, 0)
	for _, order := range []string{"K", "K DESC", "K, P", "K DESC, P DESC", "P DESC"} {
		for _, cut := range [][2]int{{0, 0}, {0, 1}, {0, 7}, {3, 10}, {140, 20}, {150, 5}, {400, 3}, {0, 150}, {0, 1000}, {10, 0}} {
			off, lim := cut[0], cut[1]
			for _, par := range []int{1, 4} {
				full := rowsKeys(queryForced(t, e, StrategyAuto, par, "SELECT K, P FROM L ORDER BY "+order))
				want := full[min(off, len(full)):min(off+lim, len(full))]
				q := fmt.Sprintf("SELECT K, P FROM L ORDER BY %s LIMIT %d OFFSET %d", order, lim, off)
				if got := rowsKeys(queryForced(t, e, StrategyAuto, par, q)); !slices.Equal(got, want) {
					t.Fatalf("par=%d %s:\n got %v\nwant %v", par, q, got, want)
				}
				// The translator's shape: the sort is a CTE its projection reads.
				q = fmt.Sprintf("WITH T1 AS (SELECT P AS VAL, K AS OKEY FROM L), T2 AS (SELECT VAL, OKEY FROM T1 ORDER BY %s LIMIT %d OFFSET %d) SELECT OKEY, VAL FROM T2",
					strings.NewReplacer("K", "OKEY", "P", "VAL").Replace(order), lim, off)
				if got := rowsKeys(queryForced(t, e, StrategyAuto, par, q)); !slices.Equal(got, want) {
					t.Fatalf("par=%d %s:\n got %v\nwant %v", par, q, got, want)
				}
			}
		}
	}
}
