package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/stats"
)

// newTwoTableEngine builds a two-table schema with statistics attached:
// BIG carries an index on its join column K, SMALL has none, so a join
// that brings BIG in probes its index and one that brings SMALL in hashes
// it.
func newTwoTableEngine(t *testing.T, rows int) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "BIG", intCol("K"), intCol("V"))
	mustIndex(t, e, "BIG_K", "BIG", "K")
	mustTable(t, e, "SMALL", intCol("K"), intCol("ID"))

	// Attach stats before loading so the commit observer maintains them.
	coll := stats.NewCollection(e.Catalog(), stats.Config{Tables: []stats.TableSpec{
		{Name: "BIG", NDVCols: []int{0, 1}},
		{Name: "SMALL", NDVCols: []int{0, 1}},
	}})
	e.Catalog().SetChangeObserver(coll)
	e.SetStatsProvider(coll)

	for i := 0; i < rows; i++ {
		mustInsert(t, e, "BIG", row(i, i*7))
	}
	for i := 0; i < 10; i++ {
		mustInsert(t, e, "SMALL", row(i*100, i))
	}
	return e
}

func TestLegacyAltStrategyReported(t *testing.T) {
	e := newTwoTableEngine(t, 100)

	// Equi-join with an index on the joined-in side: index-NL runs, hash
	// was the alternative.
	r, err := e.Query("SELECT BIG.V FROM SMALL, BIG WHERE BIG.K = SMALL.K AND SMALL.ID = 3")
	if err != nil {
		t.Fatal(err)
	}
	j := r.Stats.Joins[0]
	if j.Strategy != StrategyIndexNL || j.AltStrategy != StrategyHash {
		t.Fatalf("legacy index join alt = %+v", j)
	}

	// Equi-join without a usable index: hash runs, nested-loop was the
	// alternative.
	r, err = e.Query("SELECT BIG.V FROM SMALL, BIG WHERE SMALL.ID = BIG.V")
	if err != nil {
		t.Fatal(err)
	}
	j = r.Stats.Joins[0]
	if j.Strategy != StrategyHash || j.AltStrategy != StrategyNestedLoop {
		t.Fatalf("legacy hash join alt = %+v", j)
	}

	// Forced nested loop demotes the equi-term; hash is the alternative.
	e.SetExecOptions(ExecOptions{ForceJoin: StrategyNestedLoop})
	r, err = e.Query("SELECT BIG.V FROM SMALL, BIG WHERE SMALL.ID = BIG.V")
	if err != nil {
		t.Fatal(err)
	}
	j = r.Stats.Joins[0]
	if j.Strategy != StrategyNestedLoop || j.AltStrategy != StrategyHash {
		t.Fatalf("forced nested-loop alt = %+v", j)
	}
	if !strings.Contains(r.Stats.String(), "alt=hash") {
		t.Fatalf("String() missing alt: %s", r.Stats.String())
	}
}

func TestCTEStats(t *testing.T) {
	e := newTwoTableEngine(t, 30)
	r, err := e.Query("WITH FRONTIER AS (SELECT K FROM SMALL) SELECT COUNT(*) FROM FRONTIER")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stats.CTEs) != 1 {
		t.Fatalf("CTEs = %+v", r.Stats.CTEs)
	}
	c := r.Stats.CTEs[0]
	if c.Name != "FRONTIER" || c.Rows != 10 || !c.Fused {
		t.Fatalf("CTEStat = %+v", c)
	}
	if !strings.Contains(r.Stats.String(), "cte FRONTIER fused act=10") {
		t.Fatalf("String() missing cte line: %s", r.Stats.String())
	}
}

// TestForceJoinStampsPlan: ForceJoin is part of a core's plan stamp. One
// statement run under auto, hash and nested-loop in turn, twice over,
// reports each time the strategy its option asks for — never the one a
// plan prepared under another option fixed — and answers byte-identical
// rows.
func TestForceJoinStampsPlan(t *testing.T) {
	e := newTwoTableEngine(t, 2000)
	defer e.SetExecOptions(ExecOptions{})
	sel := mustSelect(t, "SELECT BIG.V, SMALL.ID FROM SMALL, BIG WHERE BIG.K = SMALL.K AND SMALL.ID < 5 ORDER BY BIG.V")
	// Auto probes BIG's index from the filtered SMALL side.
	want := map[JoinStrategy]JoinStrategy{StrategyAuto: StrategyIndexNL, StrategyHash: StrategyHash, StrategyNestedLoop: StrategyNestedLoop}
	first := ""
	for round := 0; round < 2; round++ {
		for _, force := range []JoinStrategy{StrategyAuto, StrategyHash, StrategyNestedLoop} {
			e.SetExecOptions(ExecOptions{ForceJoin: force})
			r, err := e.QueryStmtAt(sel, rel.Latest, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Stats.JoinStrategies(); len(got) != 1 || got[0] != want[force] {
				t.Fatalf("round %d, ForceJoin %q: ran %v, want %s", round, force, got, want[force])
			}
			rows := rowsText(r)
			if first == "" {
				first = rows
			}
			if rows != first || len(r.Data) != 5 {
				t.Fatalf("round %d, ForceJoin %q: %d rows %q, want the %q of the first run", round, force, len(r.Data), rows, first)
			}
		}
	}
}

// TestPlanCacheBounded: plans are keyed by statement node, so a client
// that mints statements — here a key that never repeats, which the layer
// above cannot fold into one shape — must not accumulate them; and one
// statement executed at more snapshots than a core keeps plans for holds
// a bounded number of them.
func TestPlanCacheBounded(t *testing.T) {
	e := newTwoTableEngine(t, 50)
	for i := 0; i < maxCachedPlans+10; i++ {
		minted := fmt.Sprintf("SELECT BIG.V, BIG.K AS K%d FROM BIG, SMALL WHERE BIG.K = SMALL.K AND SMALL.ID = 3 ORDER BY BIG.V", i)
		if _, err := e.Query(minted); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	e.planCache.Range(func(_, _ any) bool { n++; return true })
	if n == 0 || n > maxCachedPlans {
		t.Fatalf("plan cache holds %d entries after %d one-shot statements, cap %d", n, maxCachedPlans+10, maxCachedPlans)
	}
	sel := mustSelect(t, "SELECT BIG.V FROM SMALL, BIG WHERE BIG.K = SMALL.K AND SMALL.ID = 3 ORDER BY BIG.V")
	before := e.PlanCacheStats().Hits
	for i := 0; i < 3; i++ {
		if _, err := e.QueryStmtAt(sel, rel.Latest, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.PlanCacheStats().Hits - before; got != 2 {
		t.Fatalf("prepared statement after the cache was emptied: %d plan-cache hits in 3 runs, want 2", got)
	}

	// One statement, read at snapshots of every version a writer leaves.
	bound := mustSelect(t, "SELECT BIG.V FROM SMALL, BIG WHERE BIG.K = SMALL.K AND SMALL.ID IN (?)")
	for i := 0; i < maxPlanVariants+4; i++ {
		mustInsert(t, e, "SMALL", row(10_000+i, 100+i))
		ver := e.Catalog().Pin()
		r, err := e.QueryStmtAt(bound, ver, []Arg{{IDs: []int64{0, 3}}})
		e.Catalog().Unpin(ver)
		if err != nil || len(r.Data) != 1 { // SMALL's row 0 is the one with a partner in BIG
			t.Fatalf("snapshot %d: %v rows, %v", i, r, err)
		}
	}
	c, ok := e.planCache.Load(bound.Body)
	if !ok {
		t.Fatal("no plans cached for the bound statement")
	}
	if got := len(c.(*planCacheEntry).variants); got != maxPlanVariants {
		t.Fatalf("%d plans held for one core after %d snapshots, cap %d", got, maxPlanVariants+4, maxPlanVariants)
	}
}

// TestPlannerParamSelectivity: a parameter is folded into the selectivity
// an access path is costed from like the literal it stands for, so a
// bound statement reads the table by the path its literal statement
// takes: an index range where the bound keeps few rows, the full scan
// where it keeps most.
func TestPlannerParamSelectivity(t *testing.T) {
	e := newAccessPathEngine(t, true)
	for _, c := range []struct {
		bound  int64
		access string
	}{{1990, "index-range"}, {1000, "full-scan"}, {0, "full-scan"}, {-5, "full-scan"}, {1999, "index-range"}} {
		lit, err := e.Query(fmt.Sprintf("SELECT ID FROM T WHERE ID >= %d", c.bound))
		if err != nil {
			t.Fatal(err)
		}
		par, err := e.Query("SELECT ID FROM T WHERE ID >= ?", c.bound)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(lit.Data, par.Data) {
			t.Fatalf("ID >= ? with %d: rows differ from the literal statement's", c.bound)
		}
		if got, want := par.Stats.Scans[0].Access, lit.Stats.Scans[0].Access; got != want || got != c.access {
			t.Fatalf("ID >= ? with %d: read by %s, the literal statement by %s, want %s", c.bound, got, want, c.access)
		}
	}
}
