package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/stats"
)

// newPlannerEngine builds a two-table schema where cost-based reordering
// has a clear win: BIG carries an index on its join column, so scanning
// the filtered SMALL side first and probing BIG's index beats the
// syntactic order (scan all of BIG, then hash SMALL).
func newPlannerEngine(t *testing.T, rows int) *Engine {
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

const plannerQuery = "SELECT BIG.V FROM BIG, SMALL WHERE BIG.K = SMALL.K AND SMALL.ID = 3 ORDER BY BIG.V"

func TestPlannerReordersToIndexProbe(t *testing.T) {
	e := newPlannerEngine(t, 2000)

	r, err := e.Query(plannerQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != 1 || r.Data[0][0].Int() != 300*7 {
		t.Fatalf("wrong result: %v", r.Data)
	}
	if r.Stats.PlanVariants != 2 {
		t.Fatalf("PlanVariants = %d, want 2", r.Stats.PlanVariants)
	}
	if len(r.Stats.Joins) != 1 {
		t.Fatalf("joins = %+v", r.Stats.Joins)
	}
	j := r.Stats.Joins[0]
	// The planner must flip the order: SMALL is scanned first, BIG joined
	// in via its K index.
	if j.Table != "BIG" || j.Strategy != StrategyIndexNL {
		t.Fatalf("join = %+v, want index-nl into BIG", j)
	}
	if j.EstRows < 0 || j.EstCost < 0 {
		t.Fatalf("planner estimates not stamped: %+v", j)
	}
	if j.AltStrategy != StrategyHash || j.AltCost < 0 {
		t.Fatalf("losing alternative not reported: %+v", j)
	}
	if len(r.Stats.Scans) == 0 || r.Stats.Scans[0].Table != "SMALL" {
		t.Fatalf("scans = %+v, want SMALL scanned first", r.Stats.Scans)
	}
	if r.Stats.Scans[0].EstRows < 0 {
		t.Fatalf("scan estimate not stamped: %+v", r.Stats.Scans[0])
	}

	out := r.Stats.String()
	for _, want := range []string{"est=", "cost=", "alt=hash(cost="} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExecStats.String() missing %q:\n%s", want, out)
		}
	}
}

func TestPlannerForcePlanPinsOrder(t *testing.T) {
	e := newPlannerEngine(t, 500)

	// ForcePlan -1: legacy syntactic order (SMALL hash-joined into BIG).
	e.SetExecOptions(ExecOptions{ForcePlan: -1})
	r, err := e.Query(plannerQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.PlanVariants != 0 {
		t.Fatalf("ForcePlan=-1 still planned: variants=%d", r.Stats.PlanVariants)
	}
	if len(r.Stats.Joins) != 1 || r.Stats.Joins[0].Table != "SMALL" {
		t.Fatalf("syntactic order not preserved: %+v", r.Stats.Joins)
	}
	want := r.Data

	// Every pinned order and forced strategy returns identical rows.
	for k := 1; k <= 2; k++ {
		for _, force := range []JoinStrategy{StrategyAuto, StrategyHash, StrategyNestedLoop} {
			e.SetExecOptions(ExecOptions{ForcePlan: k, ForceJoin: force})
			r, err := e.Query(plannerQuery)
			if err != nil {
				t.Fatalf("ForcePlan=%d ForceJoin=%q: %v", k, force, err)
			}
			if !sameRows(r.Data, want) {
				t.Fatalf("ForcePlan=%d ForceJoin=%q diverged: %v vs %v", k, force, r.Data, want)
			}
			wantJoined := "SMALL" // pinned order 1 = syntactic: BIG scanned, SMALL joined in
			if k == 2 {
				wantJoined = "BIG"
			}
			if got := r.Stats.Joins[0].Table; got != wantJoined {
				t.Fatalf("ForcePlan=%d joined %s in, want %s", k, got, wantJoined)
			}
		}
	}
	// Pinned orders wrap modulo the enumeration count.
	e.SetExecOptions(ExecOptions{ForcePlan: 3})
	r, err = e.Query(plannerQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Joins[0].Table != "SMALL" {
		t.Fatalf("ForcePlan=3 should wrap to order 1: %+v", r.Stats.Joins)
	}
}

func TestPlannerDeclinesUnsafeReorders(t *testing.T) {
	e := newPlannerEngine(t, 50)

	// A bare column name both core relations own makes pushdown
	// order-sensitive; the planner must leave the FROM order alone.
	r, err := e.Query("SELECT BIG.V FROM BIG, SMALL WHERE K >= 0 AND BIG.K = SMALL.K")
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.PlanVariants != 0 {
		t.Fatalf("reordered despite ambiguous bare column: variants=%d", r.Stats.PlanVariants)
	}
}

func TestLegacyAltStrategyReported(t *testing.T) {
	e := newPlannerEngine(t, 100)
	e.SetStatsProvider(nil) // legacy heuristic planning

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
	if j.EstRows != -1 || j.AltCost != -1 {
		t.Fatalf("legacy join must not fake estimates: %+v", j)
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
	e := newPlannerEngine(t, 30)
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

func TestPlannerEnumerationBounds(t *testing.T) {
	if got := len(enumerateOrders(3)); got != 6 {
		t.Fatalf("enumerateOrders(3) = %d orders", got)
	}
	if got := enumerateOrders(maxExhaustiveRels + 1); got != nil {
		t.Fatalf("enumerateOrders past bound returned %d orders", len(got))
	}
	orders := enumerateOrders(4)
	if !reflect.DeepEqual(orders[0], []int{0, 1, 2, 3}) {
		t.Fatalf("identity must come first: %v", orders[0])
	}
	seen := map[string]bool{}
	for _, o := range orders {
		seen[fmt.Sprint(o)] = true
	}
	if len(seen) != 24 {
		t.Fatalf("duplicate orders: %d distinct of %d", len(seen), len(orders))
	}
}

// TestPlanCacheBounded: plans are keyed by statement node, so a client
// that mints statements — here a key that never repeats, which the layer
// above cannot fold into one shape — must not accumulate them; and one
// statement executed with arguments of every magnitude holds a bounded
// number of plans.
func TestPlanCacheBounded(t *testing.T) {
	e := newPlannerEngine(t, 50)
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
	sel := mustSelect(t, plannerQuery)
	before := e.PlanCacheStats().Hits
	for i := 0; i < 3; i++ {
		if _, err := e.QueryStmtAt(sel, rel.Latest, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.PlanCacheStats().Hits - before; got != 2 {
		t.Fatalf("prepared statement after the cache was emptied: %d plan-cache hits in 3 runs, want 2", got)
	}

	// One statement, id lists of every order of magnitude.
	bound := mustSelect(t, "SELECT BIG.V FROM BIG, SMALL WHERE BIG.K = SMALL.K AND SMALL.ID IN (?)")
	for n := 1; n <= 1<<(maxPlanVariants+4); n *= 2 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i % 10)
		}
		r, err := e.QueryStmtAt(bound, rel.Latest, []Arg{{IDs: ids}})
		if err != nil || len(r.Data) != 1 { // SMALL's row 0 is the one with a partner in BIG
			t.Fatalf("IN (?) with %d ids: %v rows, %v", n, r, err)
		}
	}
	c, ok := e.planCache.Load(bound.Body)
	if !ok {
		t.Fatal("no plans cached for the bound statement")
	}
	if got := len(c.(*planCacheEntry).variants); got != maxPlanVariants {
		t.Fatalf("%d plans held for one core after %d magnitudes of arguments, cap %d", got, maxPlanVariants+5, maxPlanVariants)
	}
}

// TestPlannerParamSelectivity: a parameter is folded into a selectivity
// like the literal it stands for. sql.Param.Index counts from 0; the
// planner used to read params[Index-1], so a statement's first ? was
// never folded and every later one was estimated from its neighbour's
// value.
func TestPlannerParamSelectivity(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "T", intCol("A"), intCol("B"))
	mustUniqueIndex(t, e, "T_A", "T", "A")
	mustTable(t, e, "U", intCol("K"), intCol("W"))
	coll := stats.NewCollection(e.Catalog(), stats.Config{Tables: []stats.TableSpec{
		{Name: "T", NDVCols: []int{0, 1}, GroupCol: 1}, // B partitions T: 3 values, skewed
		{Name: "U", NDVCols: []int{0}, GroupCol: -1},
	}})
	e.Catalog().SetChangeObserver(coll)
	e.SetStatsProvider(coll)
	for i := 0; i < 1000; i++ {
		b := 0
		switch {
		case i%20 == 0:
			b = 2
		case i%4 == 1:
			b = 1
		}
		mustInsert(t, e, "T", row(i, b))
		mustInsert(t, e, "U", row(i%50, i))
	}
	estimates := func(r *Rows) string {
		var sb strings.Builder
		for _, s := range r.Stats.Scans {
			fmt.Fprintf(&sb, "scan %s %s est=%d; ", s.Table, s.Access, s.EstRows)
		}
		for _, j := range r.Stats.Joins {
			fmt.Fprintf(&sb, "join %s %s est=%d cost=%.1f; ", j.Table, j.Strategy, j.EstRows, j.EstCost)
		}
		return sb.String()
	}
	for _, c := range []struct {
		literal, param string
		args           []any
	}{
		{"SELECT U.W FROM T, U WHERE T.A = 40 AND T.B = 2 AND U.K = T.A",
			"SELECT U.W FROM T, U WHERE T.A = ? AND T.B = ? AND U.K = T.A", []any{int64(40), int64(2)}},
		{"SELECT U.W FROM T, U WHERE T.B = 1 AND T.A = 5 AND U.K = T.A",
			"SELECT U.W FROM T, U WHERE T.B = ? AND T.A = ? AND U.K = T.A", []any{int64(1), int64(5)}},
		{"SELECT U.W FROM T, U WHERE T.B = 2 AND U.K = T.A",
			"SELECT U.W FROM T, U WHERE T.B = ? AND U.K = T.A", []any{int64(2)}},
	} {
		lit, err := e.Query(c.literal)
		if err != nil {
			t.Fatal(err)
		}
		par, err := e.Query(c.param, c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(lit.Data, par.Data) {
			t.Fatalf("%s: rows differ from the literal statement's", c.param)
		}
		want, got := estimates(lit), estimates(par)
		if want == "" || !strings.Contains(want, "est=") {
			t.Fatalf("%s: no estimates recorded: %q", c.literal, want)
		}
		if got != want {
			t.Fatalf("%s with %v:\n  estimates %s\n  literal   %s", c.param, c.args, got, want)
		}
	}
}
