package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sqlgraph/internal/rel"
)

// TestOrderCutAcrossMorsels: ORDER BY, OFFSET and LIMIT run as one
// terminal whose workers' heaps are merged in morsel order. The key has
// three values, so equal keys span every 8-row morsel's boundary; each
// answer is the cut of the full stable sort, row for row, on one worker
// and on four, whether the rows are a table's own, a projection's scratch
// rows, one-integer rows or stored ids.
func TestOrderCutAcrossMorsels(t *testing.T) {
	const n = 300
	e := New(rel.NewCatalog())
	mustTable(t, e, "T", intCol("ID"), intCol("K"))
	for i := 0; i < n; i++ {
		mustInsert(t, e, "T", row(i, i*7%3))
	}
	e.SetMorselSizesForTesting(8, 16)
	under150 := func(id int64) int {
		if id < 150 {
			return 1 // TRUE sorts after FALSE
		}
		return 0
	}
	bodies := []struct {
		sql, key string
		id       int             // the column holding ID
		keyOf    func(int64) int // the key's order, from ID
		stores   int             // rows stored ahead of the cut
	}{
		{"SELECT ID, K FROM T", "K", 0, func(id int64) int { return int(id * 7 % 3) }, 0},
		{"SELECT K, ID FROM T WHERE ID >= 0", "K", 1, func(id int64) int { return int(id * 7 % 3) }, 0},
		// One-integer rows, which a worker's buffer keeps as ids.
		{"SELECT ID FROM T WHERE K >= 0", "ID < 150", 0, under150, 0},
		// A DISTINCT's set, pushed as one-value scratch rows.
		{"WITH S AS (SELECT DISTINCT ID FROM T) SELECT ID FROM S", "ID < 150", 0, under150, n},
	}
	cuts := []struct{ limit, offset int64 }{
		{5, 0}, {5, 3}, {1, 0}, {0, 0}, {40, 95}, {7, 290}, {5, 400}, {math.MaxInt64, 2},
		{-1, 4},             // no LIMIT
		{9, -1},             // no OFFSET
		{-1, -1},            // neither
		{-3, math.MaxInt64}, // LIMIT -3: none
	}
	for _, b := range bodies {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		slices.SortStableFunc(sorted, func(x, y int64) int { return b.keyOf(x) - b.keyOf(y) })
		for _, c := range cuts {
			tail, lo, hi := "", 0, n
			if c.limit != -1 {
				tail += fmt.Sprintf(" LIMIT %d", c.limit)
			}
			if c.offset != -1 {
				tail += fmt.Sprintf(" OFFSET %d", c.offset)
				lo = int(min(c.offset, n))
			}
			if c.limit != -1 {
				hi = min(lo+int(min(max(c.limit, 0), n)), n)
			}
			for _, ordered := range []bool{true, false} {
				want, q := sorted[lo:hi], b.sql+tail
				if ordered {
					q = b.sql + " ORDER BY " + b.key + tail
				} else {
					want = make([]int64, hi-lo)
					for i := range want {
						want[i] = int64(lo + i)
					}
				}
				for _, par := range []int{1, 4} {
					rows := queryForced(t, e, StrategyAuto, par, q)
					got := make([]int64, len(rows.Data))
					for i, r := range rows.Data {
						got[i] = r[b.id].Int()
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s at par=%d:\n got %v\nwant %v", q, par, got, want)
					}
					// A scan fans out whatever its terminal; a stored head does
					// when the cut has keys to evaluate and rows to drop: a
					// LIMIT of math.MaxInt64 drops none.
					wantPar := par
					if b.stores > 0 && (!ordered || c.limit < 0 || c.limit == math.MaxInt64) {
						wantPar = 1
					}
					for _, p := range rows.Stats.Pipelines {
						if p.Op < 0 {
							continue
						}
						if k := rows.Stats.Ops[p.Op].Kind; (k == "sort" || k == "limit") && p.Workers != wantPar {
							t.Fatalf("%s at par=%d: ran on %d workers, want %d\n%s", q, par, p.Workers, wantPar, rows.Stats.String())
						}
					}
					if st := rows.Stats; st.MaterializedRows > b.stores+hi {
						t.Fatalf("%s at par=%d: stored %d rows for a cut at %d\n%s", q, par, st.MaterializedRows, hi, st.String())
					}
				}
			}
		}
	}
}

// TestLimitWithoutOrderStoresItsRows: a LIMIT with no ORDER BY over a scan
// returns the scan's first rows, and only they are stored, whatever the
// table's size.
func TestLimitWithoutOrderStoresItsRows(t *testing.T) {
	e := New(rel.NewCatalog())
	mustTable(t, e, "T", intCol("ID"), intCol("K"))
	for i := 0; i < 5000; i++ {
		mustInsert(t, e, "T", row(i, i%7))
	}
	for _, par := range []int{1, 4} {
		rows := queryForced(t, e, StrategyAuto, par, "SELECT K, ID FROM T WHERE K >= 0 LIMIT 6")
		if got := rowsText(rows); got != "0|0 1|1 2|2 3|3 4|4 5|5" {
			t.Fatalf("par=%d: %s", par, got)
		}
		if st := rows.Stats; st.MaterializedRows != 6 || st.Pipelines[0].Workers != par {
			t.Fatalf("par=%d: stored %d rows on %d workers\n%s", par, st.MaterializedRows, st.Pipelines[0].Workers, st.String())
		}
	}
}
