package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sqlgraph/internal/rel"
)

// distinctRows is the row count of newDistinctEngine's tables: well past
// the parallel threshold, so a pipe over them runs on several workers.
const distinctRows = 12000

// distinctVal is P.V for key k: 5 003 values from -2 500 up, 0 among
// them, each at keys 5 003 apart — in different morsels.
func distinctVal(k int) int64 { return int64(k*7919%5003 - 2500) }

// newDistinctEngine builds O(ID) with ids 0..distinctRows-1 and P(K, V)
// with an index on K and V = distinctVal(K), one P row per id.
func newDistinctEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(rel.NewCatalog())
	mustTable(t, e, "O", intCol("ID"))
	mustTable(t, e, "P", intCol("K"), intCol("V"))
	mustIndex(t, e, "P_K", "P", "K")
	for lo := 0; lo < distinctRows; lo += 500 {
		var o, p [][]any
		for k := lo; k < lo+500; k++ {
			o = append(o, row(k))
			p = append(p, row(k, distinctVal(k)))
		}
		mustInsert(t, e, "O", o...)
		mustInsert(t, e, "P", p...)
	}
	return e
}

// firstOccurrences returns the distinct values of distinctVal over keys,
// in the order they first occur.
func firstOccurrences(keys []int) string {
	seen := map[int64]bool{}
	var out []string
	for _, k := range keys {
		if v := distinctVal(k); !seen[v] {
			seen[v] = true
			out = append(out, fmt.Sprint(v))
		}
	}
	return strings.Join(out, " ")
}

func keyRange(lo, hi, step int) []int {
	var keys []int
	for k := lo; k != hi; k += step {
		keys = append(keys, k)
	}
	return keys
}

// dedupOrder returns the order the statement's only DISTINCT reported.
func dedupOrder(t *testing.T, rows *Rows) string {
	t.Helper()
	order := ""
	for _, op := range rows.Stats.Ops {
		if op.Kind == "dedup" {
			if order != "" {
				t.Fatalf("two dedup operators:\n%s", rows.Stats.String())
			}
			order = op.Order
		}
	}
	return order
}

// TestDistinctAscendingAnyParallelism: a DISTINCT over one integer column
// of order-free input comes out ascending, and byte-identical on one, two
// and four workers, though its duplicates span morsels and the morsels'
// buffers hand the terminal ids rather than rows.
func TestDistinctAscendingAnyParallelism(t *testing.T) {
	e := newDistinctEngine(t)
	var want []int64
	for v := int64(-2500); v < 2503; v++ {
		want = append(want, v)
	}
	for _, q := range []string{
		"SELECT DISTINCT P.V FROM O, P WHERE P.K = O.ID",
		"SELECT P.V FROM O, P WHERE P.K = O.ID AND O.ID < 6000 UNION SELECT P.V FROM O, P WHERE P.K = O.ID AND O.ID >= 6000",
	} {
		var first string
		for _, par := range []int{1, 2, 4} {
			rows := queryForced(t, e, StrategyAuto, par, q)
			got := make([]int64, len(rows.Data))
			for i, row := range rows.Data {
				got[i] = row[0].Int()
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s par=%d: %d rows, want the %d values -2500..2502 ascending", q, par, len(got), len(want))
			}
			if o := dedupOrder(t, rows); o != OrderAscending {
				t.Fatalf("%s par=%d: dedup order %q", q, par, o)
			}
			for _, j := range rows.Stats.Joins {
				if j.Strategy != StrategyIndexNL || j.Workers != par {
					t.Fatalf("%s par=%d: join %s on %d workers, want index-nl on %d", q, par, j.Strategy, j.Workers, par)
				}
			}
			if text := rowsText(rows); first == "" {
				first = text
			} else if text != first {
				t.Fatalf("%s: par=%d output differs from par=1", q, par)
			}
		}
	}
}

// TestDistinctMixedRows: a NULL, a string and an integral DOUBLE arriving
// mid-stream in an integer column keep every distinct row once — the
// DOUBLE is the integer it equals — at any worker count; and 1 and 1.0
// are one row wherever they meet.
func TestDistinctMixedRows(t *testing.T) {
	e := newDistinctEngine(t)
	q := `SELECT DISTINCT CASE WHEN O.ID = 7000 THEN NULL WHEN O.ID = 9000 THEN 'x' WHEN O.ID = 8000 THEN P.V + 0.0 ELSE P.V END AS V
		FROM O, P WHERE P.K = O.ID`
	want := map[string]bool{"NULL": true, "x": true}
	for k := 0; k < distinctRows; k++ {
		if k != 7000 && k != 9000 {
			want[fmt.Sprint(distinctVal(k))] = true
		}
	}
	var first string
	for _, par := range []int{1, 2, 4} {
		rows := queryForced(t, e, StrategyAuto, par, q)
		got := map[string]bool{}
		for _, row := range rows.Data {
			s := row[0].String()
			if got[s] || !want[s] {
				t.Fatalf("par=%d: %q twice or unexpected", par, s)
			}
			got[s] = true
		}
		if len(got) != len(want) {
			t.Fatalf("par=%d: %d distinct rows, want %d", par, len(got), len(want))
		}
		if o := dedupOrder(t, rows); o != OrderFirstOccurrence {
			t.Fatalf("par=%d: dedup order %q, want first-occurrence once a row is not an integer", par, o)
		}
		if text := rowsText(rows); first == "" {
			first = text
		} else if text != first {
			t.Fatalf("par=%d output differs from par=1", par)
		}
	}

	mustTable(t, e, "A", floatCol("X"))
	mustTable(t, e, "B", intCol("Y"))
	mustInsert(t, e, "A", row(1.0), row(2.5), row(nil), row(3.0))
	mustInsert(t, e, "B", row(1), row(2), row(3), row(3))
	for q, want := range map[string]string{
		"WITH T AS (SELECT Y AS V FROM B UNION ALL SELECT X AS V FROM A) SELECT DISTINCT V FROM T": "1 2 3 2.5 NULL",
		"WITH T AS (SELECT X AS V FROM A UNION ALL SELECT Y AS V FROM B) SELECT DISTINCT V FROM T": "1 2.5 NULL 3 2",
	} {
		if got := rowsText(mustQuery(t, e, q)); got != want {
			t.Fatalf("%s = %q, want %q", q, got, want)
		}
	}
}

// TestDistinctOrderedInput: a DISTINCT with an ORDER BY upstream keeps
// first occurrences in order — the ORDER BY reaching it through a CTE, a
// CTE's column list, the outer side of a join, a UNION ALL arm, a
// grouping or a derived table.
func TestDistinctOrderedInput(t *testing.T) {
	e := newDistinctEngine(t)
	desc := firstOccurrences(keyRange(distinctRows-1, -1, -1))
	armsKeys := append(keyRange(0, 6000, 1), keyRange(distinctRows-1, 5999, -1)...)
	for q, want := range map[string]string{
		"WITH S AS (SELECT V, K FROM P ORDER BY K DESC) SELECT DISTINCT V FROM S":                                                                                  desc,
		"WITH S(W, K) AS (SELECT V, K FROM P ORDER BY K DESC) SELECT DISTINCT W FROM S":                                                                            desc,
		"WITH S AS (SELECT ID FROM O ORDER BY ID DESC) SELECT DISTINCT P.V FROM S, P WHERE P.K = S.ID":                                                             desc,
		"WITH S AS (SELECT V, K FROM P ORDER BY K DESC) SELECT DISTINCT V FROM S GROUP BY V":                                                                       desc,
		"SELECT DISTINCT V FROM (SELECT V, K FROM P ORDER BY K DESC) D":                                                                                            desc,
		"WITH S AS (SELECT V, K FROM P ORDER BY K DESC) SELECT V FROM S UNION SELECT V FROM P WHERE K < 10":                                                        desc,
		"WITH S AS (SELECT V, K FROM P WHERE K >= 6000 ORDER BY K DESC), U AS (SELECT V FROM P WHERE K < 6000 UNION ALL SELECT V FROM S) SELECT DISTINCT V FROM U": firstOccurrences(armsKeys),
	} {
		for _, par := range []int{1, 4} {
			rows := queryForced(t, e, StrategyAuto, par, q)
			if got := rowsText(rows); got != want {
				t.Fatalf("%s par=%d: %d rows not in first-occurrence order", q, par, len(rows.Data))
			}
			if o := dedupOrder(t, rows); o != OrderFirstOccurrence {
				t.Fatalf("%s par=%d: dedup order %q", q, par, o)
			}
		}
	}
}

// TestDistinctSetOperations: INTERSECT and EXCEPT keep the left side's
// order and a recursive UNION its discovery order, as before the set
// changed: none of them sorts.
func TestDistinctSetOperations(t *testing.T) {
	e := newDistinctEngine(t)
	right := map[int64]bool{}
	for k := 0; k < 3000; k++ {
		right[distinctVal(k)] = true
	}
	var inter, except []int
	for k := 6000; k < distinctRows; k++ {
		if right[distinctVal(k)] {
			inter = append(inter, k)
		} else {
			except = append(except, k)
		}
	}
	for q, want := range map[string]string{
		"SELECT V FROM P WHERE K >= 6000 INTERSECT SELECT V FROM P WHERE K < 3000": firstOccurrences(inter),
		"SELECT V FROM P WHERE K >= 6000 EXCEPT SELECT V FROM P WHERE K < 3000":    firstOccurrences(except),
	} {
		if got := rowsText(mustQuery(t, e, q)); got != want {
			t.Fatalf("%s: not the left side's first occurrences in order", q)
		}
	}

	// A cycle 0 -> 99 -> 98 -> ... -> 1 -> 0, entered at 50.
	mustTable(t, e, "E", intCol("A"), intCol("B"))
	mustInsert(t, e, "E", row(0, 99))
	for a := 1; a < 100; a++ {
		mustInsert(t, e, "E", row(a, a-1))
	}
	var want []string
	for v := 50; v >= 0; v-- {
		want = append(want, fmt.Sprint(v))
	}
	for v := 99; v > 50; v-- {
		want = append(want, fmt.Sprint(v))
	}
	rows := mustQuery(t, e, "WITH RECURSIVE R(V) AS (SELECT 50 UNION SELECT E.B FROM R, E WHERE E.A = R.V) SELECT V FROM R")
	if got := rowsText(rows); got != strings.Join(want, " ") {
		t.Fatalf("recursive UNION = %s, want discovery order %s", got, strings.Join(want, " "))
	}
}

// TestDistinctSetResetAllocFree: a set is emptied and refilled without
// allocating once its table has grown, and a morsel buffer keeps its set
// from one morsel to the next, so a worker lists each id once.
func TestDistinctSetResetAllocFree(t *testing.T) {
	var d deduper
	row := []rel.Value{{}}
	fill := func() {
		for i := int64(-1000); i < 3000; i++ {
			row[0] = rel.NewInt(i * 7919)
			d.seen(row)
		}
	}
	fill()
	table := &d.ints.slots[0]
	if n := testing.AllocsPerRun(20, func() { d.ints.reset(); fill() }); n != 0 {
		t.Fatalf("reset and refill allocate %.0f times", n)
	}
	if &d.ints.slots[0] != table || d.ints.len() != 4000 {
		t.Fatalf("reset gave the table back or lost ids: %d ids", d.ints.len())
	}

	// A morsel buffer hands its ids on and keeps its set as it stands.
	c := &collect{arena: newRowArena(1, 0), seen: &deduper{}}
	for i := int64(0); i < 3000; i++ {
		row[0] = rel.NewInt(i % 2000)
		if err := c.push(row); err != nil {
			t.Fatal(err)
		}
	}
	table = &c.seen.ints.slots[0]
	if m := c.takeMorsel(); len(m.ids) != 2000 || len(m.rows) != 0 || m.in != 3000 || m.ids[1999] != 1999 {
		t.Fatalf("morsel buffer: %d ids, %d rows, %d in", len(m.ids), len(m.rows), m.in)
	}
	if &c.seen.ints.slots[0] != table || c.seen.ints.len() != 2000 {
		t.Fatal("the next morsel got a new set, or an emptied one")
	}
	for i := int64(1000); i < 2500; i++ {
		row[0] = rel.NewInt(i)
		if err := c.push(row); err != nil {
			t.Fatal(err)
		}
	}
	if m := c.takeMorsel(); len(m.ids) != 500 || m.ids[0] != 2000 || m.in != 1500 {
		t.Fatalf("second morsel: %d ids, first %v, %d in; want the 500 not kept before", len(m.ids), m.ids[:min(1, len(m.ids))], m.in)
	}
}

// TestDistinctIntSetMatchesMap drives the set against a map: ids around
// zero, negative and extreme, with resets between rounds.
func TestDistinctIntSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s intSet
	for round := 0; round < 4; round++ {
		model := map[int64]bool{}
		for i := 0; i < 20000; i++ {
			var id int64
			switch rng.Intn(4) {
			case 0:
				id = int64(rng.Intn(64)) - 32
			case 1:
				id = rng.Int63() - rng.Int63()
			case 2:
				id = []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)]
			default:
				id = int64(rng.Intn(50000))
			}
			if has := s.has(id); has != model[id] {
				t.Fatalf("round %d: has(%d) = %v, want %v", round, id, has, model[id])
			}
			if added := s.add(id); added == model[id] {
				t.Fatalf("round %d: add(%d) = %v with the id present=%v", round, id, added, model[id])
			}
			model[id] = true
		}
		if s.len() != len(model) || len(s.appendTo(nil)) != len(model) {
			t.Fatalf("round %d: %d ids, %d listed, model %d", round, s.len(), len(s.appendTo(nil)), len(model))
		}
		for _, id := range s.appendTo(nil) {
			if !model[id] {
				t.Fatalf("round %d: listed %d, never added", round, id)
			}
		}
		s.reset()
	}
}

// TestDistinctSortIDs checks the radix sort against slices.Sort on
// either side of its cut-over, across negative and extreme ids, with a
// scratch buffer that is long enough, too short, or absent.
func TestDistinctSortIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := map[string]func() int64{
		"dense":    func() int64 { return int64(rng.Intn(60000)) },
		"negative": func() int64 { return int64(rng.Intn(5000)) - 2500 },
		"wide":     func() int64 { return rng.Int63() - rng.Int63() },
		"extreme":  func() int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}[rng.Intn(5)] },
		"equal":    func() int64 { return 42 },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, radixMinIDs - 1, radixMinIDs, radixMinIDs + 1, 5000} {
			for _, scratchLen := range []int{0, n / 2, n + 3} {
				ids := make([]int64, n)
				for i := range ids {
					ids[i] = gen()
				}
				want := slices.Clone(ids)
				slices.Sort(want)
				sortIDs(ids, make([]int64, scratchLen))
				if !slices.Equal(ids, want) {
					t.Fatalf("%s n=%d scratch=%d: not sorted", name, n, scratchLen)
				}
			}
		}
	}
}
