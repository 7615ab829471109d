package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
		"WITH U AS (SELECT P.V AS V FROM O, P WHERE P.K = O.ID AND O.ID < 6000 UNION ALL SELECT P.V AS V FROM O, P WHERE P.K = O.ID AND O.ID >= 6000) SELECT DISTINCT V FROM U",
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
// mid-stream in an integer column of order-free input come out after the
// integers, which are ascending; the NULL and the string keep their first
// occurrence order, and the DOUBLE, equal to one of the integers, is that
// integer. The output is byte-identical at any worker count, and 1 and
// 1.0 are one row wherever they meet.
func TestDistinctMixedRows(t *testing.T) {
	e := newDistinctEngine(t)
	q := `WITH T AS (SELECT P.V AS V FROM O, P WHERE P.K = O.ID AND O.ID < 7000
		UNION ALL SELECT NULL AS V FROM O WHERE O.ID = 7000
		UNION ALL SELECT P.V + 0.0 AS V FROM O, P WHERE P.K = O.ID AND O.ID = 8000
		UNION ALL SELECT 'x' AS V FROM O WHERE O.ID = 9000
		UNION ALL SELECT P.V AS V FROM O, P WHERE P.K = O.ID AND O.ID > 7000 AND O.ID <> 8000 AND O.ID <> 9000)
		SELECT DISTINCT V FROM T`
	var want []string
	for v := -2500; v < 2503; v++ {
		want = append(want, fmt.Sprint(v))
	}
	want = append(want, "NULL", "x")
	for _, par := range []int{1, 2, 4} {
		rows := queryForced(t, e, StrategyAuto, par, q)
		if got := rowsText(rows); got != strings.Join(want, " ") {
			t.Fatalf("par=%d: %d rows, want the integers -2500..2502 ascending, then NULL and x", par, len(rows.Data))
		}
		if rows.Data[len(rows.Data)-3][0].Kind() != rel.KindInt {
			t.Fatalf("par=%d: the last integer is a %v", par, rows.Data[len(rows.Data)-3][0].Kind())
		}
		if o := dedupOrder(t, rows); o != OrderAscendingThenFirst {
			t.Fatalf("par=%d: dedup order %q, want %q", par, o, OrderAscendingThenFirst)
		}
	}

	mustTable(t, e, "A", floatCol("X"))
	mustTable(t, e, "B", intCol("Y"))
	mustInsert(t, e, "A", row(1.0), row(2.5), row(nil), row(3.0))
	mustInsert(t, e, "B", row(1), row(2), row(3), row(3))
	for _, q := range []string{
		"WITH T AS (SELECT Y AS V FROM B UNION ALL SELECT X AS V FROM A) SELECT DISTINCT V FROM T",
		"WITH T AS (SELECT X AS V FROM A UNION ALL SELECT Y AS V FROM B) SELECT DISTINCT V FROM T",
	} {
		if got := rowsText(mustQuery(t, e, q)); got != "1 2 3 2.5 NULL" {
			t.Fatalf("%s = %q, want %q", q, got, "1 2 3 2.5 NULL")
		}
	}
}

// TestDistinctOrderedInput: a DISTINCT with an ORDER BY upstream keeps
// first occurrences in order — the ORDER BY reaching it through a CTE, a
// renamed column, the outer side of a join, a UNION ALL arm or a
// grouping. (The sort key - K orders by K descending.)
func TestDistinctOrderedInput(t *testing.T) {
	e := newDistinctEngine(t)
	desc := firstOccurrences(keyRange(distinctRows-1, -1, -1))
	armsKeys := append(keyRange(0, 6000, 1), keyRange(distinctRows-1, 5999, -1)...)
	for q, want := range map[string]string{
		"WITH S AS (SELECT V, K FROM P ORDER BY - K) SELECT DISTINCT V FROM S":                                                                                  desc,
		"WITH S AS (SELECT V AS W, K FROM P ORDER BY - K) SELECT DISTINCT W FROM S":                                                                             desc,
		"WITH S AS (SELECT ID FROM O ORDER BY - ID) SELECT DISTINCT P.V FROM S, P WHERE P.K = S.ID":                                                             desc,
		"WITH S AS (SELECT V, K FROM P ORDER BY - K) SELECT DISTINCT V FROM S GROUP BY V":                                                                       desc,
		"WITH D AS (SELECT V, K FROM P ORDER BY - K) SELECT DISTINCT V FROM D":                                                                                  desc,
		"WITH S AS (SELECT V, K FROM P ORDER BY - K), U AS (SELECT V FROM S UNION ALL SELECT V FROM P WHERE K < 10) SELECT DISTINCT V FROM U":                   desc,
		"WITH S AS (SELECT V, K FROM P WHERE K >= 6000 ORDER BY - K), U AS (SELECT V FROM P WHERE K < 6000 UNION ALL SELECT V FROM S) SELECT DISTINCT V FROM U": firstOccurrences(armsKeys),
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

// TestDistinctSetOperations: IN and NOT IN subqueries (the retain and
// except templates) keep the left side's order: neither sorts.
func TestDistinctSetOperations(t *testing.T) {
	e := newDistinctEngine(t)
	right := map[int64]bool{}
	for k := 0; k < 3000; k++ {
		right[distinctVal(k)] = true
	}
	var in, notIn []string
	for k := 6000; k < distinctRows; k++ {
		if v := fmt.Sprint(distinctVal(k)); right[distinctVal(k)] {
			in = append(in, v)
		} else {
			notIn = append(notIn, v)
		}
	}
	for q, want := range map[string]string{
		"SELECT V FROM P WHERE K >= 6000 AND V IN (SELECT V FROM P WHERE K < 3000)":     strings.Join(in, " "),
		"SELECT V FROM P WHERE K >= 6000 AND V NOT IN (SELECT V FROM P WHERE K < 3000)": strings.Join(notIn, " "),
	} {
		if got := rowsText(mustQuery(t, e, q)); got != want {
			t.Fatalf("%s: not the left side's rows in order", q)
		}
	}
}

// TestDistinctSetResetAllocFree: a set is emptied and refilled without
// allocating once its containers have grown — sparse arrays and a bitmap
// alike. A morsel buffer keeps its set from one morsel to the next: under
// an ascending DISTINCT it hands over no ids, for the terminal merges the
// workers' sets by OR; under an ordered one it lists the ids it saw first.
func TestDistinctSetResetAllocFree(t *testing.T) {
	var d deduper
	row := []rel.Value{{}}
	fill := func() {
		for i := int64(-1000); i < 3000; i++ {
			row[0] = rel.NewInt(i * 7919)
			d.seen(row)
		}
		for i := int64(0); i < 10000; i++ {
			row[0] = rel.NewInt(i)
			d.seen(row)
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, func() { d.ids.reset(); fill() }); n != 0 {
		t.Fatalf("reset and refill allocate %.0f times", n)
	}
	if d.ids.len() != 13998 { // 0 and 7919 are in both runs
		t.Fatalf("refilled set holds %d ids, want 13998", d.ids.len())
	}

	parts := []*collect{{arena: newRowArena(1, 0), seen: &deduper{ascending: true}}, {arena: newRowArena(1, 0), seen: &deduper{ascending: true}}}
	for i := int64(0); i < 3000; i++ {
		row[0] = rel.NewInt(i % 2000)
		parts[0].push(row)
	}
	if m := parts[0].takeMorsel(); len(m.ids) != 0 || len(m.rows) != 0 || m.in != 3000 || parts[0].seen.ids.len() != 2000 {
		t.Fatalf("morsel buffer: %d ids, %d rows, %d in, set of %d", len(m.ids), len(m.rows), m.in, parts[0].seen.ids.len())
	}
	for i := int64(1000); i < 2500; i++ {
		row[0] = rel.NewInt(i)
		parts[0].push(row)
		row[0] = rel.NewInt(-i)
		parts[1].push(row)
	}
	term := newCollect(1, &deduper{ascending: true})
	for _, p := range parts { // as runPipe merges its workers' sets
		term.seen.ids.or(&p.seen.ids)
	}
	term.absorb([]morselBuf{parts[0].takeMorsel(), parts[1].takeMorsel()})
	ids := term.seen.ids.appendRange(nil, 0, term.seen.ids.len())
	if o := term.finish(); o != OrderAscending || len(ids) != 4000 || ids[0] != -2499 || ids[3999] != 2499 || term.in != 3000 {
		t.Fatalf("merged sets: order %s, %d ids, %d in", o, len(ids), term.in)
	}

	c := &collect{arena: newRowArena(1, 0), seen: &deduper{}}
	for i := int64(0); i < 3000; i++ {
		row[0] = rel.NewInt(i % 2000)
		c.push(row)
	}
	if m := c.takeMorsel(); len(m.ids) != 2000 || m.ids[1999] != 1999 {
		t.Fatalf("ordered morsel buffer: %d ids", len(m.ids))
	}
	for i := int64(1000); i < 2500; i++ {
		row[0] = rel.NewInt(i)
		c.push(row)
	}
	if m := c.takeMorsel(); len(m.ids) != 500 || m.ids[0] != 2000 || m.in != 1500 {
		t.Fatalf("second morsel: %d ids, first %v, %d in; want the 500 not kept before", len(m.ids), m.ids[:min(1, len(m.ids))], m.in)
	}
}

// TestIDSetKeyFamilies drives the id set against a map for each family of
// ids it meets: dense vertex ids, the negative -VID-1 range of soft
// deletes, strides of 8 and of 2^32, random ids near and far apart, and
// the extremes. Each id is added twice, in random order; membership, the
// size, ascending emission (of the whole set, and of a range of positions
// as a set head's morsels read it) and the OR of two halves must match
// the map, and the bytes the set holds per id — its containers' headers,
// arrays and bitmaps — stay within the family's bound. The bounds are
// measured values (amd64) with a quarter's headroom: a container's header
// is paid wherever it holds a single id, so the far families hold ~65
// bytes per id, the dense ones under 1.
func TestIDSetKeyFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range []struct {
		name     string
		n        int
		id       func(i int) int64
		maxBytes float64
	}{
		{"dense", 20000, func(i int) int64 { return int64(i) }, 1.05},
		{"negative", 20000, func(i int) int64 { return -int64(i) - 1 }, 1.05},
		{"stride-8", 20000, func(i int) int64 { return int64(i) * 8 }, 2.6},
		{"stride-2^32", 2000, func(i int) int64 { return int64(i) << 32 }, 82},
		{"random-2^20", 20000, func(int) int64 { return rng.Int63n(1<<20) - 1<<19 }, 2.8},
		{"random", 2000, func(int) int64 { return rng.Int63() - rng.Int63() }, 82},
		{"extremes", 3, func(i int) int64 { return []int64{0, math.MinInt64, math.MaxInt64}[i] }, 90},
	} {
		ids := make([]int64, f.n)
		for i := range ids {
			ids[i] = f.id(i)
		}
		ids = append(ids, ids...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		model := map[int64]bool{}
		var s, halves [2]idSet
		for i, id := range ids {
			if s[0].has(id) != model[id] || s[0].add(id) == model[id] {
				t.Fatalf("%s: has or add(%d) disagrees with the map (present: %v)", f.name, id, model[id])
			}
			model[id] = true
			halves[i%2].add(id)
		}
		want := make([]int64, 0, len(model))
		for id := range model {
			want = append(want, id)
			if s[0].has(id+1) != model[id+1] || s[0].has(id-1) != model[id-1] {
				t.Fatalf("%s: has disagrees with the map next to %d", f.name, id)
			}
		}
		slices.Sort(want)
		halves[0].or(&halves[1])
		s[1].or(&s[0])
		for name, set := range map[string]*idSet{"set": &s[0], "OR of halves": &halves[0], "OR into empty": &s[1]} {
			if got := set.appendRange(nil, 0, set.len()); set.len() != len(want) || !slices.Equal(got, want) {
				t.Fatalf("%s: %s holds %d ids, lists %d, want %d ascending", f.name, name, set.len(), len(got), len(want))
			}
		}
		for range 50 {
			from := rng.Intn(len(want))
			to := from + rng.Intn(len(want)-from+1)
			if got := s[0].appendRange(nil, from, to); !slices.Equal(got, want[from:to]) {
				t.Fatalf("%s: positions [%d, %d) read %d ids, not the %d there", f.name, from, to, len(got), to-from)
			}
		}

		held := cap(s[0].cons) * int(unsafe.Sizeof(container{}))
		for _, c := range s[0].cons {
			held += 2 * cap(c.arr)
			if c.bits != nil {
				held += 8 * bitmapWords
			}
		}
		if per := float64(held) / float64(len(model)); per > f.maxBytes {
			t.Errorf("%s: %.2f bytes per id, bound %.2f", f.name, per, f.maxBytes)
		} else {
			t.Logf("%s: %.2f bytes per id (bound %.2f)", f.name, per, f.maxBytes)
		}
	}
}
