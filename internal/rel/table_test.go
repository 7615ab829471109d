package rel

import (
	"fmt"
	"testing"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "ID", Type: KindInt},
		Column{Name: "NAME", Type: KindString},
		Column{Name: "SCORE", Type: KindFloat},
	)
}

func mustInsert(t *testing.T, tb *Table, vals ...Value) RowID {
	t.Helper()
	tb.Lock()
	defer tb.Unlock()
	rid, err := tb.insertLocked(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

func TestSchemaOrdinal(t *testing.T) {
	s := testSchema()
	if s.Ordinal("NAME") != 1 || s.Ordinal("MISSING") != -1 || s.Len() != 3 {
		t.Fatalf("schema lookup broken: %d %d %d", s.Ordinal("NAME"), s.Ordinal("MISSING"), s.Len())
	}
}

func TestTableInsertGetScan(t *testing.T) {
	tb := NewTable("T", testSchema())
	var rids []RowID
	for i := 0; i < 10; i++ {
		rids = append(rids, mustInsert(t, tb, NewInt(int64(i)), NewString(fmt.Sprint("n", i)), NewFloat(float64(i)/2)))
	}
	if tb.Live() != 10 {
		t.Fatalf("Live = %d, want 10", tb.Live())
	}
	tb.RLock()
	defer tb.RUnlock()
	vals, ok := tb.Get(rids[3])
	if !ok || vals[0].Int() != 3 || vals[1].Str() != "n3" {
		t.Fatalf("Get(rids[3]) = %v, %v", vals, ok)
	}
	n := 0
	tb.Scan(func(rid RowID, vals []Value) bool { n++; return true })
	if n != 10 {
		t.Fatalf("Scan visited %d rows, want 10", n)
	}
	// Early stop.
	n = 0
	tb.Scan(func(rid RowID, vals []Value) bool { n++; return n < 4 })
	if n != 4 {
		t.Fatalf("Scan early stop visited %d, want 4", n)
	}
}

func TestTableInsertArityMismatch(t *testing.T) {
	tb := NewTable("T", testSchema())
	tb.Lock()
	defer tb.Unlock()
	if _, err := tb.insertLocked([]Value{NewInt(1)}, 0); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestTableDeleteAndSlotReuse(t *testing.T) {
	tb := NewTable("T", testSchema())
	rid := mustInsert(t, tb, NewInt(1), NewString("a"), NewFloat(0))
	mustInsert(t, tb, NewInt(2), NewString("b"), NewFloat(0))

	tb.Lock()
	rec, _, ok := tb.deleteLocked(rid, 0)
	tb.Unlock()
	if !ok || rec.vals[0].Int() != 1 {
		t.Fatalf("delete = %v, %v", rec.vals, ok)
	}
	if tb.Live() != 1 {
		t.Fatalf("Live = %d, want 1", tb.Live())
	}
	tb.RLock()
	if _, ok := tb.Get(rid); ok {
		t.Fatal("deleted row still readable")
	}
	tb.RUnlock()

	// The freed slot should be reused without growing the heap.
	before := len(tb.rows)
	mustInsert(t, tb, NewInt(3), NewString("c"), NewFloat(0))
	if len(tb.rows) != before {
		t.Fatalf("slot not reused: %d rows, was %d", len(tb.rows), before)
	}

	tb.Lock()
	if _, _, ok := tb.deleteLocked(rid, 0); ok {
		t.Fatal("double delete returned ok")
	}
	tb.Unlock()
}

func TestTableUpdate(t *testing.T) {
	tb := NewTable("T", testSchema())
	rid := mustInsert(t, tb, NewInt(1), NewString("a"), NewFloat(0))
	tb.Lock()
	rec, _, err := tb.updateLocked(rid, []Value{NewInt(1), NewString("z"), NewFloat(9)}, 0)
	tb.Unlock()
	if err != nil || rec.vals[1].Str() != "a" {
		t.Fatalf("update: %v, %v", rec.vals, err)
	}
	tb.RLock()
	vals, _ := tb.Get(rid)
	tb.RUnlock()
	if vals[1].Str() != "z" || vals[2].Float() != 9 {
		t.Fatalf("post-update row = %v", vals)
	}
	tb.Lock()
	if _, _, err := tb.updateLocked(999, vals, 0); err == nil {
		t.Fatal("update of missing row accepted")
	}
	if _, _, err := tb.updateLocked(rid, vals[:1], 0); err == nil {
		t.Fatal("update arity mismatch accepted")
	}
	tb.Unlock()
}

func TestTableBytesTracking(t *testing.T) {
	tb := NewTable("T", testSchema())
	if tb.Bytes() != 0 {
		t.Fatal("empty table should have zero bytes")
	}
	rid := mustInsert(t, tb, NewInt(1), NewString("hello world"), NewFloat(0))
	after := tb.Bytes()
	if after <= 0 {
		t.Fatal("bytes should grow on insert")
	}
	tb.Lock()
	tb.deleteLocked(rid, 0)
	tb.Unlock()
	if tb.Bytes() != 0 {
		t.Fatalf("bytes after delete = %d, want 0", tb.Bytes())
	}
}

func TestIndexProbe(t *testing.T) {
	tb := NewTable("T", testSchema())
	ix := NewIndex("IX_NAME", "T", false, []int{1}, "", nil)
	tb.Lock()
	if err := tb.addIndex(ix); err != nil {
		t.Fatal(err)
	}
	tb.Unlock()
	for i := 0; i < 30; i++ {
		mustInsert(t, tb, NewInt(int64(i)), NewString(fmt.Sprint("n", i%3)), NewFloat(0))
	}
	tb.RLock()
	defer tb.RUnlock()
	n := 0
	ix.Probe([]Value{NewString("n1")}, func(rid RowID) bool {
		vals, _ := tb.Get(rid)
		if vals[1].Str() != "n1" {
			t.Fatalf("probe returned wrong row %v", vals)
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("probe matched %d rows, want 10", n)
	}
	if got := ix.CountPrefix([]Value{NewString("n2")}); got != 10 {
		t.Fatalf("CountPrefix = %d, want 10", got)
	}
	if got := ix.CountPrefix([]Value{NewString("zzz")}); got != 0 {
		t.Fatalf("CountPrefix missing = %d, want 0", got)
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	tb := NewTable("T", testSchema())
	ix := NewIndex("IX", "T", false, []int{1}, "", nil)
	tb.Lock()
	_ = tb.addIndex(ix)
	tb.Unlock()
	rid := mustInsert(t, tb, NewInt(1), NewString("old"), NewFloat(0))
	tb.Lock()
	_, _, err := tb.updateLocked(rid, []Value{NewInt(1), NewString("new"), NewFloat(0)}, 0)
	tb.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	tb.RLock()
	if ix.CountPrefix([]Value{NewString("old")}) != 0 {
		t.Fatal("stale index entry after update")
	}
	if ix.CountPrefix([]Value{NewString("new")}) != 1 {
		t.Fatal("missing index entry after update")
	}
	tb.RUnlock()
	tb.Lock()
	tb.deleteLocked(rid, 0)
	tb.Unlock()
	tb.RLock()
	if ix.Len() != 0 {
		t.Fatal("index entries survive delete")
	}
	tb.RUnlock()
}

func TestUniqueIndex(t *testing.T) {
	tb := NewTable("T", testSchema())
	ix := NewIndex("PK", "T", true, []int{0}, "", nil)
	tb.Lock()
	_ = tb.addIndex(ix)
	_, err := tb.insertLocked([]Value{NewInt(1), NewString("a"), NewFloat(0)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tb.insertLocked([]Value{NewInt(1), NewString("b"), NewFloat(0)}, 0)
	tb.Unlock()
	if err == nil {
		t.Fatal("duplicate key accepted by unique index")
	}
	if tb.Live() != 1 {
		t.Fatalf("failed insert left row behind: Live = %d", tb.Live())
	}
	if ix.Len() != 1 {
		t.Fatalf("failed insert left index entry: Len = %d", ix.Len())
	}
}

func TestExpressionIndex(t *testing.T) {
	tb := NewTable("T", testSchema())
	// Index over NAME length.
	keyFn := func(vals []Value) []Value {
		return []Value{NewInt(int64(len(vals[1].Str())))}
	}
	ix := NewIndex("IX_LEN", "T", false, nil, "LEN(NAME)", keyFn)
	tb.Lock()
	_ = tb.addIndex(ix)
	tb.Unlock()
	mustInsert(t, tb, NewInt(1), NewString("ab"), NewFloat(0))
	mustInsert(t, tb, NewInt(2), NewString("xy"), NewFloat(0))
	mustInsert(t, tb, NewInt(3), NewString("long"), NewFloat(0))
	tb.RLock()
	defer tb.RUnlock()
	if got := ix.CountPrefix([]Value{NewInt(2)}); got != 2 {
		t.Fatalf("expression index CountPrefix = %d, want 2", got)
	}
	if ix.Expr() != "LEN(NAME)" {
		t.Fatalf("Expr = %q", ix.Expr())
	}
}

func TestProbeRange(t *testing.T) {
	tb := NewTable("T", testSchema())
	ix := NewIndex("IX_ID", "T", false, []int{0}, "", nil)
	tb.Lock()
	_ = tb.addIndex(ix)
	tb.Unlock()
	for i := 0; i < 20; i++ {
		mustInsert(t, tb, NewInt(int64(i)), NewString("x"), NewFloat(0))
	}
	count := func(lo, hi Value, loInc, hiInc bool) int {
		n := 0
		ix.ProbeRange(lo, hi, loInc, hiInc, func(RowID) bool { n++; return true })
		return n
	}
	tb.RLock()
	defer tb.RUnlock()
	if got := count(NewInt(5), NewInt(10), true, false); got != 5 {
		t.Fatalf("[5,10) = %d, want 5", got)
	}
	if got := count(NewInt(5), NewInt(10), true, true); got != 6 {
		t.Fatalf("[5,10] = %d, want 6", got)
	}
	if got := count(NewInt(5), NewInt(10), false, false); got != 4 {
		t.Fatalf("(5,10) = %d, want 4", got)
	}
	if got := count(Null, NewInt(3), true, false); got != 3 {
		t.Fatalf("(-inf,3) = %d, want 3", got)
	}
	if got := count(NewInt(17), Null, true, false); got != 3 {
		t.Fatalf("[17,inf) = %d, want 3", got)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if _, err := c.CreateTable("A", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("A", testSchema()); err == nil {
		t.Fatal("duplicate CreateTable accepted")
	}
	if _, ok := c.Table("A"); !ok {
		t.Fatal("Table lookup failed")
	}
	if _, ok := c.Table("B"); ok {
		t.Fatal("missing table found")
	}
	if _, err := c.CreateTable("B", testSchema()); err != nil {
		t.Fatal(err)
	}
	names := c.Tables()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("Tables = %v", names)
	}
	if _, err := c.CreateIndex("IX", "MISSING", false, []int{0}, "", nil); err == nil {
		t.Fatal("index on missing table accepted")
	}
	if _, err := c.CreateIndex("IX", "B", false, []int{99}, "", nil); err == nil {
		t.Fatal("index on out-of-range ordinal accepted")
	}
	if _, err := c.CreateIndex("IX", "B", false, []int{0}, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("IX", "B", false, []int{0}, "", nil); err == nil {
		t.Fatal("duplicate index accepted")
	}
}

func TestCreateIndexPopulatesExistingRows(t *testing.T) {
	c := NewCatalog()
	tb, _ := c.CreateTable("T", testSchema())
	mustInsert(t, tb, NewInt(1), NewString("a"), NewFloat(0))
	mustInsert(t, tb, NewInt(2), NewString("a"), NewFloat(0))
	ix, err := c.CreateIndex("IX", "T", false, []int{1}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2 {
		t.Fatalf("index backfill Len = %d, want 2", ix.Len())
	}
}
