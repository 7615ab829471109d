package rel

import (
	"fmt"
	"sync"
	"testing"
)

func mvccFixture(t *testing.T) (*Catalog, *Table, *Index, *Footprint) {
	t.Helper()
	c := NewCatalog()
	tb, err := c.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("IX_NAME", "T", false, []int{1}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := c.Footprint([]string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, tb, ix, fp
}

// readFP returns a read-only footprint over T: snapshot reads must not use
// a write footprint (write transactions always read Latest).
func readFP(t *testing.T, c *Catalog) *Footprint {
	t.Helper()
	fp, err := c.Footprint(nil, []string{"T"})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func insertRow(t *testing.T, fp *Footprint, id int64, name string) RowID {
	t.Helper()
	tx := fp.Begin()
	rid, err := tx.Insert("T", []Value{NewInt(id), NewString(name), NewFloat(0)})
	if err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	tx.Commit()
	return rid
}

func scanNames(t *testing.T, fp *Footprint, asOf Version) []string {
	t.Helper()
	tx := fp.BeginAt(asOf)
	defer tx.Commit()
	var names []string
	if err := tx.Scan("T", func(_ RowID, vals []Value) bool {
		names = append(names, vals[1].Str())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return names
}

func TestSnapshotSeesFrozenState(t *testing.T) {
	c, _, _, fp := mvccFixture(t)
	rfp := readFP(t, c)
	rid := insertRow(t, fp, 1, "a")
	insertRow(t, fp, 2, "b")

	v1 := c.Pin()
	defer c.Unpin(v1)

	// Mutate after the pin: update row 1, delete row 2, insert row 3.
	tx := fp.Begin()
	if err := tx.Update("T", rid, []Value{NewInt(1), NewString("a2"), NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx = fp.Begin()
	var rid2 RowID = -1
	_ = tx.Scan("T", func(r RowID, vals []Value) bool {
		if vals[0].Int() == 2 {
			rid2 = r
		}
		return true
	})
	if _, err := tx.Delete("T", rid2); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	insertRow(t, fp, 3, "c")

	if got := scanNames(t, rfp, v1); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("snapshot scan = %v, want [a b]", got)
	}
	if got := scanNames(t, rfp, Latest); len(got) != 2 || got[0] != "a2" || got[1] != "c" {
		t.Fatalf("latest scan = %v, want [a2 c]", got)
	}

	// GetAt sees the old image at v1.
	tx = rfp.BeginAt(v1)
	vals, ok, err := tx.Get("T", rid)
	if err != nil || !ok || vals[1].Str() != "a" {
		t.Fatalf("GetAt(v1) = %v %v %v, want image a", vals, ok, err)
	}
	vals, ok, err = tx.Get("T", rid2)
	if err != nil || !ok || vals[0].Int() != 2 {
		t.Fatalf("GetAt(v1) deleted row = %v %v %v, want visible", vals, ok, err)
	}
	tx.Commit()
}

func TestSnapshotProbeFiltersStaleEntries(t *testing.T) {
	c, tb, ix, fp := mvccFixture(t)
	rfp := readFP(t, c)
	rid := insertRow(t, fp, 1, "k1")

	v1 := c.Pin()
	defer c.Unpin(v1)

	tx := fp.Begin()
	if err := tx.Update("T", rid, []Value{NewInt(1), NewString("k2"), NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	probe := func(asOf Version, key string) (n int, got string) {
		rtx := rfp.BeginAt(asOf)
		defer rtx.Commit()
		_ = rtx.Probe("T", "IX_NAME", []Value{NewString(key)}, func(_ RowID, vals []Value) bool {
			n++
			got = vals[1].Str()
			return true
		})
		return
	}
	if n, got := probe(v1, "k1"); n != 1 || got != "k1" {
		t.Fatalf("probe(v1, k1) = %d %q, want 1 k1", n, got)
	}
	if n, _ := probe(v1, "k2"); n != 0 {
		t.Fatalf("probe(v1, k2) = %d, want 0 (row had k1 at v1)", n)
	}
	if n, got := probe(Latest, "k2"); n != 1 || got != "k2" {
		t.Fatalf("probe(latest, k2) = %d %q, want 1 k2", n, got)
	}
	if n, _ := probe(Latest, "k1"); n != 0 {
		t.Fatalf("probe(latest, k1) = %d, want 0 (stale entry must be filtered)", n)
	}

	// A range probe spanning both keys must visit the row exactly once per
	// snapshot, even though the tree holds two entries for it.
	tb.RLock()
	for _, asOf := range []Version{v1, Latest} {
		n := 0
		tb.ProbeRangeAt(ix, NewString("k0"), NewString("k9"), true, true, asOf, func(RowID, []Value) bool {
			n++
			return true
		})
		if n != 1 {
			t.Fatalf("range probe at %d visited %d rows, want 1", asOf, n)
		}
	}
	tb.RUnlock()
}

func TestGarbageCollectedAfterUnpin(t *testing.T) {
	c, tb, ix, fp := mvccFixture(t)
	rid := insertRow(t, fp, 1, "k1")
	insertRow(t, fp, 2, "x")

	v1 := c.Pin()
	tx := fp.Begin()
	if err := tx.Update("T", rid, []Value{NewInt(1), NewString("k2"), NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx = fp.Begin()
	if _, err := tx.Delete("T", rid); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// While pinned: stale entry, history image, and dead slot all retained.
	tb.RLock()
	if ix.Len() != 3 { // k1 (stale), k2 (dead row), x
		t.Fatalf("index Len = %d while pinned, want 3", ix.Len())
	}
	if n := boundRIDs(tb); n != 2 {
		t.Fatalf("bound row ids = %d while pinned, want 2", n)
	}
	tb.RUnlock()

	c.Unpin(v1) // triggers GC: nothing pinned anymore

	tb.RLock()
	defer tb.RUnlock()
	if ix.Len() != 1 {
		t.Fatalf("index Len = %d after GC, want 1", ix.Len())
	}
	if n := boundRIDs(tb); n != 1 {
		t.Fatalf("bound row ids = %d after GC, want 1", n)
	}
	if len(tb.garbage) != 0 {
		t.Fatalf("garbage backlog = %d after GC, want 0", len(tb.garbage))
	}
	for i := range tb.rows {
		if !tb.rows[i].dead && tb.rows[i].prev != nil {
			t.Fatal("history chain survived GC")
		}
	}
}

func TestKeyCycleDoesNotLoseLiveEntry(t *testing.T) {
	// K1 -> K2 -> K1: GC of the first update's stale-entry record must not
	// delete the entry the row legitimately owns again.
	c, tb, ix, fp := mvccFixture(t)
	rid := insertRow(t, fp, 1, "k1")
	v1 := c.Pin()
	for _, name := range []string{"k2", "k1"} {
		tx := fp.Begin()
		if err := tx.Update("T", rid, []Value{NewInt(1), NewString(name), NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	c.Unpin(v1)
	c.runGC()

	tb.RLock()
	defer tb.RUnlock()
	n := 0
	tb.ProbeAt(ix, []Value{NewString("k1")}, Latest, func(_ RowID, vals []Value) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("probe(k1) after K1->K2->K1 and GC = %d rows, want 1", n)
	}
	if ix.Len() != 1 {
		t.Fatalf("index Len = %d after GC, want 1", ix.Len())
	}
}

func TestUniqueKeyReusableAfterVersionedDelete(t *testing.T) {
	c, _, _, fp := mvccFixture(t)
	rfp := readFP(t, c)
	if _, err := c.CreateIndex("PK", "T", true, []int{0}, "", nil); err != nil {
		t.Fatal(err)
	}
	rid := insertRow(t, fp, 7, "old")

	v1 := c.Pin()
	defer c.Unpin(v1)

	tx := fp.Begin()
	if _, err := tx.Delete("T", rid); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// The dead row's PK entry is still in the tree (pinned), but inserting
	// the same key must succeed: uniqueness is judged against live rows.
	insertRow(t, fp, 7, "new")

	// And a true duplicate is still rejected.
	tx = fp.Begin()
	_, err := tx.Insert("T", []Value{NewInt(7), NewString("dup"), NewFloat(0)})
	tx.Rollback()
	if err == nil {
		t.Fatal("duplicate key accepted")
	}

	// The old snapshot still sees exactly the old row.
	if got := scanNames(t, rfp, v1); len(got) != 1 || got[0] != "old" {
		t.Fatalf("snapshot scan = %v, want [old]", got)
	}
	if got := scanNames(t, rfp, Latest); len(got) != 1 || got[0] != "new" {
		t.Fatalf("latest scan = %v, want [new]", got)
	}
}

func TestRollbackVersionPushUpdate(t *testing.T) {
	c, tb, ix, fp := mvccFixture(t)
	rid := insertRow(t, fp, 1, "a")
	before := c.CurrentVersion()

	tx := fp.Begin()
	if err := tx.Update("T", rid, []Value{NewInt(1), NewString("b"), NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("T", []Value{NewInt(2), NewString("c"), NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	if got := c.CurrentVersion(); got != before {
		t.Fatalf("clock advanced by rolled-back txn: %d -> %d", before, got)
	}
	if got := scanNames(t, readFP(t, c), Latest); len(got) != 1 || got[0] != "a" {
		t.Fatalf("post-rollback scan = %v, want [a]", got)
	}
	tb.RLock()
	defer tb.RUnlock()
	if ix.Len() != 1 {
		t.Fatalf("index Len = %d after rollback, want 1", ix.Len())
	}
	if n := ix.CountPrefix([]Value{NewString("b")}); n != 0 {
		t.Fatalf("rolled-back entry b still indexed (%d)", n)
	}
	for i := range tb.rows {
		if !tb.rows[i].dead && tb.rows[i].prev != nil {
			t.Fatal("rolled-back update left a history image")
		}
	}
}

func TestRollbackUpdateBackToFormerKeyKeepsHistoryEntry(t *testing.T) {
	// Commit K1 -> K2 while pinned, then roll back an attempted K2 -> K1.
	// The rollback must not remove the k1 entry: the pinned snapshot still
	// reaches the historical image through it.
	c, _, _, fp := mvccFixture(t)
	rid := insertRow(t, fp, 1, "k1")
	v1 := c.Pin()
	defer c.Unpin(v1)

	tx := fp.Begin()
	if err := tx.Update("T", rid, []Value{NewInt(1), NewString("k2"), NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx = fp.Begin()
	if err := tx.Update("T", rid, []Value{NewInt(1), NewString("k1"), NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	rtx := readFP(t, c).BeginAt(v1)
	n := 0
	_ = rtx.Probe("T", "IX_NAME", []Value{NewString("k1")}, func(_ RowID, vals []Value) bool {
		n++
		return true
	})
	rtx.Commit()
	if n != 1 {
		t.Fatalf("snapshot probe(k1) after rollback = %d rows, want 1", n)
	}
}

func TestWriterVersionsAreSerialized(t *testing.T) {
	c, _, _, fp := mvccFixture(t)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx := fp.Begin()
				if _, err := tx.Insert("T", []Value{NewInt(int64(w*1000 + i)), NewString(fmt.Sprint("w", w)), NewFloat(0)}); err != nil {
					tx.Rollback()
					panic(err)
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	// Every commit advanced the clock by exactly one.
	want := firstVersion + Version(writers*perWriter)
	if got := c.CurrentVersion(); got != want {
		t.Fatalf("clock = %d, want %d (one version per commit)", got, want)
	}
	if got := scanNames(t, readFP(t, c), Latest); len(got) != writers*perWriter {
		t.Fatalf("row count = %d, want %d", len(got), writers*perWriter)
	}
}

func TestConcurrentReadersWithWriterAndGC(t *testing.T) {
	c, _, _, fp := mvccFixture(t)
	for i := 0; i < 50; i++ {
		insertRow(t, fp, int64(i), fmt.Sprint("n", i%5))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	rfp := readFP(t, c)
	count := func(asOf Version) int {
		tx := rfp.BeginAt(asOf)
		defer tx.Commit()
		n := 0
		_ = tx.Scan("T", func(RowID, []Value) bool { n++; return true })
		return n
	}
	// Readers: pin, verify the frozen count across repeated scans, unpin.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := c.Pin()
				want := count(v)
				for k := 0; k < 5; k++ {
					if got := count(v); got != want {
						panic(fmt.Sprintf("snapshot drifted: %d -> %d", want, got))
					}
				}
				c.Unpin(v)
			}
		}()
	}
	// Writer: churn updates and deletes/inserts.
	for i := 0; i < 200; i++ {
		tx := fp.Begin()
		var victim RowID = -1
		_ = tx.Scan("T", func(r RowID, vals []Value) bool {
			if vals[0].Int() == int64(i%50) {
				victim = r
				return false
			}
			return true
		})
		if victim >= 0 {
			if err := tx.Update("T", victim, []Value{NewInt(int64(i % 50)), NewString(fmt.Sprint("m", i%7)), NewFloat(float64(i))}); err != nil {
				tx.Rollback()
				t.Fatal(err)
			}
		}
		tx.Commit()
	}
	close(stop)
	wg.Wait()
	c.runGC()
	if got := c.PinnedVersions(); got != 0 {
		t.Fatalf("pins leaked: %d", got)
	}
}

// boundRIDs counts the row ids the dense rid->slot table still resolves.
func boundRIDs(t *Table) int {
	n := 0
	for _, s := range t.byRID {
		if s != 0 {
			n++
		}
	}
	return n
}
