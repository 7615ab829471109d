package rel

import (
	"fmt"
	"testing"
)

// organisations names the two index organisations, for tests that run
// over both.
var organisations = []struct {
	name   string
	hashed bool
}{{"ordered", false}, {"hashed", true}}

// createIndex creates a non-unique index of either organisation.
func createIndex(t testing.TB, c *Catalog, name, table string, hashed bool, ords ...int) *Index {
	t.Helper()
	var ix *Index
	var err error
	if hashed {
		ix, err = c.CreateHashIndex(name, table, ords)
	} else {
		ix, err = c.CreateIndex(name, table, false, ords, "", nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ix.Ordered() == hashed {
		t.Fatalf("index %s: Ordered() = %v for hashed = %v", name, ix.Ordered(), hashed)
	}
	return ix
}

// probeFixture builds T(ID, NAME, SCORE) with a single-column index on ID
// and a composite one on (ID, NAME), both of the given organisation, n
// rows, two per ID.
func probeFixture(t testing.TB, n int, hashed bool) (*Catalog, *Table, *Index, *Index, *Footprint) {
	t.Helper()
	c := NewCatalog()
	tb, err := c.CreateTable("T", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	byID := createIndex(t, c, "IX_ID", "T", hashed, 0)
	byIDName := createIndex(t, c, "IX_ID_NAME", "T", hashed, 0, 1)
	fp, err := c.Footprint([]string{"T"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := fp.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("T", []Value{NewInt(int64(i / 2)), NewString(fmt.Sprintf("http://example.org/label/%d", i%2)), NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	return c, tb, byID, byIDName, fp
}

// TestProbeAtAllocFree: a probe encodes its key and every candidate's key
// into stack buffers (an ordered index) or compares words (a hashed one)
// and finds slots through the dense rid table, so the per-frontier-row
// probe of a traversal hop allocates nothing.
func TestProbeAtAllocFree(t *testing.T) {
	for _, org := range organisations {
		t.Run(org.name, func(t *testing.T) {
			_, tb, byID, byIDName, _ := probeFixture(t, 4096, org.hashed)
			tb.RLock()
			defer tb.RUnlock()
			seen := 0
			visit := func(RowID, []Value) bool { seen++; return true }

			intKey := []Value{NewInt(0)}
			i := int64(0)
			if a := testing.AllocsPerRun(200, func() {
				intKey[0] = NewInt(i % 2048)
				i++
				tb.ProbeAt(byID, intKey, Latest, visit)
			}); a != 0 {
				t.Fatalf("ProbeAt on an int key: %v allocs per probe, want 0", a)
			}
			compKey := []Value{NewInt(0), NewString("http://example.org/label/1")}
			if a := testing.AllocsPerRun(200, func() {
				compKey[0] = NewInt(i % 2048)
				i++
				tb.ProbeAt(byIDName, compKey, Latest, visit)
			}); a != 0 {
				t.Fatalf("ProbeAt on a composite key: %v allocs per probe, want 0", a)
			}
			want := 200*2 + 200*1
			if !org.hashed {
				if a := testing.AllocsPerRun(50, func() {
					tb.ProbeRangeAt(byID, NewInt(10), NewInt(20), true, false, Latest, visit)
				}); a != 0 {
					t.Fatalf("ProbeRangeAt: %v allocs per probe, want 0", a)
				}
				want += 50 * 20
			}
			if seen < want {
				t.Fatalf("probes visited %d rows, want at least %d", seen, want)
			}
		})
	}
}

// TestStaleEntriesThroughDenseRIDTable walks one row through update,
// delete and garbage collection while a snapshot stays pinned: at every
// step the latest view and the pinned view must each see exactly the
// image they own, whatever stale entries and slot reuse the tree and the
// rid table carry at that moment.
func TestStaleEntriesThroughDenseRIDTable(t *testing.T) {
	for _, org := range organisations {
		t.Run(org.name, func(t *testing.T) { staleEntriesThroughDenseRIDTable(t, org.hashed) })
	}
}

func staleEntriesThroughDenseRIDTable(t *testing.T, hashed bool) {
	c, tb, byID, byIDName, fp := probeFixture(t, 8, hashed)
	rfp, err := c.Footprint(nil, []string{"T"})
	if err != nil {
		t.Fatal(err)
	}
	probe := func(ix *Index, asOf Version, key ...Value) (names []string) {
		rtx := rfp.BeginAt(asOf)
		defer rtx.Commit()
		_ = rtx.Probe("T", ix.Name(), key, func(_ RowID, vals []Value) bool {
			names = append(names, fmt.Sprintf("%d/%s", vals[0].Int(), vals[1].Str()))
			return true
		})
		return names
	}
	expect := func(what string, got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	var rid RowID = -1
	tb.RLock()
	tb.ProbeAt(byIDName, []Value{NewInt(1), NewString("http://example.org/label/0")}, Latest, func(r RowID, _ []Value) bool {
		rid = r
		return true
	})
	tb.RUnlock()
	if rid < 0 {
		t.Fatal("fixture row (1, label/0) not found")
	}

	pinned := c.Pin()

	// Update moves the row from ID 1 to ID 100: the old entries stay in
	// both trees for the pin, stale for everyone else.
	tx := fp.Begin()
	if err := tx.Update("T", rid, []Value{NewInt(100), NewString("moved"), NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	expect("latest ID=1 after update", probe(byID, Latest, NewInt(1)), "1/http://example.org/label/1")
	expect("latest ID=100 after update", probe(byID, Latest, NewInt(100)), "100/moved")
	expect("pinned ID=1 after update", probe(byID, pinned, NewInt(1)), "1/http://example.org/label/0", "1/http://example.org/label/1")
	expect("pinned ID=100 after update", probe(byID, pinned, NewInt(100)))
	expect("pinned composite after update", probe(byIDName, pinned, NewInt(1), NewString("http://example.org/label/0")), "1/http://example.org/label/0")

	// Delete: gone from the latest view, still the old image for the pin.
	tx = fp.Begin()
	if _, err := tx.Delete("T", rid); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	expect("latest ID=100 after delete", probe(byID, Latest, NewInt(100)))
	expect("pinned ID=1 after delete", probe(byID, pinned, NewInt(1)), "1/http://example.org/label/0", "1/http://example.org/label/1")

	// A new row while the dead slot is still held for the pin.
	tx = fp.Begin()
	newRID, err := tx.Insert("T", []Value{NewInt(1), NewString("fresh"), NewFloat(2)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	expect("latest ID=1 after insert", probe(byID, Latest, NewInt(1)), "1/http://example.org/label/1", "1/fresh")
	expect("pinned ID=1 after insert", probe(byID, pinned, NewInt(1)), "1/http://example.org/label/0", "1/http://example.org/label/1")

	// Unpin and collect: the slot is reclaimed and its rid unbound; the
	// next insert reuses the slot under a new rid.
	c.Unpin(pinned)
	c.runGC()
	tb.RLock()
	if _, ok := tb.slotOf(rid); ok {
		t.Fatalf("rid %d still bound after its slot was reclaimed", rid)
	}
	if _, ok := tb.GetAt(rid, Latest); ok {
		t.Fatal("reclaimed row still readable")
	}
	tb.RUnlock()
	tx = fp.Begin()
	reuse, err := tx.Insert("T", []Value{NewInt(100), NewString("reuser"), NewFloat(3)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if reuse <= newRID {
		t.Fatalf("row ids must keep growing: %d after %d", reuse, newRID)
	}
	tb.RLock()
	oldSlotReused := false
	if s, ok := tb.slotOf(reuse); ok && s < 8 {
		oldSlotReused = true
	}
	tb.RUnlock()
	if !oldSlotReused {
		t.Fatal("freed slot was not reused by the next insert")
	}
	expect("latest ID=100 after reuse", probe(byID, Latest, NewInt(100)), "100/reuser")
	expect("latest ID=1 after reuse", probe(byID, Latest, NewInt(1)), "1/http://example.org/label/1", "1/fresh")
	if byID.Len() != 9 || byIDName.Len() != 9 {
		t.Fatalf("index sizes after GC = %d, %d, want 9, 9 (no stale entries left)", byID.Len(), byIDName.Len())
	}
}
