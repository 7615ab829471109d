package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sqlgraph/internal/rel"
)

// TestSketchAddRemoveExact: the cells and every level's occupancy are a
// function of the live multiset alone. The 20 000 distinct keys load the
// first levels past their full mark, so the estimate reads from a level
// above the first.
func TestSketchAddRemoveExact(t *testing.T) {
	a, b := NewSketch(), NewSketch()
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 0, 60000)
	for i := 0; i < 60000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(20000))
		keys = append(keys, k)
		a.Add(k)
	}
	if a.occ[0] <= sketchFullOcc || a.occ[1] <= sketchFullOcc {
		t.Fatalf("fixture does not load the first levels past full: occupancy %v", a.occ)
	}
	// b sees the same multiset interleaved with extra add/remove pairs.
	for i, k := range keys {
		b.Add(k)
		if i%3 == 0 {
			extra := fmt.Sprintf("x%d", i)
			b.Add(extra)
			b.Remove(extra)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("len mismatch: %d vs %d", a.Len(), b.Len())
	}
	if a.cells != b.cells || a.occ != b.occ {
		t.Fatalf("sketches of one multiset differ: occupancy %v vs %v", a.occ, b.occ)
	}
	if a.NDV() != b.NDV() {
		t.Fatalf("estimates differ: %v vs %v", a.NDV(), b.NDV())
	}
	// Removing everything empties the sketch exactly, at every level.
	for _, k := range keys {
		a.Remove(k)
	}
	if !a.Empty() || a.NDV() != 0 {
		t.Fatalf("sketch not empty after removing all keys: n=%d ndv=%v", a.n, a.NDV())
	}
	if a.cells != ([sketchCells]int32{}) || a.occ != ([sketchLevels]int32{}) {
		t.Fatalf("sketch not zero after full removal: occupancy %v", a.occ)
	}
}

// TestSketchNDVAccuracy reads the estimate at distinct counts from one to
// a million, past the 2 048 a single linear counter of the sketch's size
// saturates at (OPA's 56 672 vertex ids read as 2 048 there), for plain
// string keys and for the rel.Value.Key strings the collection adds.
func TestSketchNDVAccuracy(t *testing.T) {
	keyFns := map[string]func(i int) string{
		"string":    func(i int) string { return fmt.Sprintf("key-%d", i) },
		"value-key": func(i int) string { return rel.NewInt(int64(i)).Key() },
	}
	for name, key := range keyFns {
		for _, distinct := range []int{1, 10, 100, 1000, 5000, 20000, 56672, 1000000} {
			s := NewSketch()
			for i := 0; i < distinct; i++ {
				k := key(i)
				s.Add(k)
				s.Add(k) // duplicates must not inflate the estimate
			}
			est := s.NDV()
			relErr := math.Abs(est-float64(distinct)) / float64(distinct)
			q := math.Max(est, float64(distinct)) / math.Min(est, float64(distinct))
			if distinct <= 100 && relErr > 0.05 {
				t.Errorf("%s: distinct=%d est=%.1f relerr=%.3f", name, distinct, est, relErr)
			}
			if q > 1.25 {
				t.Errorf("%s: distinct=%d est=%.1f q-error %.3f exceeds 1.25", name, distinct, est, q)
			}
		}
	}
}

func TestHistogramFracLE(t *testing.T) {
	var vals []rel.Value
	for i := 0; i < 1000; i++ {
		vals = append(vals, rel.NewInt(int64(i)))
	}
	h := buildHistogram(vals)
	if h.Total != 1000 {
		t.Fatalf("total = %d", h.Total)
	}
	if got := h.FracLE(rel.NewInt(-5)); got != 0 {
		t.Errorf("FracLE(-5) = %v", got)
	}
	if got := h.FracLE(rel.NewInt(5000)); got != 1 {
		t.Errorf("FracLE(5000) = %v", got)
	}
	mid := h.FracLE(rel.NewInt(500))
	if mid < 0.4 || mid > 0.6 {
		t.Errorf("FracLE(500) = %v, want ~0.5", mid)
	}
	lo, hi := rel.NewInt(250), rel.NewInt(750)
	if f := h.FracBetween(&lo, &hi); f < 0.35 || f > 0.65 {
		t.Errorf("FracBetween(250,750) = %v, want ~0.5", f)
	}
}

func newTestCatalog(t *testing.T) *rel.Catalog {
	t.Helper()
	cat := rel.NewCatalog()
	if _, err := cat.CreateTable("T", rel.NewSchema(
		rel.Column{Name: "ID", Type: rel.KindInt},
		rel.Column{Name: "LBL", Type: rel.KindString},
		rel.Column{Name: "VAL", Type: rel.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	return cat
}

func testConfig() Config {
	return Config{Tables: []TableSpec{{
		Name:         "T",
		NDVCols:      []int{0, 2},
		HistCols:     []int{2},
		GroupCol:     1,
		GroupNDVCols: []int{0},
	}}}
}

func TestCollectionIncrementalMatchesRebuild(t *testing.T) {
	cat := newTestCatalog(t)
	inc := NewCollection(cat, testConfig())
	cat.SetChangeObserver(inc)

	rng := rand.New(rand.NewSource(7))
	var live []rel.RowID
	mutate := func() {
		tx, err := cat.Begin([]string{"T"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0: // insert
			id := rng.Intn(500)
			var lbl rel.Value
			if rng.Intn(10) == 0 {
				lbl = rel.Value{} // null label: excluded from groups
			} else {
				lbl = rel.NewString(fmt.Sprintf("l%d", rng.Intn(5)))
			}
			rid, err := tx.Insert("T", []rel.Value{rel.NewInt(int64(id)), lbl, rel.NewInt(int64(rng.Intn(50) - 25))})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, rid)
		case op < 8: // delete
			i := rng.Intn(len(live))
			if _, err := tx.Delete("T", live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		default: // update
			i := rng.Intn(len(live))
			err := tx.Update("T", live[i], []rel.Value{
				rel.NewInt(int64(rng.Intn(500))),
				rel.NewString(fmt.Sprintf("l%d", rng.Intn(5))),
				rel.NewInt(int64(rng.Intn(50) - 25)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
	}
	for i := 0; i < 2000; i++ {
		mutate()
	}

	// A second collection rebuilt from scratch must fingerprint
	// identically on the invariant-exact state.
	scratch := NewCollection(cat, testConfig())
	if err := scratch.RebuildAll(); err != nil {
		t.Fatal(err)
	}
	if got, want := inc.Fingerprint("T"), scratch.Fingerprint("T"); got != want {
		t.Fatalf("incremental fingerprint diverged from rebuild:\nincremental:\n%s\nrebuild:\n%s", got, want)
	}

	rows, ok := inc.TableRows("T")
	if !ok || rows != int64(len(live)) {
		t.Fatalf("TableRows = %d, %v; want %d", rows, ok, len(live))
	}
}

func TestCollectionRolledBackTxnInvisible(t *testing.T) {
	cat := newTestCatalog(t)
	c := NewCollection(cat, testConfig())
	cat.SetChangeObserver(c)

	tx, _ := cat.Begin([]string{"T"}, nil)
	if _, err := tx.Insert("T", []rel.Value{rel.NewInt(1), rel.NewString("a"), rel.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if rows, _ := c.TableRows("T"); rows != 0 {
		t.Fatalf("rolled-back insert leaked into stats: rows=%d", rows)
	}

	tx, _ = cat.Begin([]string{"T"}, nil)
	if _, err := tx.Insert("T", []rel.Value{rel.NewInt(1), rel.NewString("a"), rel.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if rows, _ := c.TableRows("T"); rows != 1 {
		t.Fatalf("committed insert missing: rows=%d", rows)
	}
	if n, ok := c.GroupCount("T", rel.NewString("a")); !ok || n != 1 {
		t.Fatalf("GroupCount(a) = %d, %v", n, ok)
	}
	if n, ok := c.GroupCount("T", rel.NewString("missing")); !ok || n != 0 {
		t.Fatalf("GroupCount(missing) = %d, %v; want known zero", n, ok)
	}
}

func TestDescribeAndProviders(t *testing.T) {
	cat := newTestCatalog(t)
	c := NewCollection(cat, testConfig())
	cat.SetChangeObserver(c)
	tx, _ := cat.Begin([]string{"T"}, nil)
	for i := 0; i < 100; i++ {
		lbl := "hot"
		if i%10 == 0 {
			lbl = "cold"
		}
		if _, err := tx.Insert("T", []rel.Value{rel.NewInt(int64(i)), rel.NewString(lbl), rel.NewInt(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := c.RebuildAll(); err != nil {
		t.Fatal(err)
	}

	if f, ok := c.FracNonNeg("T", 0); !ok || f != 1 {
		t.Errorf("FracNonNeg = %v, %v", f, ok)
	}
	if f, ok := c.FracNonNull("T", 1); !ok || f != 1 {
		t.Errorf("FracNonNull = %v, %v", f, ok)
	}
	if ndv, ok := c.ColumnNDV("T", 2); !ok || math.Abs(ndv-7) > 1 {
		t.Errorf("ColumnNDV(VAL) = %v, %v; want ~7", ndv, ok)
	}
	if _, ok := c.ColumnNDV("T", 1); ok {
		t.Error("ColumnNDV on unsketched ordinal should report !ok")
	}
	if sel, ok := c.SelEq("T", 2, rel.NewInt(3)); !ok || sel < 0.1 || sel > 0.2 {
		t.Errorf("SelEq = %v, %v; want ~1/7", sel, ok)
	}
	lo, hi := rel.NewInt(0), rel.NewInt(3)
	if sel, ok := c.SelRange("T", 2, &lo, &hi); !ok || sel <= 0 || sel > 1 {
		t.Errorf("SelRange = %v, %v", sel, ok)
	}
	if n, ok := c.GroupCount("T", rel.NewString("hot")); !ok || n != 90 {
		t.Errorf("GroupCount(hot) = %d, %v", n, ok)
	}
	if ndv, ok := c.GroupNDV("T", rel.NewString("cold"), 0); !ok || math.Abs(ndv-10) > 1.5 {
		t.Errorf("GroupNDV(cold, ID) = %v, %v; want ~10", ndv, ok)
	}

	ds := c.Describe(0)
	if len(ds) != 1 || ds[0].Table != "T" || ds[0].Rows != 100 {
		t.Fatalf("Describe = %+v", ds)
	}
	if len(ds[0].Groups) != 2 || ds[0].Groups[0].Count < ds[0].Groups[1].Count {
		t.Fatalf("groups not sorted by count: %+v", ds[0].Groups)
	}
	if got := c.Describe(1); len(got[0].Groups) != 1 {
		t.Fatalf("maxGroups not honored: %+v", got[0].Groups)
	}
}
