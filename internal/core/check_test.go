package core

import (
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
)

// buildCheckedStore creates a store exercising spills, multi-valued
// labels, deletes, and attribute churn, asserting Check stays clean
// after every mutation.
func buildCheckedStore(t *testing.T, mode DeleteMode) *Store {
	t.Helper()
	s, err := Open(Options{OutCols: 2, InCols: 2, DeleteMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	must := func(err error) {
		t.Helper()
		step++
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if v := Check(s); len(v) != 0 {
			t.Fatalf("step %d: Check violations: %v", step, v)
		}
	}
	for v := int64(1); v <= 6; v++ {
		must(s.AddVertex(v, map[string]any{"n": v}))
	}
	// Multi-valued label on vertex 1 (three "a" edges) plus enough labels
	// to force spill rows with only 2 columns.
	must(s.AddEdge(10, 1, 2, "a", nil))
	must(s.AddEdge(11, 1, 3, "a", map[string]any{"w": 1.5}))
	must(s.AddEdge(12, 1, 4, "a", nil))
	must(s.AddEdge(13, 1, 5, "b", nil))
	must(s.AddEdge(14, 1, 6, "c", nil))
	must(s.AddEdge(15, 1, 2, "d", nil))
	must(s.AddEdge(16, 1, 1, "e", nil)) // self-loop
	must(s.AddEdge(17, 2, 1, "a", nil))
	must(s.SetVertexAttr(1, "x", "hello"))
	must(s.SetEdgeAttr(10, "y", []any{int64(1), "two"}))
	must(s.RemoveVertexAttr(1, "n"))
	must(s.RemoveEdgeAttr(11, "w"))
	must(s.RemoveEdge(12)) // shrinks the multi-valued list
	must(s.RemoveEdge(13)) // empties a single-valued cell
	must(s.RemoveVertex(4))
	must(s.RemoveVertex(6))
	return s
}

func TestCheckCleanThroughWorkload(t *testing.T) {
	for _, mode := range []DeleteMode{DeleteClean, DeletePaperSoft} {
		s := buildCheckedStore(t, mode)
		if _, err := s.Vacuum(); err != nil {
			t.Fatal(err)
		}
		if v := Check(s); len(v) != 0 {
			t.Fatalf("mode %d: Check after Vacuum: %v", mode, v)
		}
	}
}

// TestVacuumReapsSecondaryLists is the regression test for two Vacuum
// bugs: (1) dropping a negated primary row left the OSA/ISA rows of its
// lid cells behind as orphans; (2) in DeletePaperSoft mode, a live lid
// cell whose whole list pointed at deleted vertices kept the dangling
// cell and lid rows forever.
func TestVacuumReapsSecondaryLists(t *testing.T) {
	countRows := func(s *Store, table string) int {
		tbl, _ := s.cat.Table(table)
		n := 0
		tbl.Scan(func(rid rel.RowID, vals []rel.Value) bool { n++; return true })
		return n
	}

	// (1) Deleted vertex owns a multi-valued list.
	s, err := Open(Options{OutCols: 2, InCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{1, 2, 3} {
		if err := s.AddVertex(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddEdge(10, 1, 2, "knows", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(11, 1, 3, "knows", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveVertex(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if n := countRows(s, TableOSA); n != 0 {
		t.Fatalf("OSA has %d orphaned rows after vacuuming a deleted list owner", n)
	}
	if v := Check(s); len(v) != 0 {
		t.Fatalf("Check after Vacuum: %v", v)
	}

	// (2) Live vertex's list points only at deleted vertices (PaperSoft).
	s, err = Open(Options{OutCols: 2, InCols: 2, DeleteMode: DeletePaperSoft})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{1, 2, 3} {
		if err := s.AddVertex(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddEdge(10, 1, 2, "knows", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(11, 1, 3, "knows", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveVertex(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveVertex(3); err != nil {
		t.Fatal(err)
	}
	if v := Check(s); len(v) != 0 {
		t.Fatalf("pre-Vacuum dangling entries should be legal in PaperSoft mode: %v", v)
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if n := countRows(s, TableOSA); n != 0 {
		t.Fatalf("OSA has %d rows for a fully-dead list after Vacuum", n)
	}
	if v := Check(s); len(v) != 0 {
		t.Fatalf("Check after Vacuum: %v", v)
	}
}

// TestCheckDetectsCorruption breaks each invariant by editing tables
// directly (bypassing the stored procedures) and asserts Check reports
// the matching code.
func TestCheckDetectsCorruption(t *testing.T) {
	hasCode := func(vs []Violation, code string) bool {
		for _, v := range vs {
			if v.Code == code {
				return true
			}
		}
		return false
	}
	raw := func(s *Store, fn func(tx *rel.Txn) error) {
		t.Helper()
		tx, err := s.cat.Begin(writeTables, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}

	cases := []struct {
		name   string
		code   string
		break_ func(s *Store, tx *rel.Txn) error
	}{
		{"drop adjacency cell row", "ADJ_MISSING", func(s *Store, tx *rel.Txn) error {
			var rid rel.RowID
			_ = tx.Probe(TableOPA, IndexOPAVID, []rel.Value{rel.NewInt(2)}, func(r rel.RowID, vals []rel.Value) bool {
				rid = r
				return false
			})
			_, err := tx.Delete(TableOPA, rid)
			return err
		}},
		{"drop EA row keeping adjacency", "ADJ_DANGLING", func(s *Store, tx *rel.Txn) error {
			var rid rel.RowID
			_ = tx.Probe(TableEA, IndexEAPK, []rel.Value{rel.NewInt(17)}, func(r rel.RowID, vals []rel.Value) bool {
				rid = r
				return false
			})
			_, err := tx.Delete(TableEA, rid)
			return err
		}},
		{"orphan secondary row", "SEC_ORPHAN", func(s *Store, tx *rel.Txn) error {
			_, err := tx.Insert(TableOSA, []rel.Value{rel.NewInt(-999), rel.NewInt(50), rel.NewInt(2)})
			return err
		}},
		{"EA row with unknown endpoint", "EA_ENDPOINT_MISSING", func(s *Store, tx *rel.Txn) error {
			_, err := tx.Insert(TableEA, []rel.Value{
				rel.NewInt(99), rel.NewInt(12345), rel.NewInt(2), rel.NewString("a"), rel.NewJSON(sqljson.FromMap(nil)),
			})
			return err
		}},
		{"flip spill flag", "SPILL_WRONG", func(s *Store, tx *rel.Txn) error {
			var rid rel.RowID
			var vals []rel.Value
			_ = tx.Probe(TableIPA, IndexIPAVID, []rel.Value{rel.NewInt(3)}, func(r rel.RowID, v []rel.Value) bool {
				rid, vals = r, append([]rel.Value(nil), v...)
				return false
			})
			vals[adjSPILL] = rel.NewInt(1)
			return tx.Update(TableIPA, rid, vals)
		}},
		{"negate adjacency row of live vertex", "NEG_ROW_NOT_DELETED", func(s *Store, tx *rel.Txn) error {
			var rid rel.RowID
			var vals []rel.Value
			_ = tx.Probe(TableOPA, IndexOPAVID, []rel.Value{rel.NewInt(2)}, func(r rel.RowID, v []rel.Value) bool {
				rid, vals = r, append([]rel.Value(nil), v...)
				return false
			})
			vals[adjVID] = rel.NewInt(-2 - 1)
			return tx.Update(TableOPA, rid, vals)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := buildCheckedStore(t, DeleteClean)
			raw(s, func(tx *rel.Txn) error { return tc.break_(s, tx) })
			vs := Check(s)
			if !hasCode(vs, tc.code) {
				t.Fatalf("want code %s, got %v", tc.code, vs)
			}
		})
	}
}
