package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqlgraph/internal/faultinject"
	"sqlgraph/internal/rel"
)

// dumpTables captures every table's full contents (row values in scan
// order, each rendered as its kind and Key), for exact before/after
// comparison around a rolled-back transaction.
func dumpTables(t *testing.T, s *Store) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	tx := s.fpReadAll.Begin()
	defer tx.Rollback()
	for _, name := range writeTables {
		var rows []string
		if err := tx.Scan(name, func(rid rel.RowID, vals []rel.Value) bool {
			var row strings.Builder
			for _, v := range vals {
				fmt.Fprintf(&row, "%s%q ", v.Kind(), v.Key())
			}
			rows = append(rows, row.String())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		out[name] = rows
	}
	return out
}

// assertRollbackRestoresEverything forces the given stored procedure to
// fail at its 1st, 2nd, ... Nth table mutation and asserts the undo log
// restores every table to its exact pre-transaction state each time. The
// loop ends when the operation survives all injected budgets (i.e. it
// performs fewer mutations than the budget allows).
func assertRollbackRestoresEverything(t *testing.T, s *Store, opName string, op func() error) {
	t.Helper()
	before := dumpTables(t, s)
	mutations := 0
	for n := 0; ; n++ {
		inj := faultinject.New()
		inj.Arm("mutate", n)
		rel.SetMutateHook(func(table string) error { return inj.Check("mutate") })
		err := op()
		rel.SetMutateHook(nil)
		if err == nil {
			mutations = n
			break
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s with fault at mutation %d: unexpected error %v", opName, n, err)
		}
		after := dumpTables(t, s)
		if !reflect.DeepEqual(before, after) {
			for _, name := range writeTables {
				if !reflect.DeepEqual(before[name], after[name]) {
					t.Fatalf("%s rolled back at mutation %d but %s changed:\nbefore %v\nafter  %v",
						opName, n, name, before[name], after[name])
				}
			}
		}
		if v := Check(s); len(v) != 0 {
			t.Fatalf("%s rolled back at mutation %d: Check violations %v", opName, n, v)
		}
		if n > 200 {
			t.Fatalf("%s still failing after %d mutation budgets", opName, n)
		}
	}
	if mutations < 2 {
		t.Fatalf("%s performed only %d mutations; the rollback sweep exercised nothing multi-table", opName, mutations)
	}
	if v := Check(s); len(v) != 0 {
		t.Fatalf("%s succeeded but Check reports %v", opName, v)
	}
}

func TestRollbackAddEdge(t *testing.T) {
	s := buildCheckedStore(t, DeleteClean)
	// Adding an "a" edge from vertex 2 (which already has a single-valued
	// "a" cell) migrates that cell to the secondary table: EA insert, two
	// OSA inserts, OPA update, then the IPA side — a genuinely multi-table
	// procedure.
	assertRollbackRestoresEverything(t, s, "AddEdge", func() error {
		return s.AddEdge(200, 2, 5, "a", map[string]any{"w": 2})
	})
}

func TestRollbackRemoveVertex(t *testing.T) {
	for _, mode := range []DeleteMode{DeleteClean, DeletePaperSoft} {
		s := buildCheckedStore(t, mode)
		// Vertex 1 carries a multi-valued list, spill rows, and a
		// self-loop; removing it touches EA, VA, both adjacency sides and
		// (in clean mode) the neighbors' rows.
		assertRollbackRestoresEverything(t, s, "RemoveVertex", func() error {
			return s.RemoveVertex(1)
		})
	}
}
