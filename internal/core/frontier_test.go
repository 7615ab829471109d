package core

import (
	"fmt"
	"testing"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/engine"
)

// estCorpusGraph builds a deterministic graph: nV vertices (k = i mod 5,
// name on even ids), a dense "a" ring, a sparser "b" fan, and a rare "c"
// label.
func estCorpusGraph(t *testing.T, nV int) *Store {
	t.Helper()
	g := blueprints.NewMemGraph()
	for i := 0; i < nV; i++ {
		attrs := map[string]any{"k": int64(i % 5)}
		if i%2 == 0 {
			attrs["name"] = fmt.Sprintf("n%d", i%10)
		}
		if err := g.AddVertex(int64(i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	eid := int64(1000)
	addEdge := func(from, to int, label string) {
		if err := g.AddEdge(eid, int64(from), int64(to), label, map[string]any{"w": float64(eid%100) / 100}); err != nil {
			t.Fatal(err)
		}
		eid++
	}
	for i := 0; i < nV; i++ {
		addEdge(i, (i*7+1)%nV, "a")
		if i%2 == 0 {
			addEdge(i, (i*13+2)%nV, "b")
		}
		if i%20 == 0 {
			addEdge(i, (i*3+5)%nV, "c")
		}
	}
	s, err := Load(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPlannerLargeFrontierIndexNL: on a 25 000-vertex graph, a 5 000-row
// frontier (then a 7 500-row one) hops through OPA on P.VID = V.VAL. An
// index covers the join key, so each hop is an index nested-loop join
// however large its frontier, never a hash join over a full OPA scan.
func TestPlannerLargeFrontierIndexNL(t *testing.T) {
	const nV = 25000
	s := estCorpusGraph(t, nV)
	res, err := s.QueryTraced("g.V.has('k', 1).out().out()", TranslateOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for _, j := range res.Stats.Joins {
		if j.Table != TableOPA && j.Table != "P" {
			continue
		}
		hops++
		if j.Strategy != engine.StrategyIndexNL || j.BuildRows < 5000 {
			t.Errorf("hop %d: %s join driven by %d rows, want index-nl over >= 5000\n%s", hops, j.Strategy, j.BuildRows, res.Stats.String())
		}
	}
	if hops != 2 {
		t.Fatalf("found %d OPA joins, want 2\n%s", hops, res.Stats.String())
	}
}
