package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/engine"
)

// The estimate-vs-actual regression corpus: a committed set of Gremlin
// queries over a deterministic graph, each with a pinned maximum q-error
// (max(est,act)/min(est,act), floored at 1) across every operator the
// planner estimated. A cost-model or statistics regression that degrades
// an estimate past its pinned bound fails the test; improvements should
// tighten the bound in testdata/est_corpus.json.

type estCase struct {
	Name    string  `json:"name"`
	Gremlin string  `json:"gremlin"`
	MaxQ    float64 `json:"max_q"`
	// Vertices sizes the graph the case runs on (default 200). Above
	// 2 048 the per-column NDV sketches leave the range a single linear
	// counter of their size can read.
	Vertices int `json:"vertices,omitempty"`
}

// estCorpusGraph builds the deterministic graph the corpus queries run
// on: nV vertices (k = i mod 5, name on even ids), a dense "a" ring, a
// sparser "b" fan, and a rare "c" label.
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

// qerr is the symmetric ratio error, floored at 1. Zero counts are
// smoothed to 1 so empty-but-predicted-small operators don't explode.
func qerr(est int64, act int) float64 {
	e, a := float64(est), float64(act)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// maxQError folds the worst per-operator q-error of one execution.
// Operators the planner did not estimate (est = -1) are skipped.
func maxQError(st *engine.ExecStats) (worst float64, ops []string) {
	worst = 1
	note := func(kind, name string, est int64, act int) {
		q := qerr(est, act)
		ops = append(ops, fmt.Sprintf("%s %s est=%d act=%d q=%.2f", kind, name, est, act, q))
		if q > worst {
			worst = q
		}
	}
	for i := range st.Scans {
		sc := &st.Scans[i]
		if sc.EstRows >= 0 {
			note("scan", sc.Table, sc.EstRows, sc.RowsOut)
		}
	}
	for i := range st.Joins {
		j := &st.Joins[i]
		if j.EstRows >= 0 {
			note("join", j.Table, j.EstRows, j.OutRows)
		}
	}
	return worst, ops
}

func TestEstimateCorpus(t *testing.T) {
	raw, err := os.ReadFile("testdata/est_corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []estCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}
	stores := map[int]*Store{}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			nV := cmp.Or(c.Vertices, 200)
			if stores[nV] == nil {
				stores[nV] = estCorpusGraph(t, nV)
			}
			res, err := stores[nV].QueryTraced(c.Gremlin, TranslateOptions{}, "")
			if err != nil {
				t.Fatalf("%s: %v", c.Gremlin, err)
			}
			worst, ops := maxQError(&res.Stats)
			if len(ops) == 0 {
				t.Fatalf("%s: no estimated operators — planner statistics lost?", c.Gremlin)
			}
			if worst > c.MaxQ {
				t.Errorf("%s: worst q-error %.2f exceeds pinned bound %.2f\n%v",
					c.Gremlin, worst, c.MaxQ, ops)
			}
		})
	}
}

// TestPlannerLargeFrontierIndexNL: on a 25 000-vertex graph, a 5 000-row
// frontier (then a 7 500-row one) hops through OPA on P.VID = V.VAL.
// OPA's vertex-id NDV reads about 25 000, so a probe's fan-out is costed
// at one row: each hop is an index nested-loop join whose output is
// estimated within 1.25x of the actual rows. A sketch saturated at its
// 2 048 cells read the NDV as 2 048, costed the fan-out at ~12 and sent
// both hops to hash joins over full OPA scans, each estimated at 25 000
// rows.
func TestPlannerLargeFrontierIndexNL(t *testing.T) {
	const nV = 25000
	s := estCorpusGraph(t, nV)
	ndv, ok := s.OptimizerStats().ColumnNDV(TableOPA, adjVID)
	if !ok || qerr(int64(ndv), nV) > 1.25 {
		t.Fatalf("OPA vertex-id NDV = %.0f (ok %v), want within 1.25x of %d", ndv, ok, nV)
	}
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
		if q := qerr(j.EstRows, j.OutRows); q > 1.25 {
			t.Errorf("hop %d: est=%d act=%d, q-error %.2f > 1.25", hops, j.EstRows, j.OutRows, q)
		}
	}
	if hops != 2 {
		t.Fatalf("found %d OPA joins, want 2\n%s", hops, res.Stats.String())
	}
}
