package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"sqlgraph/internal/baseline"
	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/translate"
)

var updateCeilings = flag.Bool("update-ceilings", false, "rewrite testdata/work_ceilings.json with the counts this run measures")

// workCeiling is one query's committed ceiling: ExecStats.Work (the rows
// its scans and joins saw, weighted by operator) and MaterializedRows
// (the rows its operators stored). Both are row counts, the same at any
// worker count.
type workCeiling struct {
	Work             float64 `json:"work"`
	MaterializedRows int     `json:"materialized_rows"`
}

const ceilingsFile = "testdata/work_ceilings.json"

// TestFigureWorkCeilings runs each Figure 5 query (default options) and
// each Figure 6 query (hash tables forced) once on the small DBpedia
// environment and fails when its work or its stored rows exceed the
// query's committed ceiling, or when a query has none. A join that loses
// its index probe, or a CTE stored where it used to stream into its
// reader, shows as a count above its ceiling; a change that lowers one
// rewrites the file with -update-ceilings.
func TestFigureWorkCeilings(t *testing.T) {
	env, err := SetupDBpedia(ScaleSmall, baseline.CostModel{}, false)
	if err != nil {
		t.Fatal(err)
	}
	var ceilings map[string]workCeiling
	if raw, err := os.ReadFile(ceilingsFile); err == nil {
		if err := json.Unmarshal(raw, &ceilings); err != nil {
			t.Fatal(err)
		}
	} else if !*updateCeilings {
		t.Fatal(err)
	}
	measured := map[string]workCeiling{}
	check := func(name, gq string, opts translate.Options) {
		res, err := env.Store.QueryTraced(gq, opts, "")
		if err != nil {
			t.Fatalf("%s %s: %v", name, gq, err)
		}
		got := workCeiling{Work: res.Stats.Work(), MaterializedRows: res.Stats.MaterializedRows}
		measured[name] = got
		if *updateCeilings {
			return
		}
		c, ok := ceilings[name]
		switch {
		case !ok:
			t.Errorf("%s: no ceiling in %s for %s", name, ceilingsFile, gq)
		case got.Work > c.Work || got.MaterializedRows > c.MaterializedRows:
			t.Errorf("%s: work %.1f, materialized rows %d; ceiling %.1f, %d\n%s\n%s",
				name, got.Work, got.MaterializedRows, c.Work, c.MaterializedRows, gq, res.Stats.String())
		}
	}
	for i, gq := range queries.BenchmarkQueries(env.Data) {
		check(fmt.Sprintf("fig5/q%d", i+1), gq, translate.Options{})
	}
	for i, gq := range queries.PathQueries(env.Data) {
		check(fmt.Sprintf("fig6/lq%d", i+1), gq, translate.Options{ForceHashTables: true})
	}
	if *updateCeilings {
		raw, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ceilingsFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
