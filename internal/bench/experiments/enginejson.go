package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/translate"
)

// EngineBenchEntry is one query's machine-readable benchmark result.
type EngineBenchEntry struct {
	Figure     string   `json:"figure"` // "fig5" (Gremlin), "fig6" (path plans), "ordergroup" (sort/group pushdown)
	Query      string   `json:"query"`  // q1..q20 / lq1..lq11
	Gremlin    string   `json:"gremlin"`
	NsPerOp    int64    `json:"ns_per_op"`
	Rows       int      `json:"rows"`
	Joins      []string `json:"join_strategies"`
	MaxWorkers int      `json:"max_workers"`
}

// EngineBenchReport is the BENCH_engine.json document: per-query ns/op
// for the Figure 5 and Figure 6 workloads, so regressions in the SQL
// executor show up as diffs against the committed baseline.
type EngineBenchReport struct {
	Scale       string             `json:"scale"`
	Parallelism int                `json:"parallelism"` // 0 = GOMAXPROCS
	Entries     []EngineBenchEntry `json:"entries"`
}

// EngineBenchJSON runs the Figure 5 Gremlin workload and the Figure 6
// path-plan workload, one statement per query, and writes per-query
// ns/op plus the executor's strategy decisions as JSON. Timings follow
// the paper's warm-cache methodology (first run discarded).
func EngineBenchJSON(env *DBpediaEnv, scaleName string, w io.Writer) error {
	report, err := EngineBenchReportData(env, scaleName)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// EngineBenchReportData runs the engine workloads and returns the report
// in memory, so callers can fold in additional entries (e.g. the HTTP
// serving-layer bench) before writing or comparing against a baseline.
func EngineBenchReportData(env *DBpediaEnv, scaleName string) (*EngineBenchReport, error) {
	report := EngineBenchReport{
		Scale:       scaleName,
		Parallelism: env.Store.Engine().ExecOptionsInEffect().Parallelism,
	}
	run := func(figure, name, gq string, opts translate.Options) error {
		var mean time.Duration
		var rows int
		joins := map[string]bool{}
		workers := 1
		const runs = 3
		var total time.Duration
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			r, err := env.Store.QueryTraced(gq, opts, "")
			dt := time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s %s: %w", figure, name, err)
			}
			rows = r.Count()
			for _, s := range r.Stats.JoinStrategies() {
				joins[string(s)] = true
			}
			if mw := r.Stats.MaxWorkers(); mw > workers {
				workers = mw
			}
			if i > 0 {
				total += dt
			}
		}
		mean = total / (runs - 1)
		var joinList []string
		for _, s := range []string{"index-nl", "hash", "nested-loop"} {
			if joins[s] {
				joinList = append(joinList, s)
			}
		}
		report.Entries = append(report.Entries, EngineBenchEntry{
			Figure:     figure,
			Query:      name,
			Gremlin:    gq,
			NsPerOp:    mean.Nanoseconds(),
			Rows:       rows,
			Joins:      joinList,
			MaxWorkers: workers,
		})
		return nil
	}
	for i, gq := range queries.BenchmarkQueries(env.Data) {
		if err := run("fig5", fmt.Sprintf("q%d", i+1), gq, translate.Options{}); err != nil {
			return nil, err
		}
	}
	for i, gq := range queries.PathQueries(env.Data) {
		if err := run("fig6", fmt.Sprintf("lq%d", i+1), gq, translate.Options{ForceHashTables: true}); err != nil {
			return nil, err
		}
	}
	for i, gq := range queries.OrderGroupQueries(env.Data) {
		if err := run("ordergroup", fmt.Sprintf("og%d", i+1), gq, translate.Options{}); err != nil {
			return nil, err
		}
	}
	return &report, nil
}
