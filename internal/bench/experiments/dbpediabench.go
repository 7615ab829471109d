package experiments

import (
	"fmt"
	"io"
	"time"

	"sqlgraph/internal/bench"
	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/translate"
)

// benchTimeout bounds each baseline query (the paper's Titan timed out on
// query 15).
const benchTimeout = 30 * time.Second

// systemSet assembles the three systems of Figure 8.
func systemSet(env *DBpediaEnv) []bench.System {
	out := []bench.System{sqlGraphSystem(env.Store, translate.Options{})}
	if env.Titan != nil {
		out = append(out, func() bench.System {
			s := bench.InterpSystem("Titan-like", env.Titan)
			return s
		}())
	}
	if env.Neo != nil {
		s := bench.InterpSystem("Neo4j-like", env.Neo)
		out = append(out, s)
	}
	return out
}

// QueryStats holds one system's aggregate over a query set.
type QueryStats struct {
	System   string
	Mean     time.Duration
	Std      time.Duration
	TimedOut []int // query ids that timed out
}

// Fig8aBenchmark reproduces Figure 8a: the 20 DBpedia benchmark queries
// across SQLGraph, the Titan-like store, and the Neo4j-like store.
// Expected shape: SQLGraph ~2x faster than Titan-like, ~8x than
// Neo4j-like; the pathological query 15 may time out on baselines.
func Fig8aBenchmark(env *DBpediaEnv, w io.Writer) ([]QueryStats, error) {
	header(w, "Figure 8a: DBpedia benchmark queries (20)")
	if env.OrientFailed {
		fmt.Fprintln(w, "note: OrientDB-like store failed to load the dataset (URI edge labels), as in the paper")
	}
	bqs := queries.BenchmarkQueries(env.Data)
	return runQuerySet(env, bqs, "dq", w)
}

// Fig8bPaths reproduces Figure 8b: the 11 long-path queries across the
// three systems.
func Fig8bPaths(env *DBpediaEnv, w io.Writer) ([]QueryStats, error) {
	header(w, "Figure 8b: path queries (11)")
	return runQuerySet(env, queries.PathQueries(env.Data), "lq", w)
}

func runQuerySet(env *DBpediaEnv, qs []string, prefix string, w io.Writer) ([]QueryStats, error) {
	systems := systemSet(env)
	headers := []string{"Query"}
	for _, s := range systems {
		headers = append(headers, s.Name)
	}
	tab := &bench.Table{Headers: headers}
	perSystem := make([][]bench.Timing, len(systems))
	timedOut := make([][]int, len(systems))
	for qi, q := range qs {
		row := []string{fmt.Sprintf("%s%d", prefix, qi+1)}
		for si, sys := range systems {
			timings := bench.Repeat(sys, q, 3, benchTimeout)
			if len(timings) > 0 && timings[len(timings)-1].TimedOut {
				row = append(row, "timeout")
				timedOut[si] = append(timedOut[si], qi+1)
				continue
			}
			if len(timings) > 0 && timings[len(timings)-1].Err != nil {
				return nil, fmt.Errorf("%s on %s: %w", row[0], sys.Name, timings[len(timings)-1].Err)
			}
			m, _ := bench.MeanStd(timings)
			perSystem[si] = append(perSystem[si], timings...)
			row = append(row, bench.FormatDuration(m))
		}
		tab.Add(row...)
	}
	tab.Write(w)
	stats := make([]QueryStats, len(systems))
	for si, sys := range systems {
		m, s := bench.MeanStd(perSystem[si])
		stats[si] = QueryStats{System: sys.Name, Mean: m, Std: s, TimedOut: timedOut[si]}
		note := ""
		if len(timedOut[si]) > 0 {
			note = fmt.Sprintf("  (timed out: %v)", timedOut[si])
		}
		fmt.Fprintf(w, "%-12s mean=%s std=%s%s\n", sys.Name, bench.FormatDuration(m), bench.FormatDuration(s), note)
	}
	return stats, nil
}

// Fig8cMemory reproduces Figure 8c: mean query time as the memory budget
// grows. SQLGraph's engine uses a simulated buffer pool; the baselines a
// bounded element cache. Budgets are fractions of the dataset's working
// set (the paper's 2-10 GB for a ~66 GB database).
func Fig8cMemory(env *DBpediaEnv, w io.Writer) error {
	header(w, "Figure 8c: varying memory")
	// Working set approximated by vertex count; budgets 20%..100%.
	working := env.Data.NumVertices + env.Data.NumEdges
	budgets := []int{20, 40, 60, 80, 100}
	qs := queries.PathQueries(env.Data)[:4]
	missPenalty := 2 * time.Microsecond

	tab := &bench.Table{Headers: []string{"Memory", "SQLGraph", "Titan-like", "Neo4j-like"}}
	for _, pct := range budgets {
		capacity := working * pct / 100
		row := []string{fmt.Sprintf("%d%%", pct)}
		// SQLGraph with a bounded buffer pool.
		sim := bench.NewIOSim(capacity/16+1, 16, missPenalty)
		env.Store.Engine().SetIOSim(sim)
		sys := sqlGraphSystem(env.Store, translate.Options{})
		var total time.Duration
		for _, q := range qs {
			m, _ := bench.MeanStd(bench.Repeat(sys, q, 3, benchTimeout))
			total += m
		}
		env.Store.Engine().SetIOSim(nil)
		row = append(row, bench.FormatDuration(total/time.Duration(len(qs))))
		// Baselines with bounded element caches.
		for _, base := range []struct {
			name string
			sys  bench.System
		}{
			{"Titan-like", bench.InterpSystem("Titan-like", bench.NewCacheSimGraph(env.Titan, capacity+1, missPenalty))},
			{"Neo4j-like", bench.InterpSystem("Neo4j-like", bench.NewCacheSimGraph(env.Neo, capacity+1, missPenalty))},
		} {
			var total time.Duration
			for _, q := range qs {
				m, _ := bench.MeanStd(bench.Repeat(base.sys, q, 3, benchTimeout))
				total += m
			}
			row = append(row, bench.FormatDuration(total/time.Duration(len(qs))))
		}
		tab.Add(row...)
	}
	tab.Write(w)
	fmt.Fprintln(w, "(paper: no system improves perceptibly past ~80% of its working set)")
	return nil
}

// Fig8dSummary reproduces Figure 8d: benchmark mean, adjusted mean
// (excluding the timeout-prone query 15), and path mean per system.
func Fig8dSummary(env *DBpediaEnv, w io.Writer) error {
	header(w, "Figure 8d: DBpedia performance summary")
	bqs := queries.BenchmarkQueries(env.Data)
	var adjusted []string
	for i, q := range bqs {
		if i == 14 { // query 15 (1-based) excluded from the adjusted mean
			continue
		}
		adjusted = append(adjusted, q)
	}
	systems := systemSet(env)
	tab := &bench.Table{Headers: []string{"System", "Benchmark", "Adjusted", "Path"}}
	for _, sys := range systems {
		bm := meanOf(sys, bqs)
		am := meanOf(sys, adjusted)
		pm := meanOf(sys, queries.PathQueries(env.Data))
		tab.Add(sys.Name, bench.FormatDuration(bm), bench.FormatDuration(am), bench.FormatDuration(pm))
	}
	tab.Write(w)
	fmt.Fprintln(w, "(paper: SQLGraph ~2x faster than Titan, ~8x faster than Neo4j)")
	return nil
}

func meanOf(sys bench.System, qs []string) time.Duration {
	var all []bench.Timing
	for _, q := range qs {
		ts := bench.Repeat(sys, q, 2, benchTimeout)
		for _, t := range ts {
			if !t.TimedOut && t.Err == nil {
				all = append(all, t)
			}
		}
	}
	m, _ := bench.MeanStd(all)
	return m
}

// AblationTranslation isolates the translation benefit from the storage
// benefit: the same SQLGraph store queried through the single-SQL
// translation versus pipe-at-a-time Blueprints calls (the core store
// implements the Blueprints interface directly).
func AblationTranslation(env *DBpediaEnv, w io.Writer) error {
	header(w, "Ablation: single-SQL translation vs pipe-at-a-time over the same store")
	translated := sqlGraphSystem(env.Store, translate.Options{})
	pipes := bench.InterpSystem("SQLGraph-pipes", env.Store)
	tab := &bench.Table{Headers: []string{"Query", "Single-SQL", "Pipe-at-a-time", "Ratio"}}
	for i, q := range queries.PathQueries(env.Data) {
		tm, _ := bench.MeanStd(bench.Repeat(translated, q, 3, benchTimeout))
		pm, _ := bench.MeanStd(bench.Repeat(pipes, q, 3, benchTimeout))
		ratio := "-"
		if tm > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(pm)/float64(tm))
		}
		tab.Add(fmt.Sprintf("lq%d", i+1), bench.FormatDuration(tm), bench.FormatDuration(pm), ratio)
	}
	tab.Write(w)
	return nil
}
