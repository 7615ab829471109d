// Command sqlgraph is an interactive front-end to the store: it loads the
// paper's sample graph (Figure 2a) or a generated dataset, runs Gremlin
// queries, shows their SQL translations, and reports schema statistics.
// With -dir it operates on a durable on-disk store instead of building
// one in memory per run.
//
// Usage:
//
//	sqlgraph [-dir path] [-dataset sample|dbpedia] [-scale tiny|small|medium]
//	         [-parallel N] [-explain] <command> [args]
//
// Commands:
//
//	query <gremlin>      run a Gremlin query and print the results
//	translate <gremlin>  print the SQL a Gremlin query compiles to
//	stats                print hash-table statistics (paper Table 3)
//	demo                 run a short guided demo on the sample graph
//	load                 bulk-load the selected dataset into -dir
//	fsck                 verify a durable store directory (requires -dir)
//	top                  live dashboard over a running sqlgraphd
//
// top polls a live server's /debug/history and /debug/events endpoints
// and repaints a terminal dashboard (qps, p50/p99 latency, admission
// queue, WAL fsync rate, MVCC GC backlog, replica lag, recent lifecycle
// events). It accepts -addr (default http://127.0.0.1:8080), -interval,
// -window, and -once to print a single frame and exit.
//
// load builds the whole dataset in memory with the bulk loader (the
// greedy column coloring is computed from the complete graph) and writes
// it to -dir as the directory's first snapshot; the log starts empty.
//
// fsck recovers the graph from the snapshot and write-ahead log, then
// checks the hybrid schema's internal invariants. It exits 0 when the
// store is healthy and non-zero when the log is corrupt or any invariant
// is violated.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sqlgraph"
	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/bench/experiments"
	"sqlgraph/internal/blueprints"
)

func main() {
	dataset := flag.String("dataset", "sample", "graph to load: sample (paper Figure 2a) or dbpedia (synthetic)")
	scale := flag.String("scale", "tiny", "dbpedia dataset scale: tiny, small, medium")
	dir := flag.String("dir", "", "durable store directory (load populates it; other commands open it)")
	parallel := flag.Int("parallel", 0, "executor worker cap for one query: 0 = GOMAXPROCS, 1 = serial")
	explain := flag.Bool("explain", false, "after query: print the timed plan tree and executor statistics")
	forcePlan := flag.Int("force-plan", 0, "join-order pin: 0 = cost-based, -1 = syntactic FROM order, k>=1 = k-th enumerated order")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"demo"}
	}

	// top talks to a live server, and fsck and load manage the directory
	// themselves — none of them open a store here.
	switch args[0] {
	case "top":
		runTop(args[1:])
		return
	case "fsck":
		if *dir == "" {
			log.Fatal("fsck requires -dir")
		}
		// An absent directory would recover as an empty (vacuously healthy)
		// store; fail loudly instead so a typo'd path can't pass.
		if _, err := os.Stat(*dir); err != nil {
			log.Fatalf("fsck: %v", err)
		}
		violations, err := sqlgraph.Fsck(*dir)
		if err != nil {
			log.Fatalf("fsck: %v", err)
		}
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Println(v)
			}
			log.Fatalf("fsck: %d violation(s)", len(violations))
		}
		fmt.Println("fsck: ok")
		return
	case "load":
		if *dir == "" {
			log.Fatal("load requires -dir")
		}
		g, err := buildGraph(*dataset, *scale, sqlgraph.Options{Dir: *dir})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s into %s: %d vertices, %d edges\n",
			*dataset, *dir, g.CountVertices(), g.CountEdges())
		if err := g.Close(); err != nil {
			log.Fatal(err)
		}
		return
	}

	var g *sqlgraph.Graph
	var err error
	if *dir != "" {
		g, err = sqlgraph.Open(sqlgraph.Options{Dir: *dir})
	} else {
		g, err = buildGraph(*dataset, *scale, sqlgraph.Options{})
	}
	if err != nil {
		log.Fatal(err)
	}
	g.SetParallelism(*parallel)
	g.SetForcePlan(*forcePlan)

	switch args[0] {
	case "query":
		if len(args) < 2 {
			log.Fatal("usage: sqlgraph query <gremlin>")
		}
		q := strings.Join(args[1:], " ")
		res, err := g.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d result(s):\n", res.Count())
		for i, v := range res.Values {
			if i >= 50 {
				fmt.Printf("... and %d more\n", res.Count()-50)
				break
			}
			fmt.Printf("  %v\n", v)
		}
		if *explain {
			if res.Trace != nil {
				// Same timed plan tree the server returns for explain.
				fmt.Printf("-- explain analyze:\n%s", res.Trace.Text())
			}
			fmt.Printf("-- executor statistics:\n%s", res.Stats.String())
		}
	case "translate":
		if len(args) < 2 {
			log.Fatal("usage: sqlgraph translate <gremlin>")
		}
		q := strings.Join(args[1:], " ")
		tr, err := g.Translate(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- result type: %s\n%s\n", tr.ElemType, formatSQL(tr.SQL))
	case "stats":
		s, err := g.Stats()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(s)
		fmt.Printf("Footprint: %d bytes, %d vertices, %d edges\n", g.Bytes(), g.CountVertices(), g.CountEdges())
		fmt.Println("Optimizer statistics:")
		for _, td := range g.OptimizerStats(8) {
			fmt.Printf("  %s: rows=%d (as of v%d)\n", td.Table, td.Rows, td.AsOf)
			for _, c := range td.Cols {
				line := fmt.Sprintf("    col%d non-null=%d non-neg=%d", c.Ordinal, c.NonNull, c.NonNeg)
				if c.NDV > 0 {
					line += fmt.Sprintf(" ndv=%.0f", c.NDV)
				}
				if c.HistMin != "" {
					line += fmt.Sprintf(" hist=[%s, %s]", c.HistMin, c.HistMax)
				}
				fmt.Println(line)
			}
			for _, gr := range td.Groups {
				line := fmt.Sprintf("    label %s count=%d", gr.Key, gr.Count)
				for _, col := range []string{"col1", "col2"} {
					if v, ok := gr.NDV[col]; ok {
						line += fmt.Sprintf(" %s-ndv=%.0f", map[string]string{"col1": "src", "col2": "dst"}[col], v)
					}
				}
				fmt.Println(line)
			}
		}
	case "demo":
		demo(g)
	default:
		log.Fatalf("unknown command %q (want query, translate, stats, demo, load, fsck, top)", args[0])
	}
	if err := g.Close(); err != nil {
		log.Fatal(err)
	}
}

// buildGraph constructs the selected dataset. With a Dir option the graph
// is bulk-loaded into a fresh durable directory.
func buildGraph(dataset, scale string, opts sqlgraph.Options) (*sqlgraph.Graph, error) {
	src, err := datasetGraph(dataset, scale)
	if err != nil {
		return nil, err
	}
	b := sqlgraph.NewBuilder()
	for _, v := range src.VertexIDs() {
		attrs, _ := src.VertexAttrs(v)
		if err := b.AddVertex(v, attrs); err != nil {
			return nil, err
		}
	}
	for _, e := range src.EdgeIDs() {
		rec, _ := src.Edge(e)
		attrs, _ := src.EdgeAttrs(e)
		if err := b.AddEdge(rec.ID, rec.Out, rec.In, rec.Label, attrs); err != nil {
			return nil, err
		}
	}
	return sqlgraph.Load(b, opts)
}

// datasetGraph materializes the selected dataset as an in-memory
// blueprints graph.
func datasetGraph(dataset, scale string) (blueprints.Graph, error) {
	switch dataset {
	case "sample":
		return blueprints.Figure2a(), nil
	case "dbpedia":
		s, err := experiments.ParseScale(scale)
		if err != nil {
			return nil, err
		}
		d, err := dbpedia.Generate(experiments.DBpediaConfig(s))
		if err != nil {
			return nil, err
		}
		return d.Graph, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

func demo(g *sqlgraph.Graph) {
	fmt.Println("SQLGraph demo on the paper's Figure 2a sample graph")
	fmt.Printf("%d vertices, %d edges\n\n", g.CountVertices(), g.CountEdges())
	demos := []string{
		"g.V.has('name', 'marko').out('knows').name",
		"g.V.filter{it.age > 27}.count()",
		"g.E.has('weight', T.gt, 0.5).count()",
		"g.V(1).out('knows').out('created').path",
		"g.V.both.dedup().count()",
	}
	for _, q := range demos {
		fmt.Printf("gremlin> %s\n", q)
		tr, err := g.Translate(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sql: %s\n", shorten(tr.SQL, 140))
		res, err := g.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  =>  %v\n\n", res.Values)
	}
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + " ..."
}

// formatSQL adds newlines between CTEs for readability.
func formatSQL(sql string) string {
	sql = strings.ReplaceAll(sql, "), ", "),\n")
	sql = strings.ReplaceAll(sql, ") SELECT", ")\nSELECT")
	return sql
}
