// Command microbench regenerates the paper's schema-design
// micro-benchmarks (Section 3): Figure 3 (adjacency storage), Figure 4
// (attribute lookup), Table 3 (hash table characteristics), Table 4
// (neighbor lookup), and Figure 6 (path plans), plus the design-choice
// ablations.
//
// Usage:
//
//	microbench [-scale tiny|small|medium|large] [-exp all|adjacency|attributes|stats|neighbors|paths|ablations]
//	           [-json BENCH_engine.json] [-baseline BENCH_engine.json] [-maxratio 2.0] [-plannergate 1.05]
//	           [-concurrency N] [-http N] [-replicas N] [-linkbench N] [-serve addr] [-duration 2s] [-parallel N]
//
// With -json, the Figure 5/6 workloads are additionally run one query
// per statement and their per-query ns/op written to the given file
// (see BENCH_engine.json at the repo root for the committed baseline).
// With -baseline, the same fresh timings are compared against the given
// committed baseline and the process exits nonzero when the geometric
// mean exceeds -maxratio (the CI benchmark-smoke gate).
//
// With -plannergate R, every Figure 5/6 query is additionally timed
// under the cost-based planner and under the legacy syntactic join
// order, and the run fails when a figure's geomean ratio (cost-based /
// syntactic) exceeds R — the cost-based planner must never make chosen
// plans meaningfully slower than the old fixed order.
//
// With -concurrency N, the MVCC scaling experiment runs instead of the
// schema experiments: 1..N snapshot-reader goroutines against a live
// writer, reporting read throughput, p50/p99 latency, and writer ops/s.
//
// With -http N, an in-process HTTP server (the same serving layer as
// sqlgraphd) is booted over the benchmark store and driven with N
// concurrent clients per workload for -duration, reporting reqs/s and
// p50/p99 end-to-end latency. The per-workload p50s are folded into the
// -json report and the -baseline comparison as figure "http" entries,
// so server-side regressions trip the same geomean gate.
//
// With -replicas N, the streaming-replication read-scaling experiment
// runs: a durable primary is bulk-loaded, and for each point 1..N
// followers bootstrap from /snapshot and tail /wal while concurrent
// clients round-robin point reads across the fleet under live write
// churn. The per-point p50s join the -json report and -baseline gate
// as figure "replication" entries.
//
// With -linkbench N, the LinkBench operation mix is driven by N
// concurrent requesters against a durable store twice — every mutation
// serialized through its own fsync, then the WAL's commit pipeline —
// reporting throughput and the fsyncs-per-mutation amortization ratio.
// The pipeline's per-op p50s join the -json report and -baseline gate as
// figure "linkbench" entries, and the run fails outright when >= 8
// requesters cannot amortize below 0.5 fsyncs per mutation or do not
// out-run fsync-per-commit.
//
// With -serve addr, the benchmark dataset is served over HTTP on addr
// (blocking) so external load generators can drive it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"sqlgraph/internal/baseline"
	"sqlgraph/internal/bench/experiments"
	"sqlgraph/internal/server"
)

func main() {
	scale := flag.String("scale", "medium", "dataset scale: tiny, small, medium, large")
	exp := flag.String("exp", "all", "experiment: all, adjacency, attributes, stats, neighbors, paths, ablations")
	jsonPath := flag.String("json", "", "also write per-query Figure 5/6 engine timings as JSON to this file")
	baselinePath := flag.String("baseline", "", "compare fresh Figure 5/6 timings against this committed JSON baseline")
	maxRatio := flag.Float64("maxratio", 2.0, "fail -baseline comparison when the geomean slowdown exceeds this")
	plannerGate := flag.Float64("plannergate", 0, "gate cost-based vs syntactic join order: fail when a figure's geomean ratio exceeds this (0 = skip)")
	concurrency := flag.Int("concurrency", 0, "run the concurrent snapshot-read experiment with up to N readers")
	httpClients := flag.Int("http", 0, "drive an in-process HTTP server with N concurrent clients")
	replicas := flag.Int("replicas", 0, "measure read scaling across 1..N streaming-replication followers")
	linkbenchN := flag.Int("linkbench", 0, "run the durable LinkBench write bench with N concurrent requesters (fsync-per-commit vs the WAL commit pipeline)")
	serveAddr := flag.String("serve", "", "serve the benchmark dataset over HTTP on this address (blocks)")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per concurrency point")
	parallel := flag.Int("parallel", 0, "executor parallelism: 0 = GOMAXPROCS, 1 = serial")
	flag.Parse()

	s, err := experiments.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Generating DBpedia-shaped dataset (%s scale)...\n", *scale)
	env, err := experiments.SetupDBpedia(s, baseline.CostModel{}, false)
	if err != nil {
		log.Fatal(err)
	}
	env.Store.SetParallelism(*parallel)
	fmt.Printf("Dataset: %d vertices, %d edges; SQLGraph footprint %d bytes\n",
		env.Data.NumVertices, env.Data.NumEdges, env.Store.TotalBytes())

	if *serveAddr != "" {
		srv := server.New(env.Store, server.Config{})
		fmt.Printf("Serving on http://%s (POST /query, GET /vertex/{id}, GET /metrics, ...)\n", *serveAddr)
		log.Fatal(http.ListenAndServe(*serveAddr, srv.Handler()))
	}

	if *concurrency > 0 {
		if err := experiments.ConcurrencyBench(env, *concurrency, *duration, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	run("adjacency", func() error { return experiments.Fig3Adjacency(env, os.Stdout) })
	run("attributes", func() error { return experiments.Fig4Attributes(env, os.Stdout) })
	run("stats", func() error { return experiments.Table3Stats(env, os.Stdout) })
	run("neighbors", func() error { return experiments.Table4Neighbors(env, os.Stdout) })
	run("paths", func() error { return experiments.Fig6PathPlans(env, os.Stdout) })
	run("ablations", func() error {
		if err := experiments.AblationColoring(s, os.Stdout); err != nil {
			return err
		}
		return experiments.AblationSoftDelete(os.Stdout)
	})

	if *plannerGate > 0 {
		if err := experiments.PlannerGate(env, *plannerGate, os.Stdout); err != nil {
			log.Fatalf("planner gate: %v", err)
		}
	}

	var httpEntries []experiments.EngineBenchEntry
	if *httpClients > 0 {
		httpEntries, err = experiments.HTTPLoadBench(env, *httpClients, *duration, os.Stdout)
		if err != nil {
			log.Fatalf("http bench: %v", err)
		}
	}
	if *replicas > 0 {
		clients := *httpClients
		if clients <= 0 {
			clients = 8
		}
		replEntries, err := experiments.ReplicationLoadBench(env, *replicas, clients, *duration, os.Stdout)
		if err != nil {
			log.Fatalf("replication bench: %v", err)
		}
		httpEntries = append(httpEntries, replEntries...)
	}
	if *linkbenchN > 0 {
		lbEntries, err := experiments.LinkBenchDurable(*linkbenchN, 200, os.Stdout)
		if err != nil {
			log.Fatalf("linkbench bench: %v", err)
		}
		httpEntries = append(httpEntries, lbEntries...)
	}

	if *jsonPath == "" && *baselinePath == "" {
		return
	}
	fresh, err := experiments.EngineBenchReportData(env, *scale)
	if err != nil {
		log.Fatalf("engine bench: %v", err)
	}
	fresh.Entries = append(fresh.Entries, httpEntries...)

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fresh); err != nil {
			f.Close()
			log.Fatalf("engine bench json: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Wrote engine benchmark JSON to %s\n", *jsonPath)
	}

	if *baselinePath != "" {
		base, err := experiments.ReadEngineBenchReport(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.CompareEngineBench(base, fresh, *maxRatio, os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
