// Command dbpediabench regenerates the paper's Figure 8: the DBpedia
// benchmark queries (8a), the long-path queries (8b), the memory sweep
// (8c), and the summary means (8d), comparing SQLGraph against the
// Titan-like and Neo4j-like baseline stores.
//
// Usage:
//
//	dbpediabench [-scale tiny|small|medium|large] [-exp all|benchmark|paths|memory|summary|translation] [-latency 5us]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sqlgraph/internal/baseline"
	"sqlgraph/internal/bench/experiments"
)

func main() {
	scale := flag.String("scale", "small", "dataset scale: tiny, small, medium, large")
	exp := flag.String("exp", "all", "experiment: all, benchmark, paths, memory, summary, translation")
	latency := flag.Duration("latency", 25*time.Microsecond, "simulated per-call network round trip for baseline stores")
	servercpu := flag.Duration("servercpu", 40*time.Microsecond, "simulated serialized per-call server CPU for baseline stores")
	flag.Parse()

	s, err := experiments.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cost := baseline.CostModel{PerCall: *latency, ServerCPU: *servercpu}
	fmt.Printf("Generating DBpedia-shaped dataset (%s scale) and loading 4 stores...\n", *scale)
	env, err := experiments.SetupDBpedia(s, cost, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Dataset: %d vertices, %d edges\n", env.Data.NumVertices, env.Data.NumEdges)
	fmt.Printf("Footprints: SQLGraph=%d bytes, Titan-like=%d bytes\n",
		env.Store.TotalBytes(), env.Titan.Bytes())
	if env.OrientFailed {
		fmt.Println("OrientDB-like store failed to load the dataset (URI edge labels), as in the paper")
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	run("benchmark", func() error { _, err := experiments.Fig8aBenchmark(env, os.Stdout); return err })
	run("paths", func() error { _, err := experiments.Fig8bPaths(env, os.Stdout); return err })
	run("memory", func() error { return experiments.Fig8cMemory(env, os.Stdout) })
	run("summary", func() error { return experiments.Fig8dSummary(env, os.Stdout) })
	run("translation", func() error { return experiments.AblationTranslation(env, os.Stdout) })
}
