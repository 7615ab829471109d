// Package experiments implements the paper's tables and figures as
// runnable experiments. Each function regenerates one artifact of the
// evaluation section against the synthetic substitutes for DBpedia and
// LinkBench, printing the same rows/series the paper reports. The command
// binaries (cmd/microbench, cmd/dbpediabench, cmd/linkbench) and the
// repository's bench_test.go both drive these.
package experiments

import (
	"fmt"
	"io"
	"time"

	"sqlgraph/internal/baseline"
	"sqlgraph/internal/bench"
	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/translate"
)

// Scale presets for the DBpedia-shaped dataset. The paper's DBpedia 3.8
// graph has ~300M edges; these run the same query structure at laptop
// scale.
type Scale int

// Scales.
const (
	ScaleTiny Scale = iota // unit tests
	ScaleSmall
	ScaleMedium // default for the command binaries
	ScaleLarge
)

// ParseScale reads a -scale flag value: tiny, small, medium or large.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	}
	return 0, fmt.Errorf("unknown scale %q", name)
}

// DBpediaConfig maps a scale to generator parameters.
func DBpediaConfig(s Scale) dbpedia.Config {
	switch s {
	case ScaleTiny:
		return dbpedia.Config{Countries: 2, RegionFan: 2, DistrictFan: 2, SettlementFan: 2, VillageFan: 2, Players: 150, Teams: 15, Works: 80, Seed: 42}
	case ScaleSmall:
		return dbpedia.Config{Countries: 4, RegionFan: 3, DistrictFan: 4, SettlementFan: 4, VillageFan: 3, Players: 1500, Teams: 80, Works: 1500, Seed: 42}
	case ScaleLarge:
		return dbpedia.Config{Countries: 12, RegionFan: 6, DistrictFan: 6, SettlementFan: 6, VillageFan: 5, Players: 20000, Teams: 600, Works: 20000, Seed: 42}
	default: // medium
		return dbpedia.Config{Countries: 8, RegionFan: 4, DistrictFan: 5, SettlementFan: 5, VillageFan: 4, Players: 6000, Teams: 250, Works: 6000, Seed: 42}
	}
}

// DefaultCost is the per-Blueprints-call charge applied to the baseline
// stores: a network round trip that concurrent clients overlap, plus a
// serialized server-CPU slice that caps aggregate throughput (the paper's
// comparators run in HTTP server mode). Scaled to our laptop-scale
// datasets; the command binaries expose both knobs.
var DefaultCost = baseline.CostModel{PerCall: 25 * time.Microsecond, ServerCPU: 40 * time.Microsecond}

// DBpediaEnv bundles the systems under comparison, loaded with the same
// dataset.
type DBpediaEnv struct {
	Data  *dbpedia.Dataset
	Store *core.Store           // SQLGraph
	Titan *baseline.KVGraph     // Titan-like (nil if not requested)
	Neo   *baseline.NativeGraph // Neo4j-like
	// OrientFailed records that the OrientDB-like store refused the load
	// (URI edge labels), as in the paper.
	OrientFailed bool
}

// SetupDBpedia generates the dataset and loads every system.
func SetupDBpedia(scale Scale, cost baseline.CostModel, withBaselines bool) (*DBpediaEnv, error) {
	data, err := dbpedia.Generate(DBpediaConfig(scale))
	if err != nil {
		return nil, err
	}
	store, err := core.Load(data.Graph, core.Options{})
	if err != nil {
		return nil, err
	}
	env := &DBpediaEnv{Data: data, Store: store}
	if !withBaselines {
		return env, nil
	}
	// Load with a zero cost model (the paper reports load times
	// separately), then install the real one for measurement.
	env.Titan = baseline.NewKVGraph(baseline.CostModel{})
	env.Neo = baseline.NewNativeGraph(baseline.CostModel{})
	if err := copyGraph(data.Graph, env.Titan); err != nil {
		return nil, fmt.Errorf("loading Titan-like store: %w", err)
	}
	if err := copyGraph(data.Graph, env.Neo); err != nil {
		return nil, fmt.Errorf("loading Neo4j-like store: %w", err)
	}
	env.Titan.SetCostModel(cost)
	env.Neo.SetCostModel(cost)
	// The OrientDB-like store rejects URI edge labels (paper Section 5.1:
	// the DBpedia load failed).
	orient := baseline.NewDocGraph(baseline.CostModel{})
	if err := copyGraph(data.Graph, orient); err != nil {
		env.OrientFailed = true
	}
	return env, nil
}

// copyGraph replays src into dst.
func copyGraph(src blueprints.Graph, dst blueprints.Graph) error {
	for _, v := range src.VertexIDs() {
		attrs, err := src.VertexAttrs(v)
		if err != nil {
			return err
		}
		if err := dst.AddVertex(v, attrs); err != nil {
			return err
		}
	}
	for _, e := range src.EdgeIDs() {
		rec, err := src.Edge(e)
		if err != nil {
			return err
		}
		attrs, err := src.EdgeAttrs(e)
		if err != nil {
			return err
		}
		if err := dst.AddEdge(rec.ID, rec.Out, rec.In, rec.Label, attrs); err != nil {
			return err
		}
	}
	return nil
}

// sqlGraphSystem wraps the SQLGraph store as a bench.System.
func sqlGraphSystem(store *core.Store, opts translate.Options) bench.System {
	return bench.System{
		Name: "SQLGraph",
		Run: func(q string) (int, error) {
			r, err := store.QueryTraced(q, opts, "")
			if err != nil {
				return 0, err
			}
			return r.Count(), nil
		},
	}
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
