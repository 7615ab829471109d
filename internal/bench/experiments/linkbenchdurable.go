package experiments

import (
	"fmt"
	"io"
	"os"
	"sync"

	"sqlgraph/internal/bench"
	"sqlgraph/internal/bench/linkbench"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
)

// linkbenchDurableObjects sizes the durable LinkBench graph. Small
// enough to bulk-load in well under a second, large enough that the op
// mix touches a realistic id space.
const linkbenchDurableObjects = 2000

// serialMutGraph simulates the pre-pipeline commit path: the seed engine
// held the log mutex across the fsync, so concurrent writers serialized
// end-to-end and every mutation paid its own flush. Wrapping mutations
// in one mutex reproduces that — reads stay concurrent, exactly as MVCC
// snapshots did.
type serialMutGraph struct {
	blueprints.Graph
	mu sync.Mutex
}

func (g *serialMutGraph) AddVertex(id blueprints.ID, attrs map[string]any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Graph.AddVertex(id, attrs)
}

func (g *serialMutGraph) RemoveVertex(id blueprints.ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Graph.RemoveVertex(id)
}

func (g *serialMutGraph) SetVertexAttr(id blueprints.ID, key string, val any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Graph.SetVertexAttr(id, key, val)
}

func (g *serialMutGraph) AddEdge(id, out, in blueprints.ID, label string, attrs map[string]any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Graph.AddEdge(id, out, in, label, attrs)
}

func (g *serialMutGraph) RemoveEdge(id blueprints.ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Graph.RemoveEdge(id)
}

func (g *serialMutGraph) SetEdgeAttr(id blueprints.ID, key string, val any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Graph.SetEdgeAttr(id, key, val)
}

// OutEdgesWithAttrs keeps the wrapper on SQLGraph's one-statement
// get_link_list path (embedding would hide the LinkLister assertion).
func (g *serialMutGraph) OutEdgesWithAttrs(v blueprints.ID, limit int) ([]blueprints.EdgeRec, []map[string]any, error) {
	return g.Graph.(blueprints.LinkLister).OutEdgesWithAttrs(v, limit)
}

// durableOutcome is one mode's measured run.
type durableOutcome struct {
	res       *linkbench.Results
	mutations uint64 // WAL records appended during the run
	fsyncs    uint64 // physical syncs during the run
}

func (o *durableOutcome) fsyncsPerMutation() float64 {
	if o.mutations == 0 {
		return 0
	}
	return float64(o.fsyncs) / float64(o.mutations)
}

// LinkBenchDurable runs the paper's LinkBench operation mix (Table 6)
// against a *durable* store — every mutation through the WAL — twice:
//
//   - fsync-per-commit: the pre-pipeline baseline. Mutations serialize
//     end-to-end (the seed engine held the log mutex across the fsync)
//     and every mutation pays its own flush.
//   - commit pipeline: what the store ships. Commits publish then wait
//     on their LSN; whoever leads the flush covers everyone who appended
//     while the previous fsync was in flight.
//
// Both runs use the same seed, so the op sequences are identical and the
// only variable is the commit path. It reports throughput and the
// fsyncs-per-mutation ratio (read from the store's WAL counters), plus
// per-op p50/p99 latency, and returns figure "linkbench" entries
// (ns_per_op = commit-pipeline p50) for the BENCH_engine.json gate.
//
// With >= 8 requesters the run *fails* unless the pipeline amortizes
// fsyncs below 0.5 per mutation and out-runs the fsync-per-commit
// baseline — those two properties are the point of the pipeline, so CI
// treats losing either as a regression.
func LinkBenchDurable(requesters, opsPerRequester int, w io.Writer) ([]EngineBenchEntry, error) {
	header(w, "LinkBench over a durable store: commit-pipeline comparison")
	cfg := linkbench.Config{Objects: linkbenchDurableObjects, Seed: 42}

	runMode := func(serialize bool) (*durableOutcome, error) {
		dir, err := os.MkdirTemp("", "sqlgraph-linkbench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		// Bulk-load the generated graph (no per-op WAL traffic), then
		// drive the mix through the durable mutation path. Checkpoints
		// are disabled so a mid-run snapshot can't skew the timings.
		mem := blueprints.NewMemGraph()
		st, err := linkbench.Generate(cfg, mem)
		if err != nil {
			return nil, err
		}
		store, err := core.Load(mem, core.Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		var g blueprints.Graph = store
		if serialize {
			g = &serialMutGraph{Graph: store}
		}
		before := store.Tracer().WriteStats()
		d := &linkbench.Driver{G: g, State: st, Seed: 7}
		res := d.Run(requesters, opsPerRequester)
		after := store.Tracer().WriteStats()
		return &durableOutcome{
			res:       res,
			mutations: after.WALAppends - before.WALAppends,
			fsyncs:    after.WALFsyncs - before.WALFsyncs,
		}, nil
	}

	serialRun, err := runMode(true)
	if err != nil {
		return nil, fmt.Errorf("linkbench durable (fsync-per-commit): %w", err)
	}
	pipeRun, err := runMode(false)
	if err != nil {
		return nil, fmt.Errorf("linkbench durable (commit pipeline): %w", err)
	}

	fmt.Fprintf(w, "requesters=%d ops/requester=%d objects=%d\n",
		requesters, opsPerRequester, linkbenchDurableObjects)
	tab := &bench.Table{Headers: []string{"Mode", "ops/s", "mutations", "fsyncs", "fsyncs/mutation"}}
	for _, row := range []struct {
		name string
		o    *durableOutcome
	}{{"fsync-per-commit", serialRun}, {"commit pipeline", pipeRun}} {
		tab.Add(row.name,
			fmt.Sprintf("%.0f", row.o.res.Throughput),
			fmt.Sprint(row.o.mutations),
			fmt.Sprint(row.o.fsyncs),
			fmt.Sprintf("%.3f", row.o.fsyncsPerMutation()))
	}
	tab.Write(w)
	if serialRun.res.Throughput > 0 {
		fmt.Fprintf(w, "vs fsync-per-commit: commit pipeline %.2fx ops/s\n",
			pipeRun.res.Throughput/serialRun.res.Throughput)
	}

	perOp := &bench.Table{Headers: []string{"Operation", "Count", "p50", "p99", "Max"}}
	var entries []EngineBenchEntry
	for _, op := range opOrder {
		st := pipeRun.res.PerOp[op]
		if st == nil || st.Count == 0 {
			continue
		}
		perOp.Add(op, fmt.Sprint(st.Count),
			bench.FormatDuration(st.Percentile(50)),
			bench.FormatDuration(st.Percentile(99)),
			bench.FormatDuration(st.Max))
		// Only well-sampled ops join the gated baseline: the mix shares
		// are deterministic for a fixed seed, so the entry set is stable.
		if st.Count >= 20 {
			entries = append(entries, EngineBenchEntry{
				Figure:     "linkbench",
				Query:      op,
				Gremlin:    fmt.Sprintf("LinkBench %s on a durable store", op),
				NsPerOp:    st.Percentile(50).Nanoseconds(),
				Rows:       int(st.Count),
				MaxWorkers: requesters,
			})
		}
	}
	fmt.Fprintln(w, "\nper-operation latency (commit pipeline):")
	perOp.Write(w)

	if requesters >= 8 {
		if ratio := pipeRun.fsyncsPerMutation(); ratio >= 0.5 {
			return nil, fmt.Errorf(
				"linkbench durable: the commit pipeline amortized only %.3f fsyncs/mutation at %d requesters (want < 0.5)",
				ratio, requesters)
		}
		if pipeRun.res.Throughput <= serialRun.res.Throughput {
			return nil, fmt.Errorf(
				"linkbench durable: the commit pipeline (%.0f ops/s) did not beat the fsync-per-commit baseline (%.0f ops/s) at %d requesters",
				pipeRun.res.Throughput, serialRun.res.Throughput, requesters)
		}
	}
	return entries, nil
}
