// bench_test.go regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks, at a scale suited to `go test
// -bench=.` (the command binaries under cmd/ run the same experiments at
// larger scales with tunable parameters). Each benchmark prints the
// experiment's table once; the reported ns/op measures one full
// regeneration of that artifact.
package sqlgraph

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sqlgraph/internal/baseline"
	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/bench/experiments"
	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/rel"
)

// benchOut controls whether experiment tables print during benchmarks.
// Set SQLGRAPH_BENCH_QUIET=1 to suppress them.
func benchOut() io.Writer {
	if os.Getenv("SQLGRAPH_BENCH_QUIET") != "" {
		return io.Discard
	}
	return os.Stdout
}

// Shared environments, built once (dataset generation dominates
// otherwise).
var (
	envOnce     sync.Once
	envPlain    *experiments.DBpediaEnv // no baselines
	envFull     *experiments.DBpediaEnv // with baseline stores
	envSetupErr error
)

func sharedEnvs(b testing.TB) (*experiments.DBpediaEnv, *experiments.DBpediaEnv) {
	envOnce.Do(func() {
		envPlain, envSetupErr = experiments.SetupDBpedia(experiments.ScaleTiny, baseline.CostModel{}, false)
		if envSetupErr != nil {
			return
		}
		envFull, envSetupErr = experiments.SetupDBpedia(experiments.ScaleTiny, experiments.DefaultCost, true)
	})
	if envSetupErr != nil {
		b.Fatal(envSetupErr)
	}
	return envPlain, envFull
}

// --- Section 3: micro-benchmarks ---

// BenchmarkFig3AdjacencyMicro regenerates Figure 3 / Table 1: the 11
// traversal queries on hash-adjacency vs JSON-adjacency storage.
func BenchmarkFig3AdjacencyMicro(b *testing.B) {
	env, _ := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig3Adjacency(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkFig4AttributeLookup regenerates Figure 4 / Table 2: the 16
// attribute lookups on JSON vs hash attribute storage.
func BenchmarkFig4AttributeLookup(b *testing.B) {
	env, _ := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig4Attributes(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkTable3SchemaStats regenerates Table 3: hash-table
// characteristics (labels, buckets, spills, side-table rows).
func BenchmarkTable3SchemaStats(b *testing.B) {
	env, _ := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3Stats(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkTable4Neighbors regenerates Table 4: neighbor lookup through
// EA vs through IPA+ISA across selectivities.
func BenchmarkTable4Neighbors(b *testing.B) {
	env, _ := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table4Neighbors(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkFig6PathPlans regenerates Figure 6: long-path computation via
// OPA+OSA vs via the EA table alone.
func BenchmarkFig6PathPlans(b *testing.B) {
	env, _ := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig6PathPlans(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// --- Section 5.1: DBpedia benchmark ---

// BenchmarkFig8aDBpediaQueries regenerates Figure 8a: the 20 benchmark
// queries across SQLGraph and the Titan-like and Neo4j-like stores.
func BenchmarkFig8aDBpediaQueries(b *testing.B) {
	_, env := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8aBenchmark(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkFig8bPathQueries regenerates Figure 8b: the 11 path queries
// across the three systems.
func BenchmarkFig8bPathQueries(b *testing.B) {
	_, env := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8bPaths(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkFig8cMemorySweep regenerates Figure 8c: mean query time as the
// simulated memory budget grows from 20% to 100% of the working set.
func BenchmarkFig8cMemorySweep(b *testing.B) {
	_, env := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig8cMemory(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkFig8dSummary regenerates Figure 8d: benchmark/adjusted/path
// means per system.
func BenchmarkFig8dSummary(b *testing.B) {
	_, env := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig8dSummary(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// --- Section 5.2: LinkBench ---

// BenchmarkFig9LinkBenchThroughput regenerates Figure 9a-c: op/sec across
// graph scales and requester counts for all four systems.
func BenchmarkFig9LinkBenchThroughput(b *testing.B) {
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig9Throughput([]int{500, 2000}, []int{1, 10, 100}, 100, experiments.DefaultCost, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkFig9dXLThroughput regenerates Figure 9d: the largest graph,
// SQLGraph vs the Neo4j-like store.
func BenchmarkFig9dXLThroughput(b *testing.B) {
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig9dXL(10000, 100, experiments.DefaultCost, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkTable6OperationLatency regenerates Table 6: per-operation
// mean (max) latency with 10 requesters at the mid scale.
func BenchmarkTable6OperationLatency(b *testing.B) {
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table6Ops(2000, 200, experiments.DefaultCost, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkTable7XLOperationLatency regenerates Table 7: per-operation
// latency on the XL graph with 100 requesters.
func BenchmarkTable7XLOperationLatency(b *testing.B) {
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table7XLOps(10000, 100, experiments.DefaultCost, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// --- Design-choice ablations (DESIGN.md Section 5) ---

// BenchmarkAblationColoringVsModulo compares the co-occurrence coloring
// hash against a naive modulo hash: spill rows and traversal time.
func BenchmarkAblationColoringVsModulo(b *testing.B) {
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationColoring(experiments.ScaleTiny, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkAblationEARedundancy isolates the EA adjacency copy's value:
// Table 4 and Figure 6 both derive from it (EA vs hash-table plans); this
// runs the Figure 6 comparison as the headline ablation.
func BenchmarkAblationEARedundancy(b *testing.B) {
	env, _ := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig6PathPlans(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkAblationTranslationVsPipes isolates the single-SQL translation
// benefit: the same SQLGraph store queried through one SQL statement vs
// pipe-at-a-time Blueprints calls.
func BenchmarkAblationTranslationVsPipes(b *testing.B) {
	env, _ := sharedEnvs(b)
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationTranslation(env, out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// BenchmarkAblationSoftDelete compares the paper's negative-id soft
// delete against clean and eager deletion on a supernode.
func BenchmarkAblationSoftDelete(b *testing.B) {
	out := benchOut()
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationSoftDelete(out); err != nil {
			b.Fatal(err)
		}
		out = io.Discard
	}
}

// --- Core operation micro-benchmarks (library-level) ---

// BenchmarkQueryTranslation measures Gremlin-to-SQL compilation alone.
func BenchmarkQueryTranslation(b *testing.B) {
	env, _ := sharedEnvs(b)
	g := newGraph(env.Store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Translate("g.V.has('label', 'x').out('a').in('b').dedup().count()"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseIDList measures the Gremlin parse of a 12 960-id source —
// the largest Table-1 text — which runs on every request now that the
// prepared cache is keyed by the parsed query's shape. Ids go from the
// token stream straight into the step's []int64, sized once by the list's
// commas: it must report at most one allocation per 64 ids, and at most
// twice the ids' 8 bytes each.
func BenchmarkParseIDList(b *testing.B) {
	const ids = 12960
	var sb strings.Builder
	sb.WriteString("g.V(")
	for i := 0; i < ids; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprint(&sb, 1000+7*i)
	}
	sb.WriteString(").out('isPartOf').dedup().count()")
	text := sb.String()
	parse := func() {
		q, err := gremlin.Parse(text)
		if err != nil || len(q.Args) != 1 || len(q.Args[0].IDs) != ids {
			b.Fatalf("Parse: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(5, parse); allocs > ids/64 {
		b.Fatalf("%v allocations for %d ids, want at most one per 64 ids (%d)", allocs, ids, ids/64)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parse()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 2*8*ids {
		b.Fatalf("%d bytes for %d ids, want at most twice their 8 bytes each (%d)", bytes, ids, 2*8*ids)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parse()
	}
}

// BenchmarkSingleHop measures one EA-backed hop end to end.
func BenchmarkSingleHop(b *testing.B) {
	env, _ := sharedEnvs(b)
	g := newGraph(env.Store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Query("g.V(10).out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraverseHop measures the adjacency hot path: the first Table-1
// chain (three isPartOf hops with dedup from a few hundred vertices) runs
// as index nested-loop joins over OPA/OSA behind warm prepared-statement
// and plan caches. Run with -benchmem: bytes and allocations per query
// are what pruned join rows and allocation-free probes buy.
func BenchmarkTraverseHop(b *testing.B) {
	env, _ := sharedEnvs(b)
	g := newGraph(env.Store)
	text := queries.PathQueries(env.Data)[0]
	if _, err := g.Query(text); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Query(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeAt measures one index probe of the primary adjacency
// table by vertex id — what a hop pays per frontier row. It must report
// 0 allocs/op.
func BenchmarkProbeAt(b *testing.B) {
	env, _ := sharedEnvs(b)
	cat := env.Store.Catalog()
	t, ok := cat.Table(core.TableOPA)
	if !ok {
		b.Fatal("no OPA table")
	}
	var ix *rel.Index
	for _, cand := range t.Indexes() {
		if cand.Name() == core.IndexOPAVID {
			ix = cand
		}
	}
	if ix == nil {
		b.Fatal("no OPA vertex-id index")
	}
	vids := env.Data.Graph.VertexIDs()
	key := []rel.Value{rel.Null}
	rows := 0
	visit := func(rel.RowID, []rel.Value) bool { rows++; return true }
	t.RLock()
	defer t.RUnlock()
	for _, vid := range vids {
		key[0] = rel.NewInt(vid)
		t.ProbeAt(ix, key, rel.Latest, visit)
	}
	if rows == 0 {
		b.Fatal("probes found no adjacency rows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = rel.NewInt(vids[i%len(vids)])
		t.ProbeAt(ix, key, rel.Latest, visit)
	}
}

// BenchmarkAddEdge measures the multi-table edge-insert stored procedure.
func BenchmarkAddEdge(b *testing.B) {
	g, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if err := g.AddVertex(i, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.AddEdge(int64(i), int64(i%1000), int64((i+1)%1000), "e", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// chainEnv is the small DBpedia fixture of BenchmarkTraverseChain and
// TestTraverseChainStaysFused, with their two texts: the 6-hop
// both(team).dedup().count() chain of Table 1 and a 4-hop in() chain
// that returns its frontier as a list.
var (
	chainOnce sync.Once
	chainEnv  *experiments.DBpediaEnv
	chainErr  error
)

func chainFixture(tb testing.TB) (g *Graph, both6, in4 string) {
	chainOnce.Do(func() {
		chainEnv, chainErr = experiments.SetupDBpedia(experiments.ScaleSmall, baseline.CostModel{}, false)
	})
	if chainErr != nil {
		tb.Fatal(chainErr)
	}
	d := chainEnv.Data
	both6 = queries.PathQueries(d)[7]
	in4 = fmt.Sprintf("g.V(%d)%s", d.Countries[0], strings.Repeat(".in('"+dbpedia.LabelIsPartOf+"')", 4))
	return newGraph(chainEnv.Store), both6, in4
}

// BenchmarkTraverseChain measures whole CTE chains behind warm caches.
// Run with -benchmem: a chain whose single-consumer CTEs stream into
// their readers allocates for its DISTINCT sets and its result, not for
// every hop's rows.
func BenchmarkTraverseChain(b *testing.B) {
	g, both6, in4 := chainFixture(b)
	for _, c := range []struct{ name, text string }{{"both6_dedup_count", both6}, {"in4_list", in4}} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := g.Query(c.text); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Query(c.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTraverseChainStaysFused guards what BenchmarkTraverseChain
// measures: the 6-hop dedup chain stores its start vertex, the six
// DISTINCT frontiers and the count — every other CTE streams into its
// reader — and allocates accordingly. A silent fall-back to storing each
// CTE shows as a fivefold byte count.
func TestTraverseChainStaysFused(t *testing.T) {
	g, both6, _ := chainFixture(t)
	res, err := g.Query(both6)
	if err != nil {
		t.Fatal(err)
	}
	stored, distinct := 0, 0
	for _, c := range res.Stats.CTEs {
		if !c.Fused {
			stored += c.Rows
		}
	}
	for _, op := range res.Stats.Ops {
		if op.Kind == "dedup" {
			distinct += op.RowsOut
		}
	}
	// T1 (one start vertex, read by both directions of the first hop) and
	// the final COUNT row are the two stored rows that are not DISTINCT
	// output. The last hop's IPA hash build reads an 80-row filtered scan,
	// which heads a run of its own that collects the rows for the build:
	// those are the table's row images, collected from a scan with no stage
	// after it, and stay out of MaterializedRows as they did when the scan
	// stored them itself.
	if got := res.Stats.MaterializedRows; got != stored || got != distinct+2 || distinct == 0 {
		t.Fatalf("MaterializedRows = %d, stored CTE rows = %d, DISTINCT outputs = %d + start vertex + count\n%s", got, stored, distinct, res.Stats.String())
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := g.Query(both6); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// 217 KB per query measured at GOMAXPROCS 4 (199 KB at 2; 154 KB at
	// 1, where nothing fans out) with every core prepared once and its
	// closures shared, and sparse id-set containers made bitmaps past
	// 2 048 ids (334 KB, 313 KB and 264 KB when each execution resolved
	// and compiled its cores; 419 KB with hashed sets whose tables were
	// recycled and frontiers listed as ids, 508 KB when frontiers were
	// rebuilt as rows and only heads of 4 096 rows fanned out, 739 KB with
	// a Go map and rows copied as they arrived, 853 KB with the 48-byte
	// rel.Value, 5.64 MB with every CTE stored), x 1.35.
	const ceiling = 293_000
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / runs; perQuery > ceiling {
		t.Fatalf("6-hop chain allocates %d bytes per query, ceiling %d", perQuery, ceiling)
	}
}

// TestSingleHopAllocs guards what BenchmarkSingleHop measures: g.V(10).out
// behind warm statement and plan caches binds its arguments to prepared
// cores and runs them. 116 allocations per query measured at GOMAXPROCS
// 1, 2 and 4, 82 of them in the engine and the rest in the Gremlin parse,
// the trace and the result; 238 when every execution resolved and
// compiled its cores.
func TestSingleHopAllocs(t *testing.T) {
	env, _ := sharedEnvs(t)
	g := newGraph(env.Store)
	const ceiling = 120
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.Query("g.V(10).out"); err != nil {
			t.Fatal(err)
		}
	}); allocs > ceiling {
		t.Fatalf("g.V(10).out: %.0f allocations per query, ceiling %d", allocs, ceiling)
	}
}

// TestTraverseChainAllocs guards BenchmarkTraverseChain/in4_list: four
// in('isPartOf') hops from a country, each an index nested-loop join of a
// prepared core. 347 allocations per query measured at GOMAXPROCS 1, 2
// and 4; 1 012 when every execution resolved and compiled its cores.
func TestTraverseChainAllocs(t *testing.T) {
	g, _, in4 := chainFixture(t)
	const ceiling = 500
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.Query(in4); err != nil {
			t.Fatal(err)
		}
	}); allocs > ceiling {
		t.Fatalf("in4_list: %.0f allocations per query, ceiling %d", allocs, ceiling)
	}
}

// TestHopFansOutByWork guards how a run from stored rows decides its
// fan-out: by the work its first few head rows do — themselves and the
// rows they emit — not by how many head rows it has. A hop from 300 frontier ids that each reach 100
// members emits 30 000 rows and runs on both workers of Parallelism 2;
// a one-vertex start and an ad-hoc two-hop stay one morsel on one
// worker. Each answer is the serial one.
func TestHopFansOutByWork(t *testing.T) {
	b := NewBuilder()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	const teams, players, members = 300, 3000, 100
	must(b.AddVertex(0, map[string]any{"name": "hub"}))
	edge := int64(100_000)
	for i := int64(1); i <= teams; i++ {
		must(b.AddVertex(i, map[string]any{"name": "team"}))
		must(b.AddEdge(edge, 0, i, "has", nil))
		edge++
	}
	for i := int64(0); i < players; i++ {
		must(b.AddVertex(1000+i, map[string]any{"name": "player"}))
		must(b.AddEdge(edge, 1000+i, 1+i%teams, "likes", nil))
		edge++
	}
	for i := int64(1); i <= teams; i++ {
		for k := int64(0); k < members; k++ {
			must(b.AddEdge(edge, i, 1000+(i*7+k*31)%players, "member", nil))
			edge++
		}
	}
	g, err := Load(b, Options{})
	must(err)
	defer g.Close()

	run := func(text string, par int) *Result {
		g.SetParallelism(par)
		res, err := g.Query(text)
		must(err)
		return res
	}
	for _, c := range []struct {
		text   string
		fanned bool // the hop from the frontier runs on two workers
	}{
		{"g.V(0).out('has').dedup().out('member').dedup()", true},
		{"g.V(1).out('member')", false},
		{"g.V(1).out('member').out('likes')", false},
	} {
		serial, par := run(c.text, 1), run(c.text, 2)
		if got, want := fmt.Sprint(par.Values), fmt.Sprint(serial.Values); got != want || len(serial.Values) == 0 {
			t.Fatalf("%s: %d values at Parallelism 2, %d at 1, or they differ", c.text, len(par.Values), len(serial.Values))
		}
		fanned := false
		for _, j := range par.Stats.Joins {
			switch {
			case j.BuildRows == teams && j.Workers == 2 && j.Morsels > 2:
				fanned = true
			case j.Workers != 1 || j.Morsels != 1:
				if !c.fanned {
					t.Fatalf("%s: join %s ran on %d workers in %d morsels, want 1 and 1\n%s", c.text, j.Table, j.Workers, j.Morsels, par.Stats.String())
				}
			}
		}
		if fanned != c.fanned {
			t.Fatalf("%s: hop from %d frontier ids fanned out: %v, want %v\n%s", c.text, teams, fanned, c.fanned, par.Stats.String())
		}
	}
}

// scanAggFixture loads 12 morsels of vertices, of which every fourth
// (matchEvery 4) or every second (matchEvery 2) has a label from 'T' on
// and one of five genres, in every morsel; the rest are labelled 'Band'
// and have no genre.
func scanAggFixture(t *testing.T, matchEvery int) *Graph {
	t.Helper()
	b := NewBuilder()
	genres := []string{"Rock", "Jazz", "Pop", "Folk", "Soul"}
	for i := 0; i < 12*1024; i++ {
		attrs := map[string]any{"label": "Band"}
		if i%matchEvery == 0 {
			attrs = map[string]any{"label": "Team", "genre": genres[(i/matchEvery)%len(genres)]}
		}
		if err := b.AddVertex(int64(i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	g, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScanAggStaysFused guards the scan_agg shapes: a full scan heads the
// pipe its filter, projection and aggregate run in, so a count and a
// groupCount over a whole table store only their result rows, and the
// bytes a query allocates do not grow with the rows that match — twice
// as many stay within 10 %.
func TestScanAggStaysFused(t *testing.T) {
	texts := []string{
		"g.V.has('label').filter{it.label >= 'T'}.count()",
		"g.V.has('genre').groupCount{it.genre}",
	}
	perQuery := map[int][]uint64{}
	for _, every := range []int{4, 2} {
		g := scanAggFixture(t, every)
		for _, text := range texts {
			res, err := g.Query(text)
			if err != nil {
				t.Fatal(err)
			}
			results := 0
			for _, op := range res.Stats.Ops {
				if op.Kind == "agg" {
					results += op.RowsOut
				}
			}
			if results == 0 || res.Stats.MaterializedRows != results {
				t.Fatalf("%s: stored %d rows, the aggregate returned %d\n%s", text, res.Stats.MaterializedRows, results, res.Stats.String())
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := g.Query(text); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perQuery[every] = append(perQuery[every], (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		if res, err := g.Query(texts[0]); err != nil || res.Values[0] != int64(12*1024/every) {
			t.Fatalf("count over every %d: %v, %v", every, res.Values, err)
		}
	}
	for i, text := range texts {
		if few, many := perQuery[4][i], perQuery[2][i]; float64(many) > 1.1*float64(few) {
			t.Errorf("%s allocates %d bytes per query over 3 072 matching rows, %d over 6 144", text, few, many)
		}
	}
}

// TestIDListHeadStoredAsIDs guards how a g.V(ids) head is stored: the
// 12 960-id head of a Table-1 text is a one-column relation of BIGINTs,
// which the planner needs stored (it costs a CTE input by its count) and
// which is kept as ids, 8 bytes each, not as rows. MaterializedRows still counts it, with
// the DISTINCT's outputs and the count.
func TestIDListHeadStoredAsIDs(t *testing.T) {
	const ids, parents = 12960, 432
	b := NewBuilder()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for p := int64(0); p < parents; p++ {
		must(b.AddVertex(100_000+p, nil))
	}
	list := make([]string, ids)
	for i := int64(0); i < ids; i++ {
		must(b.AddVertex(i, nil))
		must(b.AddEdge(200_000+i, i, 100_000+i%parents, "isPartOf", nil))
		list[i] = fmt.Sprint(i)
	}
	g, err := Load(b, Options{})
	must(err)
	defer g.Close()
	text := "g.V(" + strings.Join(list, ", ") + ").out('isPartOf').dedup().count()"
	res, err := g.Query(text)
	must(err)
	if got := res.Values[0]; fmt.Sprint(got) != fmt.Sprint(parents) {
		t.Fatalf("count = %v, want %d", got, parents)
	}
	if len(res.Stats.CTEs) == 0 || res.Stats.CTEs[0].Fused || res.Stats.CTEs[0].Rows != ids {
		t.Fatalf("the head is not stored with %d rows:\n%s", ids, res.Stats.String())
	}
	if got, want := res.Stats.MaterializedRows, ids+parents+1; got != want {
		t.Fatalf("MaterializedRows = %d, want %d (head, DISTINCT outputs, count)\n%s", got, want, res.Stats.String())
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, err := g.Query(text)
		must(err)
	}
	runtime.ReadMemStats(&after)
	// 250 KB per query measured at GOMAXPROCS 1, 414 KB at 2 and 435 KB at
	// 4, with the head's ids stored in a list sized by the rows its scan
	// expects (654 KB at 1, 437 KB at 2 and 458 KB at 4 when it grew by
	// append; 2.27 to 2.94 MB with the head stored as rows, a set table
	// per worker and the id list parsed by append), x 1.35.
	const ceiling = 900_000
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / runs; perQuery > ceiling {
		t.Fatalf("a 12 960-id head allocates %d bytes per query, ceiling %d", perQuery, ceiling)
	}
}
