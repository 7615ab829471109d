package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
)

// figure2a builds the paper's sample graph in a MemGraph.
func figure2a(t testing.TB) *blueprints.MemGraph {
	t.Helper()
	g := blueprints.NewMemGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddVertex(1, map[string]any{"name": "marko", "age": 29, "tag": "w"}))
	must(g.AddVertex(2, map[string]any{"name": "vadas", "age": 27}))
	must(g.AddVertex(3, map[string]any{"name": "lop", "lang": "java"}))
	must(g.AddVertex(4, map[string]any{"name": "josh", "age": 32}))
	must(g.AddEdge(7, 1, 2, "knows", map[string]any{"weight": 0.5}))
	must(g.AddEdge(8, 1, 4, "knows", map[string]any{"weight": 1.0}))
	must(g.AddEdge(9, 1, 3, "created", map[string]any{"weight": 0.4}))
	must(g.AddEdge(10, 4, 2, "likes", map[string]any{"weight": 0.2}))
	must(g.AddEdge(11, 4, 3, "created", map[string]any{"weight": 0.8}))
	return g
}

// loadFigure2a bulk-loads the sample into a store.
func loadFigure2a(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := Load(figure2a(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// copyInto replays a MemGraph into a store through the incremental CRUD
// path.
func copyInto(t testing.TB, src *blueprints.MemGraph, dst *Store) {
	t.Helper()
	for _, v := range src.VertexIDs() {
		attrs, _ := src.VertexAttrs(v)
		if err := dst.AddVertex(v, attrs); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range src.EdgeIDs() {
		rec, _ := src.Edge(e)
		attrs, _ := src.EdgeAttrs(e)
		if err := dst.AddEdge(rec.ID, rec.Out, rec.In, rec.Label, attrs); err != nil {
			t.Fatal(err)
		}
	}
}

func canonical(vals []any) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%T:%v", v, v)
	}
	sort.Strings(out)
	return out
}

// assertSameResults compares a store query against the interpreter oracle
// on the same logical graph (multiset equality of emitted values).
func assertSameResults(t testing.TB, s *Store, oracle blueprints.Graph, query string, opts TranslateOptions) {
	t.Helper()
	q, err := gremlin.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	want, err := interp.Eval(oracle, q)
	if err != nil {
		t.Fatalf("oracle %q: %v", query, err)
	}
	got, err := s.QueryTraced(query, opts, "")
	if err != nil {
		tr, terr := s.Translate(query, opts)
		sql := "?"
		if terr == nil {
			sql = tr.SQL
		}
		t.Fatalf("store %q: %v\nSQL: %s", query, err, sql)
	}
	wc := canonical(normalizeOracle(want.Values()))
	gc := canonical(got.Values)
	if len(wc) != len(gc) {
		t.Fatalf("%q: oracle %d values %v, store %d values %v", query, len(wc), wc, len(gc), gc)
	}
	for i := range wc {
		if wc[i] != gc[i] {
			t.Fatalf("%q mismatch:\noracle: %v\nstore:  %v", query, wc, gc)
		}
	}
}

// normalizeOracle converts interpreter outputs to the store's value
// domain (ints for ids, nested []any for paths).
func normalizeOracle(vals []any) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = normalizeVal(v)
	}
	return out
}

func normalizeVal(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalizeVal(e)
		}
		return out
	default:
		return v
	}
}

// the shared query corpus exercised against every store configuration.
var corpusQueries = []string{
	"g.V",
	"g.V.count()",
	"g.E.count()",
	"g.V(1)",
	"g.V(1, 4)",
	"g.V(99)",
	"g.V('name', 'marko')",
	"g.V(1).out",
	"g.V(1).out('knows')",
	"g.V(1).out('knows', 'created')",
	"g.V(3).in",
	"g.V(3).in('created')",
	"g.V(4).both",
	"g.V(1).outE",
	"g.V(1).outE('created')",
	"g.V(2).inE",
	"g.V(4).bothE",
	"g.E(7).outV",
	"g.E(7).inV",
	"g.E(7).bothV",
	"g.V(1).out.out",
	"g.V(1).out.in",
	"g.V(1).out.in.dedup()",
	"g.V(1).out.out.count()",
	"g.V.has('age')",
	"g.V.hasNot('age')",
	"g.V.has('age', 29)",
	"g.V.has('age', T.gt, 27)",
	"g.V.has('age', T.lte, 29)",
	"g.V.has('age', T.neq, 29)",
	"g.V.filter{it.age >= 29}",
	"g.V.interval('age', 27, 32)",
	"g.E.has('weight', T.gt, 0.45)",
	"g.V.filter{it.tag=='w'}.both.dedup().count()",
	"g.V(1).out('knows').name",
	"g.V(2).id",
	"g.E(9).label",
	"g.V.lang",
	"g.V(1).out('created').path",
	"g.V(1).out.out.path",
	"g.V(1).out.in.simplePath",
	"g.V.as('x').out('created').back('x')",
	"g.V.out('created').back(1)",
	"g.V(1).out('knows').out('created').back(2)",
	"g.V(1).out('knows').aggregate(x).back(1).out.except(x)",
	"g.V(1).out('knows').aggregate(x).back(1).out.retain(x)",
	"g.V.ifThenElse{it.lang == 'java'}{it.in('created')}{it.out('knows')}",
	"g.V.has('name', 'marko').out.id",
	"g.E.has('weight', T.lt, 0.45).inV",
	"g.V(1).outE('knows').inV.name",
	"g.V.out.dedup().count()",
	"g.V.both.count()",
	"g.V.outE.count()",
	// Division by whatever the data holds: lop has no age (NULL divisor),
	// it.age - it.age is a zero divisor. Both are NULL, not an error, and
	// any pipe may follow.
	"g.V.filter{60 / it.age >= 2}.id",
	"g.V.filter{1 / (it.age - it.age) == 1}",
	"g.V.filter{it.age % 0 == 1}",
	"g.V.filter{60 / it.age >= 2}.out.path",
	"g.V.as('x').out.filter{60 / it.age >= 1}.back('x')",
	"g.V.filter{60 / it.age >= 2}.ifThenElse{it.age % 2 == 1}{it.out('created')}{it.out('knows')}",
}

func TestCorpusAgainstOracleBulkLoad(t *testing.T) {
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{})
	for _, q := range corpusQueries {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
}

func TestCorpusAgainstOracleIncremental(t *testing.T) {
	oracle := figure2a(t)
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	copyInto(t, oracle, s)
	for _, q := range corpusQueries {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
}

// TestNestedAttributesMatchOracle: an attribute holding an object or an
// array answers as the interpreter does — the object itself, the array's
// elements — whether the store was bulk-loaded or written one record at
// a time, and the object's fields stay reachable by a closure.
func TestNestedAttributesMatchOracle(t *testing.T) {
	oracle := blueprints.NewMemGraph()
	for _, err := range []error{
		oracle.AddVertex(1, map[string]any{"o": map[string]any{"a": 1}, "arr": []any{1, "x"}, "name": "n1"}),
		oracle.AddVertex(2, map[string]any{"o": map[string]any{"a": 2, "b": map[string]any{"c": "d"}}, "name": "n2"}),
		oracle.AddEdge(3, 1, 2, "l", map[string]any{"meta": map[string]any{"w": 0.5}, "list": []any{}}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := Load(oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	written, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	copyInto(t, oracle, written)
	for _, q := range []string{"g.V(1).o", "g.V.o", "g.V(1).arr", "g.E(3).meta", "g.E(3).list", "g.V(1).out.o", "g.V.filter{it.name == 'n2'}.o"} {
		assertSameResults(t, loaded, oracle, q, TranslateOptions{})
		assertSameResults(t, written, oracle, q, TranslateOptions{})
	}
}

func TestCorpusForceEA(t *testing.T) {
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{})
	for _, q := range corpusQueries {
		assertSameResults(t, s, oracle, q, TranslateOptions{ForceEA: true})
	}
}

func TestCorpusForceHashTables(t *testing.T) {
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{})
	for _, q := range corpusQueries {
		assertSameResults(t, s, oracle, q, TranslateOptions{ForceHashTables: true})
	}
}

func TestCorpusNarrowTables(t *testing.T) {
	// A 1-column budget forces spills for every co-occurring label pair;
	// results must not change.
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{OutCols: 1, InCols: 1})
	for _, q := range corpusQueries {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
}

func TestCorpusModuloColoring(t *testing.T) {
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{Coloring: ColoringModulo, OutCols: 2, InCols: 2})
	for _, q := range corpusQueries {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
}

func TestLoopQueries(t *testing.T) {
	g := blueprints.NewMemGraph()
	for i := int64(0); i < 8; i++ {
		if err := g.AddVertex(i, map[string]any{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	eid := int64(100)
	for i := int64(0); i < 7; i++ {
		if err := g.AddEdge(eid, i, i+1, "next", nil); err != nil {
			t.Fatal(err)
		}
		eid++
	}
	// A branch to make loops non-trivial.
	if err := g.AddEdge(eid, 0, 2, "next", nil); err != nil {
		t.Fatal(err)
	}
	s, err := Load(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loops := []string{
		"g.V(0).as('s').out('next').loop('s'){it.loops < 3}",
		"g.V(0).out('next').loop(1){it.loops < 4}",
		"g.V(0).as('s').out('next').loop('s'){it.loops < 3}.count()",
		"g.V(0).as('s').out('next').loop('s'){it.loops < 5}.dedup()",
	}
	for _, q := range loops {
		assertSameResults(t, s, g, q, TranslateOptions{})
	}

	// A ring of 8 vertices, one out-edge each, walked at the parser's
	// deepest loop bound: 1 024 laps unrolled into one statement. The ring
	// is branch-free, so the bag stays one vertex wide on every lap.
	ring := blueprints.NewMemGraph()
	for i := int64(0); i < 8; i++ {
		if err := ring.AddVertex(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 8; i++ {
		if err := ring.AddEdge(100+i, i, (i+1)%8, "next", nil); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := Load(ring, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, rs, ring, "g.V(0).out('next').loop(1){it.loops < 1024}.count()", TranslateOptions{})
}

func TestRandomGraphDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := blueprints.NewMemGraph()
		nV := 20 + rng.Intn(30)
		labels := []string{"a", "b", "c", "d"}
		for i := 0; i < nV; i++ {
			attrs := map[string]any{"k": int64(rng.Intn(5))}
			if rng.Intn(2) == 0 {
				attrs["name"] = fmt.Sprintf("n%d", rng.Intn(10))
			}
			if err := g.AddVertex(int64(i), attrs); err != nil {
				t.Fatal(err)
			}
		}
		nE := nV * 3
		for i := 0; i < nE; i++ {
			attrs := map[string]any{"w": rng.Float64()}
			_ = g.AddEdge(int64(1000+i), int64(rng.Intn(nV)), int64(rng.Intn(nV)), labels[rng.Intn(len(labels))], attrs)
		}
		s, err := Load(g, Options{OutCols: 3, InCols: 3})
		if err != nil {
			t.Fatal(err)
		}
		queries := []string{
			"g.V.count()",
			"g.E.count()",
			"g.V.out('a').count()",
			"g.V.out.dedup().count()",
			"g.V.has('k', 3).both('b', 'c').dedup()",
			"g.V.filter{it.k <= 2}.out.in.dedup().count()",
			"g.V(5).out.out.out.count()",
			"g.V.outE('d').inV.dedup().count()",
			"g.V(1).as('x').out.loop('x'){it.loops < 3}.count()",
			"g.V.has('name', 'n3').out.count()",
			"g.E.has('w', T.gt, 0.5).count()",
			"g.V(2).out.in.simplePath.count()",
		}
		for _, q := range queries {
			assertSameResults(t, s, g, q, TranslateOptions{})
		}
	}
}

func TestIncrementalMatchesBulk(t *testing.T) {
	// The same graph loaded in bulk and built incrementally must answer
	// identically.
	oracle := figure2a(t)
	bulk := loadFigure2a(t, Options{})
	incr, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	copyInto(t, oracle, incr)
	for _, q := range corpusQueries {
		a, err := bulk.Query(q)
		if err != nil {
			t.Fatalf("bulk %q: %v", q, err)
		}
		b, err := incr.Query(q)
		if err != nil {
			t.Fatalf("incr %q: %v", q, err)
		}
		ca, cb := canonical(a.Values), canonical(b.Values)
		if len(ca) != len(cb) {
			t.Fatalf("%q: bulk %v vs incr %v", q, ca, cb)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("%q: bulk %v vs incr %v", q, ca, cb)
			}
		}
	}
}

func TestBlueprintsReadSurface(t *testing.T) {
	s := loadFigure2a(t, Options{})
	if !s.VertexExists(1) || s.VertexExists(99) {
		t.Fatal("VertexExists wrong")
	}
	attrs, err := s.VertexAttrs(1)
	if err != nil || attrs["name"] != "marko" || attrs["age"] != int64(29) {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	rec, err := s.Edge(7)
	if err != nil || rec.Out != 1 || rec.In != 2 || rec.Label != "knows" {
		t.Fatalf("edge = %+v, %v", rec, err)
	}
	eattrs, _ := s.EdgeAttrs(7)
	if eattrs["weight"] != 0.5 {
		t.Fatalf("edge attrs = %v", eattrs)
	}
	out, err := s.OutEdges(1, "knows")
	if err != nil || len(out) != 2 {
		t.Fatalf("out edges = %v, %v", out, err)
	}
	in, _ := s.InEdges(3)
	if len(in) != 2 {
		t.Fatalf("in edges = %v", in)
	}
	if got := s.VertexIDs(); len(got) != 4 {
		t.Fatalf("vertex ids = %v", got)
	}
	if got := s.EdgeIDs(); len(got) != 5 {
		t.Fatalf("edge ids = %v", got)
	}
	if s.CountVertices() != 4 || s.CountEdges() != 5 {
		t.Fatal("counts wrong")
	}
	ids, err := s.VerticesByAttr("name", "lop")
	if err != nil || len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("by attr = %v, %v", ids, err)
	}
}

func TestAttributeMutation(t *testing.T) {
	s := loadFigure2a(t, Options{})
	if err := s.SetVertexAttr(2, "age", 28); err != nil {
		t.Fatal(err)
	}
	attrs, _ := s.VertexAttrs(2)
	if attrs["age"] != int64(28) {
		t.Fatalf("age = %v", attrs["age"])
	}
	if err := s.RemoveVertexAttr(2, "age"); err != nil {
		t.Fatal(err)
	}
	attrs, _ = s.VertexAttrs(2)
	if _, ok := attrs["age"]; ok {
		t.Fatal("age survives removal")
	}
	if err := s.SetEdgeAttr(7, "weight", 0.9); err != nil {
		t.Fatal(err)
	}
	eattrs, _ := s.EdgeAttrs(7)
	if eattrs["weight"] != 0.9 {
		t.Fatalf("weight = %v", eattrs["weight"])
	}
	if err := s.RemoveEdgeAttr(7, "weight"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVertexAttr(99, "x", 1); !errors.Is(err, blueprints.ErrNotFound) {
		t.Fatalf("missing vertex err = %v", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{})
	if err := s.RemoveEdge(8); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RemoveEdge(8); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"g.V(1).out", "g.V(4).in", "g.E.count()", "g.V(1).outE", "g.V(1).out('knows')"} {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
	if err := s.RemoveEdge(8); !errors.Is(err, blueprints.ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestRemoveEdgeFromMultiValue(t *testing.T) {
	// Vertex 1 has two 'knows' edges -> OSA. Removing one must leave the
	// other reachable.
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{})
	_ = s.RemoveEdge(7)
	_ = oracle.RemoveEdge(7)
	for _, q := range []string{"g.V(1).out('knows')", "g.V(2).in", "g.V(1).out.count()"} {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
}

func TestRemoveVertexClean(t *testing.T) {
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{DeleteMode: DeleteClean})
	if err := s.RemoveVertex(4); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RemoveVertex(4); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"g.V", "g.V.count()", "g.E.count()",
		"g.V(1).out", "g.V(2).in", "g.V(3).in", "g.V.both.count()",
		"g.V.has('age', T.gt, 20)",
	} {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
	if err := s.RemoveVertex(4); !errors.Is(err, blueprints.ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
	// Adding a new edge to the deleted vertex fails.
	if err := s.AddEdge(50, 1, 4, "x", nil); !errors.Is(err, blueprints.ErrNotFound) {
		t.Fatalf("edge to deleted vertex err = %v", err)
	}
}

func TestRemoveVertexPaperSoftAndVacuum(t *testing.T) {
	s := loadFigure2a(t, Options{DeleteMode: DeletePaperSoft})
	if err := s.RemoveVertex(4); err != nil {
		t.Fatal(err)
	}
	// The vertex itself is gone from V and attribute lookups.
	r, err := s.Query("g.V.count()")
	if err != nil {
		t.Fatal(err)
	}
	if r.Values[0] != int64(3) {
		t.Fatalf("count after soft delete = %v", r.Values)
	}
	// EA rows of incident edges are gone, so EA-based single hops are
	// already correct: edge 8 (1->4) disappeared, leaving 2 and 3.
	r, _ = s.Query("g.V(1).out")
	if len(r.Values) != 2 {
		t.Fatalf("EA single hop = %v", r.Values)
	}
	// Vacuum removes the negated rows and dangling references.
	removed, err := s.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("vacuum removed nothing")
	}
	// After vacuum, multi-hop traversal over hash tables is clean too.
	oracle := figure2a(t)
	_ = oracle.RemoveVertex(4)
	for _, q := range []string{"g.V(1).out.out.count()", "g.V.both.count()", "g.V.out.dedup()"} {
		assertSameResults(t, s, oracle, q, TranslateOptions{})
	}
}

func TestSpillRowsCreatedAndQueried(t *testing.T) {
	// With a single column, every distinct co-occurring label spills.
	s, err := Open(Options{OutCols: 1, InCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := blueprints.NewMemGraph()
	for i := int64(0); i < 5; i++ {
		_ = g.AddVertex(i, nil)
		if err := s.AddVertex(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	labels := []string{"a", "b", "c", "d"}
	eid := int64(0)
	for _, l := range labels {
		for dst := int64(1); dst < 5; dst++ {
			_ = g.AddEdge(eid, 0, dst, l, nil)
			if err := s.AddEdge(eid, 0, dst, l, nil); err != nil {
				t.Fatal(err)
			}
			eid++
		}
	}
	out, _, _, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if out.SpillRows == 0 {
		t.Fatal("expected spill rows with a 1-column table")
	}
	if out.MultiValueRows == 0 {
		t.Fatal("expected multi-value rows (4 edges per label)")
	}
	for _, q := range []string{"g.V(0).out", "g.V(0).out('b')", "g.V(0).out.count()", "g.V(2).in", "g.V(0).outE('c')"} {
		assertSameResults(t, s, g, q, TranslateOptions{ForceHashTables: true})
	}
}

func TestStatsOnSample(t *testing.T) {
	s := loadFigure2a(t, Options{})
	out, in, va, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if out.HashedLabels != 3 { // knows, created, likes
		t.Fatalf("out labels = %d", out.HashedLabels)
	}
	if in.HashedLabels != 3 {
		t.Fatalf("in labels = %d", in.HashedLabels)
	}
	if va.Rows != 4 || va.DistinctKeys != 4 { // name, age, lang, tag
		t.Fatalf("va = %+v", va)
	}
	if out.MultiValueRows != 2 { // vertex 1's two knows edges
		t.Fatalf("out multi-value rows = %d", out.MultiValueRows)
	}
	if out.SpillRows != 0 {
		t.Fatalf("unexpected out spills: %+v", out)
	}
}

func TestVertexAttrIndexSpeedsLookup(t *testing.T) {
	s := loadFigure2a(t, Options{})
	if err := s.CreateVertexAttrIndex("name"); err != nil {
		t.Fatal(err)
	}
	ids, err := s.VerticesByAttr("name", "josh")
	if err != nil || len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("indexed lookup = %v, %v", ids, err)
	}
	// The Gremlin source lookup must agree too.
	r, err := s.Query("g.V('name', 'josh')")
	if err != nil || len(r.Values) != 1 || r.Values[0] != int64(4) {
		t.Fatalf("gremlin lookup = %v, %v", r, err)
	}
	if err := s.CreateEdgeAttrIndex("weight"); err != nil {
		t.Fatal(err)
	}
	// The planner matches a predicate to an expression index by its SQL
	// text, so the text the index records must be the text the translator
	// writes: each lookup reads its table through the index, and answers
	// as the index-free reads do. A quote in the key must survive both.
	if err := s.SetVertexAttr(2, "o'k", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateVertexAttrIndex("o'k"); err != nil {
		t.Fatal(err)
	}
	viaIndex := func(gremlin, table string) []any {
		t.Helper()
		r, err := s.Query(gremlin)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range r.Stats.Scans {
			if sc.Table == table && sc.Access == "index-eq" {
				return r.Values
			}
		}
		t.Fatalf("%s: no index-eq scan of %s: %+v", gremlin, table, r.Stats.Scans)
		return nil
	}
	for _, c := range []struct {
		gremlin, key string
		val          any
	}{
		{"g.V('name','josh')", "name", "josh"},
		{"g.V.has('name','josh')", "name", "josh"},
		{`g.V.has("o'k", 7)`, "o'k", 7},
	} {
		want, err := s.VerticesByAttr(c.key, c.val)
		if err != nil || len(want) != 1 {
			t.Fatalf("VerticesByAttr(%q) = %v, %v", c.key, want, err)
		}
		if got := viaIndex(c.gremlin, TableVA); len(got) != 1 || got[0] != want[0] {
			t.Fatalf("%s = %v, VerticesByAttr = %v", c.gremlin, got, want)
		}
	}
	if got := viaIndex("g.E.has('weight', 0.4)", TableEA); len(got) != 1 || got[0] != int64(9) {
		t.Fatalf("g.E.has('weight', 0.4) = %v, want [9]", got)
	}
}

func TestTranslationShape(t *testing.T) {
	s := loadFigure2a(t, Options{})
	tr, err := s.Translate("g.V.filter{it.tag=='w'}.both.dedup().count()", TranslateOptions{ForceHashTables: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"WITH ", "JSON_VAL(ATTR, 'tag') = 'w'", "OPA", "IPA", "LEFT OUTER JOIN OSA", "LEFT OUTER JOIN ISA", "UNION ALL", "DISTINCT", "COUNT(*)"} {
		if !containsStr(tr.SQL, want) {
			t.Fatalf("translation missing %q:\n%s", want, tr.SQL)
		}
	}
	// Single-hop queries must prefer EA.
	tr, err = s.Translate("g.V(1).out", TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(tr.SQL, "OPA") || !containsStr(tr.SQL, "EA") {
		t.Fatalf("single hop should use EA:\n%s", tr.SQL)
	}
	// Multi-hop queries must use the hash tables.
	tr, err = s.Translate("g.V(1).out.out", TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(tr.SQL, "OPA") {
		t.Fatalf("multi hop should use OPA:\n%s", tr.SQL)
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexStr(haystack, needle) >= 0
}

func indexStr(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

func TestQueryCaching(t *testing.T) {
	s := loadFigure2a(t, Options{})
	r1, err := s.Query("g.V.count()")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Query("g.V.count()")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Values[0] != r2.Values[0] {
		t.Fatal("cached query changed results")
	}
}

func TestErrorsSurfaceCleanly(t *testing.T) {
	s := loadFigure2a(t, Options{})
	if _, err := s.Query("not gremlin"); err == nil {
		t.Fatal("bad gremlin accepted")
	}
	if _, err := s.Query("g.E(7).out"); err == nil {
		t.Fatal("adjacency on edges accepted")
	}
	if err := s.AddVertex(-5, nil); err == nil {
		t.Fatal("negative vertex id accepted")
	}
	if err := s.AddVertex(1, nil); !errors.Is(err, blueprints.ErrExists) {
		t.Fatalf("duplicate vertex err = %v", err)
	}
	if err := s.AddEdge(7, 1, 2, "dup", nil); !errors.Is(err, blueprints.ErrExists) {
		t.Fatalf("duplicate edge err = %v", err)
	}
}

func TestOutEdgesWithAttrs(t *testing.T) {
	s := loadFigure2a(t, Options{})
	recs, attrs, err := s.OutEdgesWithAttrs(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || len(attrs) != 3 {
		t.Fatalf("recs=%d attrs=%d", len(recs), len(attrs))
	}
	for i, rec := range recs {
		if rec.Out != 1 {
			t.Fatalf("rec %d out = %d", i, rec.Out)
		}
		if _, ok := attrs[i]["weight"]; !ok {
			t.Fatalf("rec %d missing weight: %v", i, attrs[i])
		}
	}
	// Limit caps the result.
	recs, attrs, err = s.OutEdgesWithAttrs(1, 2)
	if err != nil || len(recs) != 2 || len(attrs) != 2 {
		t.Fatalf("limited = %d/%d, %v", len(recs), len(attrs), err)
	}
	// Missing vertex errors.
	if _, _, err := s.OutEdgesWithAttrs(99, 0); !errors.Is(err, blueprints.ErrNotFound) {
		t.Fatalf("missing vertex err = %v", err)
	}
	// Deleted vertex errors too.
	if err := s.RemoveVertex(4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.OutEdgesWithAttrs(4, 0); !errors.Is(err, blueprints.ErrNotFound) {
		t.Fatalf("deleted vertex err = %v", err)
	}
}

// TestOrderGroupPushdown pins the exact, ordered output of the order,
// range and group templates, after closures that divide by row data too:
// edge `label` through LBL, groups packed as (key, value) in key order,
// range clamped like LIMIT/OFFSET.
func TestOrderGroupPushdown(t *testing.T) {
	s := loadFigure2a(t, Options{})
	defer s.Close()
	for q, want := range map[string][]any{
		"g.V.order{it.name}.range(0, 1).id": {int64(4), int64(3)}, // josh, lop
		"g.E.groupCount{it.label}": {
			[]any{"created", int64(2)}, []any{"knows", int64(2)}, []any{"likes", int64(1)}},
		// 60/29 = 2, 60/27 = 2, 60/32 = 1; lop has no age.
		"g.V.filter{60 / it.age >= 2}.outE.label.dedup.order()": {"created", "knows"},
		"g.V.filter{60 / (it.age + 0) >= 1}.groupCount{it.age}": {
			[]any{int64(27), int64(1)}, []any{int64(29), int64(1)}, []any{int64(32), int64(1)}},
		// Ordered by age: 2 (27), 1 (29), 4 (32); offset 1 keeps [1, 4].
		"g.V.filter{120 / it.age >= 1}.order{it.age}.range(1, 5)": {int64(1), int64(4)},
	} {
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if !reflect.DeepEqual(res.Values, want) {
			t.Errorf("%q = %v, want %v", q, res.Values, want)
		}
	}
}

func TestRemoveEdgeCollapsesEmptyCell(t *testing.T) {
	// Removing both multi-valued edges must clear the cell so the label
	// can be reused cleanly.
	oracle := figure2a(t)
	s := loadFigure2a(t, Options{})
	for _, eid := range []int64{7, 8} { // both of 1's knows edges
		if err := s.RemoveEdge(eid); err != nil {
			t.Fatal(err)
		}
		_ = oracle.RemoveEdge(eid)
	}
	assertSameResults(t, s, oracle, "g.V(1).out('knows').count()", TranslateOptions{ForceHashTables: true})
	// Re-adding a knows edge reuses the freed cell.
	if err := s.AddEdge(50, 1, 2, "knows", nil); err != nil {
		t.Fatal(err)
	}
	_ = oracle.AddEdge(50, 1, 2, "knows", nil)
	assertSameResults(t, s, oracle, "g.V(1).out('knows')", TranslateOptions{ForceHashTables: true})
}

// TestPreparedCacheBounded: texts that differ in their literals share one
// statement, but a client can still mint shapes — here property keys that
// never repeat — and must not grow the prepared-statement cache (or the
// engine's plan cache behind it) without bound; shapes evicted with the
// rest still answer.
func TestPreparedCacheBounded(t *testing.T) {
	s := loadFigure2a(t, Options{})
	for i := 0; i < 50; i++ { // one shape, fifty texts
		if _, err := s.Query(fmt.Sprintf("g.V(1, %d).out('knows')", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.PreparedStatements(); n != 1 {
		t.Fatalf("prepared cache holds %d statements after 50 texts of one shape, want 1", n)
	}
	shape := func(i int) string { return fmt.Sprintf("g.V(1).out('knows').hasNot('k%d')", i) }
	for i := 0; i < maxPrepared+100; i++ {
		if _, err := s.Query(shape(i)); err != nil {
			t.Fatal(err)
		}
		if n := s.PreparedStatements(); n > maxPrepared {
			t.Fatalf("prepared cache holds %d statements after %d distinct shapes, cap %d", n, i+1, maxPrepared)
		}
	}
	if n := s.PreparedStatements(); n < 100 || n > maxPrepared {
		t.Fatalf("prepared cache holds %d statements after one overflow, want the %d since it", n, 101)
	}
	hits, _ := s.PreparedCacheStats()
	res, err := s.Query(shape(0)) // evicted with the rest: re-prepared
	if err != nil || res.Count() != 2 {
		t.Fatalf("evicted shape after overflow: %v, %v", res, err)
	}
	if _, err := s.Query(shape(0)); err != nil {
		t.Fatal(err)
	}
	if after, _ := s.PreparedCacheStats(); after != hits+1 {
		t.Fatalf("re-prepared shape: %d cache hits, want %d", after, hits+1)
	}
}
