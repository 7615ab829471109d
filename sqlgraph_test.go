package sqlgraph

import (
	"reflect"
	"strings"
	"testing"
)

func sampleGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddVertex(1, map[string]any{"name": "marko", "age": 29}))
	must(b.AddVertex(2, map[string]any{"name": "vadas", "age": 27}))
	must(b.AddVertex(3, map[string]any{"name": "lop", "lang": "java"}))
	must(b.AddVertex(4, map[string]any{"name": "josh", "age": 32}))
	must(b.AddEdge(7, 1, 2, "knows", map[string]any{"weight": 0.5}))
	must(b.AddEdge(8, 1, 4, "knows", map[string]any{"weight": 1.0}))
	must(b.AddEdge(9, 1, 3, "created", map[string]any{"weight": 0.4}))
	must(b.AddEdge(10, 4, 2, "likes", map[string]any{"weight": 0.2}))
	must(b.AddEdge(11, 4, 3, "created", map[string]any{"weight": 0.8}))
	if v, e := b.Counts(); v != 4 || e != 5 {
		t.Fatalf("builder counts = %d, %d", v, e)
	}
	g, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicQuery(t *testing.T) {
	g := sampleGraph(t)
	r, err := g.Query("g.V.has('name', 'marko').out('created').name")
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 1 || r.Values[0] != "lop" {
		t.Fatalf("result = %v", r.Values)
	}
	r, err = g.Query("g.V.count()")
	if err != nil || r.Values[0] != int64(4) {
		t.Fatalf("count = %v, %v", r, err)
	}
}

func TestPublicQueryOptions(t *testing.T) {
	g := sampleGraph(t)
	for _, opts := range []QueryOptions{{}, {ForceEA: true}, {ForceHashTables: true}} {
		r, err := g.QueryWithOptions("g.V(1).out.dedup().count()", opts)
		if err != nil || r.Values[0] != int64(3) {
			t.Fatalf("opts %+v: %v, %v", opts, r, err)
		}
	}
}

func TestPublicTranslate(t *testing.T) {
	g := sampleGraph(t)
	tr, err := g.Translate("g.V.filter{it.age >= 29}.out.dedup().count()")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.SQL, "SELECT") {
		t.Fatalf("SQL = %s", tr.SQL)
	}
	if tr.ElemType != "value" {
		t.Fatalf("elem type = %s", tr.ElemType)
	}
}

func TestPublicCRUD(t *testing.T) {
	g, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(1, map[string]any{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddVertex(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(10, 1, 2, "knows", map[string]any{"w": 1}); err != nil {
		t.Fatal(err)
	}
	if !g.VertexExists(1) || g.VertexExists(3) {
		t.Fatal("VertexExists wrong")
	}
	if vs, es := g.VertexIDs(), g.EdgeIDs(); !reflect.DeepEqual(vs, []int64{1, 2}) || !reflect.DeepEqual(es, []int64{10}) {
		t.Fatalf("VertexIDs = %v, EdgeIDs = %v", vs, es)
	}
	attrs, err := g.VertexAttrs(1)
	if err != nil || attrs["k"] != "v" {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	e, err := g.EdgeByID(10)
	if err != nil || e.From != 1 || e.To != 2 || e.Label != "knows" {
		t.Fatalf("edge = %+v, %v", e, err)
	}
	out, err := g.OutEdges(1)
	if err != nil || len(out) != 1 {
		t.Fatalf("out = %v, %v", out, err)
	}
	in, err := g.InEdges(2, "knows")
	if err != nil || len(in) != 1 {
		t.Fatalf("in = %v, %v", in, err)
	}
	if err := g.SetVertexAttr(1, "k2", 5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeAttr(10, "w", 2); err != nil {
		t.Fatal(err)
	}
	ea, _ := g.EdgeAttrs(10)
	if ea["w"] != int64(2) {
		t.Fatalf("edge attrs = %v", ea)
	}
	if err := g.RemoveVertexAttr(1, "k"); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdgeAttr(10, "w"); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(10); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveVertex(2); err != nil {
		t.Fatal(err)
	}
	if g.CountVertices() != 1 {
		t.Fatalf("vertices = %d", g.CountVertices())
	}
	if g.CountEdges() != 0 {
		t.Fatalf("edges = %d", g.CountEdges())
	}
	if vs, es := g.VertexIDs(), g.EdgeIDs(); !reflect.DeepEqual(vs, []int64{1}) || len(es) != 0 {
		t.Fatalf("after removals: VertexIDs = %v, EdgeIDs = %v", vs, es)
	}
	if _, err := g.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if g.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

func TestPublicAttrIndexAndLookup(t *testing.T) {
	g := sampleGraph(t)
	if err := g.CreateVertexAttrIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateEdgeAttrIndex("weight"); err != nil {
		t.Fatal(err)
	}
	ids, err := g.VerticesByAttr("name", "vadas")
	if err != nil || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("lookup = %v, %v", ids, err)
	}
}

func TestPublicStats(t *testing.T) {
	g := sampleGraph(t)
	s, err := g.Stats()
	if err != nil || !strings.Contains(s, "Outgoing Adjacency") {
		t.Fatalf("stats = %q, %v", s, err)
	}
}

func TestPublicOptionsVariants(t *testing.T) {
	b := NewBuilder()
	_ = b.AddVertex(1, nil)
	_ = b.AddVertex(2, nil)
	_ = b.AddEdge(5, 1, 2, "x", nil)
	for _, opts := range []Options{
		{},
		{OutCols: 2, InCols: 2},
		{ModuloColoring: true},
		{PaperSoftDelete: true},
	} {
		g, err := Load(b, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		r, err := g.Query("g.V(1).out")
		if err != nil || r.Count() != 1 {
			t.Fatalf("%+v: %v, %v", opts, r, err)
		}
	}
}

func TestPathQuery(t *testing.T) {
	g := sampleGraph(t)
	r, err := g.Query("g.V(1).out('knows').out('created').path")
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 1 {
		t.Fatalf("paths = %v", r.Values)
	}
	p, ok := r.Values[0].([]any)
	if !ok || len(p) != 3 || p[0] != int64(1) || p[1] != int64(4) || p[2] != int64(3) {
		t.Fatalf("path = %v", r.Values[0])
	}
}
