// Package sqlgraph is an efficient relational-based property graph store:
// a Go implementation of the system described in "SQLGraph: An Efficient
// Relational-Based Property Graph Store" (SIGMOD 2015).
//
// A property graph — a directed labeled graph whose vertices and edges
// carry key/value attributes — is stored inside an embedded relational
// engine using the paper's hybrid schema: graph adjacency is shredded
// into relational hash tables (label-to-column assignment by graph
// coloring of the label co-occurrence structure), while vertex and edge
// attributes live in JSON columns. Gremlin traversal queries with no side
// effects are compiled into a single SQL statement, so the relational
// optimizer plans the whole traversal at once.
//
// Quick start:
//
//	b := sqlgraph.NewBuilder()
//	b.AddVertex(1, map[string]any{"name": "marko", "age": 29})
//	b.AddVertex(3, map[string]any{"name": "lop", "lang": "java"})
//	b.AddEdge(9, 1, 3, "created", map[string]any{"weight": 0.4})
//	g, err := sqlgraph.Load(b, sqlgraph.Options{})
//	...
//	res, err := g.Query("g.V.has('name', 'marko').out('created').name")
//
// A Graph and a Snapshot have one set of reads and queries (Query,
// QueryWithOptions, VertexExists, VertexAttrs, EdgeByID, EdgeAttrs,
// OutEdges, InEdges, VertexIDs, EdgeIDs, VerticesByAttr, CountVertices,
// CountEdges): a Graph's read the latest committed state, a Snapshot's
// its pinned version. Load and the mutations store every attribute value
// as its JSON reading and refuse NaN and ±Inf, which have none.
package sqlgraph

import (
	"fmt"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/stats"
	"sqlgraph/internal/trace"
	"sqlgraph/internal/translate"
)

// Options configures a store.
type Options struct {
	// OutCols / InCols bound the hash-table widths (column triads) for
	// outgoing and incoming adjacency. Zero means the default of 8.
	OutCols int
	InCols  int
	// ModuloColoring replaces the co-occurrence graph coloring with a
	// naive modulo hash (provided for the ablation study; expect more
	// spill rows).
	ModuloColoring bool
	// PaperSoftDelete makes RemoveVertex do exactly what the paper
	// describes — negate ids, drop EA rows — leaving dangling adjacency
	// entries to the offline Vacuum. The default additionally cleans
	// neighbor adjacency so query results are always exact.
	PaperSoftDelete bool
	// Dir makes the store durable: every mutation is appended to a
	// write-ahead log under this directory before it commits, and Open
	// recovers the graph from the latest snapshot plus the log tail. Empty
	// means in-memory only.
	Dir string
	// SnapshotEvery rewrites the snapshot and truncates the log after this
	// many logged mutations (durable stores only). Zero picks a sensible
	// default; negative disables automatic snapshots.
	SnapshotEvery int
}

func (o Options) internal() core.Options {
	opts := core.Options{OutCols: o.OutCols, InCols: o.InCols, Dir: o.Dir, SnapshotEvery: o.SnapshotEvery}
	if o.ModuloColoring {
		opts.Coloring = core.ColoringModulo
	}
	if o.PaperSoftDelete {
		opts.DeleteMode = core.DeletePaperSoft
	}
	return opts
}

// QueryOptions tune Gremlin-to-SQL translation.
type QueryOptions struct {
	// ForceEA answers every traversal from the edge-attribute table's
	// adjacency copy (normally only single-lookup queries do).
	ForceEA bool
	// ForceHashTables answers every traversal from the hash adjacency
	// tables, even single lookups.
	ForceHashTables bool
}

// Edge describes one edge.
type Edge struct {
	ID    int64
	From  int64 // source vertex (Gremlin's outV)
	To    int64 // target vertex (Gremlin's inV)
	Label string
}

// Result is the outcome of a Gremlin query.
type Result struct {
	// Values holds the emitted objects: int64 element ids for vertices
	// and edges, Go scalars for property values, []any for paths.
	Values []any
	// Stats reports how the translated SQL executed: join strategies,
	// rows examined per operator, and morsel fan-out. Stats.String()
	// renders a compact plan summary.
	Stats engine.ExecStats
	// Trace is the query's span tree — parse → translate → plan →
	// execute with one timed child per operator. Trace.Text() renders
	// the EXPLAIN ANALYZE plan tree.
	Trace *trace.Trace
}

// Count returns the number of emitted objects.
func (r *Result) Count() int { return len(r.Values) }

// Translation is a compiled Gremlin query.
type Translation struct {
	// SQL is the single statement the query compiles to.
	SQL string
	// Template is that statement as the store prepares it, once for every
	// query of this shape: ?N where the query's N-th literal (an id list,
	// a comparison value) is bound per execution.
	Template string
	// ElemType names what the result column holds: "vertex", "edge", or
	// "value".
	ElemType string
}

// Builder accumulates a graph in memory for bulk loading. Bulk loading is
// the preferred path: the loader analyzes the label co-occurrence
// structure to derive the coloring hash before shredding.
type Builder struct {
	mem *blueprints.MemGraph
}

// NewBuilder creates an empty builder.
func NewBuilder() *Builder {
	return &Builder{mem: blueprints.NewMemGraph()}
}

// AddVertex adds a vertex with attributes.
func (b *Builder) AddVertex(id int64, attrs map[string]any) error {
	return b.mem.AddVertex(id, attrs)
}

// AddEdge adds an edge from `from` to `to`.
func (b *Builder) AddEdge(id, from, to int64, label string, attrs map[string]any) error {
	return b.mem.AddEdge(id, from, to, label, attrs)
}

// Counts reports the accumulated graph size.
func (b *Builder) Counts() (vertices, edges int) {
	return b.mem.CountVertices(), b.mem.CountEdges()
}

// Graph is a SQLGraph property-graph store. Its reads and queries see
// the latest committed state; a Snapshot offers the same set at a pinned
// version.
type Graph struct {
	reader
	store *core.Store
}

func newGraph(s *core.Store) *Graph { return &Graph{reader: reader{&s.View}, store: s} }

// Open creates an empty store; labels hash to columns on first sight. Use
// Load when the data is available up front — the analyzed coloring packs
// adjacency tighter.
func Open(opts Options) (*Graph, error) {
	s, err := core.Open(opts.internal())
	if err != nil {
		return nil, err
	}
	return newGraph(s), nil
}

// Load bulk-loads a built graph.
func Load(b *Builder, opts Options) (*Graph, error) {
	s, err := core.Load(b.mem, opts.internal())
	if err != nil {
		return nil, err
	}
	return newGraph(s), nil
}

// Translate compiles a Gremlin query to SQL without executing it.
func (g *Graph) Translate(gremlin string) (*Translation, error) {
	tr, err := g.store.Translate(gremlin, translate.Options{})
	if err != nil {
		return nil, err
	}
	return &Translation{SQL: tr.SQL, Template: tr.Template, ElemType: tr.ElemType.String()}, nil
}

// AddVertex inserts a vertex. Attribute values are stored as their JSON
// reading (a Go integer of any type becomes an int64 when it fits, a
// string's invalid UTF-8 bytes become U+FFFD); a value with no JSON form
// (NaN, ±Inf) is an error and nothing is written.
func (g *Graph) AddVertex(id int64, attrs map[string]any) error {
	return g.store.AddVertex(id, attrs)
}

// AddEdge inserts an edge from `from` to `to` (a multi-table stored
// procedure updating the hash adjacency tables and the edge table
// atomically). Attribute values are stored as AddVertex stores them.
func (g *Graph) AddEdge(id, from, to int64, label string, attrs map[string]any) error {
	return g.store.AddEdge(id, from, to, label, attrs)
}

// RemoveVertex deletes a vertex using the paper's negative-id soft
// delete.
func (g *Graph) RemoveVertex(id int64) error { return g.store.RemoveVertex(id) }

// RemoveEdge deletes an edge.
func (g *Graph) RemoveEdge(id int64) error { return g.store.RemoveEdge(id) }

// SetVertexAttr sets one vertex attribute. The value is stored as its
// JSON reading; NaN and ±Inf are rejected (see AddVertex).
func (g *Graph) SetVertexAttr(id int64, key string, val any) error {
	return g.store.SetVertexAttr(id, key, val)
}

// RemoveVertexAttr removes one vertex attribute.
func (g *Graph) RemoveVertexAttr(id int64, key string) error {
	return g.store.RemoveVertexAttr(id, key)
}

// SetEdgeAttr sets one edge attribute. The value is stored as its JSON
// reading; NaN and ±Inf are rejected (see AddVertex).
func (g *Graph) SetEdgeAttr(id int64, key string, val any) error {
	return g.store.SetEdgeAttr(id, key, val)
}

// RemoveEdgeAttr removes one edge attribute.
func (g *Graph) RemoveEdgeAttr(id int64, key string) error {
	return g.store.RemoveEdgeAttr(id, key)
}

// CreateVertexAttrIndex builds a JSON expression index over a vertex
// attribute key.
func (g *Graph) CreateVertexAttrIndex(key string) error {
	return g.store.CreateVertexAttrIndex(key)
}

// CreateEdgeAttrIndex builds a JSON expression index over an edge
// attribute key.
func (g *Graph) CreateEdgeAttrIndex(key string) error {
	return g.store.CreateEdgeAttrIndex(key)
}

// Snapshot pins the current version of the graph and returns a
// consistent read-only view of it. Any number of snapshots can be read
// concurrently — with each other and with writers: mutations made after
// Snapshot returns are invisible to the view, and the snapshot never
// blocks them. Call Close when done so superseded row versions can be
// reclaimed.
//
//	snap := g.Snapshot()
//	defer snap.Close()
//	res, err := snap.Query("g.V.count")  // frozen even if writers proceed
func (g *Graph) Snapshot() *Snapshot {
	sn := g.store.Snapshot()
	return &Snapshot{reader: reader{&sn.View}, snap: sn}
}

// Snapshot is a pinned, immutable view of the whole graph at one
// version, safe for concurrent use from multiple goroutines. It has the
// Graph's reads and queries; after Close they fail (or report missing
// elements).
type Snapshot struct {
	reader
	snap *core.Snap
}

// Version reports the store version the snapshot reads at.
func (s *Snapshot) Version() uint64 { return s.snap.Version() }

// Close releases the snapshot. Idempotent; reads after Close fail.
func (s *Snapshot) Close() { s.snap.Close() }

// reader is the one set of reads and queries Graph and Snapshot share: at
// the store head for a Graph, at the pinned version for a Snapshot.
type reader struct{ v *core.View }

// Query runs a side-effect-free Gremlin query, compiled to a single SQL
// statement.
func (r reader) Query(gremlin string) (*Result, error) {
	return r.QueryWithOptions(gremlin, QueryOptions{})
}

// QueryWithOptions runs a query with explicit translation options.
func (r reader) QueryWithOptions(gremlin string, opts QueryOptions) (*Result, error) {
	res, err := r.v.QueryTraced(gremlin, translate.Options{
		ForceEA:         opts.ForceEA,
		ForceHashTables: opts.ForceHashTables,
	}, "")
	if err != nil {
		return nil, err
	}
	return &Result{Values: res.Values, Stats: res.Stats, Trace: res.Trace}, nil
}

// VertexExists reports whether the vertex is live.
func (r reader) VertexExists(id int64) bool { return r.v.VertexExists(id) }

// VertexAttrs returns a copy of a vertex's attributes.
func (r reader) VertexAttrs(id int64) (map[string]any, error) { return r.v.VertexAttrs(id) }

// EdgeByID returns an edge's endpoints and label.
func (r reader) EdgeByID(id int64) (Edge, error) {
	rec, err := r.v.Edge(id)
	if err != nil {
		return Edge{}, err
	}
	return Edge{ID: rec.ID, From: rec.Out, To: rec.In, Label: rec.Label}, nil
}

// EdgeAttrs returns a copy of an edge's attributes.
func (r reader) EdgeAttrs(id int64) (map[string]any, error) { return r.v.EdgeAttrs(id) }

// OutEdges lists a vertex's outgoing edges, optionally label-filtered.
func (r reader) OutEdges(v int64, labels ...string) ([]Edge, error) {
	recs, err := r.v.OutEdges(v, labels...)
	return toEdges(recs), err
}

// InEdges lists a vertex's incoming edges, optionally label-filtered.
func (r reader) InEdges(v int64, labels ...string) ([]Edge, error) {
	recs, err := r.v.InEdges(v, labels...)
	return toEdges(recs), err
}

// VertexIDs lists live vertex ids, sorted.
func (r reader) VertexIDs() []int64 { return r.v.VertexIDs() }

// EdgeIDs lists edge ids, sorted.
func (r reader) EdgeIDs() []int64 { return r.v.EdgeIDs() }

// VerticesByAttr finds vertices by attribute value (indexed when
// CreateVertexAttrIndex has been called for the key).
func (r reader) VerticesByAttr(key string, val any) ([]int64, error) {
	return r.v.VerticesByAttr(key, val)
}

// CountVertices returns the number of live vertices.
func (r reader) CountVertices() int { return r.v.CountVertices() }

// CountEdges returns the number of edges.
func (r reader) CountEdges() int { return r.v.CountEdges() }

func toEdges(recs []blueprints.EdgeRec) []Edge {
	out := make([]Edge, len(recs))
	for i, r := range recs {
		out[i] = Edge{ID: r.ID, From: r.Out, To: r.In, Label: r.Label}
	}
	return out
}

// PinnedSnapshots reports how many distinct store versions are still
// pinned by open snapshots. Zero means every Snapshot has been closed
// and the garbage collector can reclaim all superseded row images.
func (g *Graph) PinnedSnapshots() int { return g.store.PinnedSnapshots() }

// Vacuum physically reclaims rows left by soft deletes (the offline
// cleanup the paper describes but leaves unimplemented).
func (g *Graph) Vacuum() (int, error) { return g.store.Vacuum() }

// Bytes approximates the storage footprint.
func (g *Graph) Bytes() int64 { return g.store.TotalBytes() }

// SetParallelism caps the number of workers the SQL executor may fan a
// single query out to (morsel-driven parallelism): 0 restores the
// default (GOMAXPROCS), 1 forces serial execution. Query results are
// identical at any setting.
func (g *Graph) SetParallelism(n int) { g.store.SetParallelism(n) }

// Stats summarizes the hash tables (paper Table 3): spill rows,
// multi-value rows, label bucket sizes.
func (g *Graph) Stats() (string, error) {
	out, in, va, err := g.store.Stats()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s\n%s\nVertex attributes: rows=%d keys=%d long-strings=%d",
		out, in, va.Rows, va.DistinctKeys, va.LongStringVal), nil
}

// OptimizerStats snapshots the maintained table statistics — per-table
// row counts, NDV estimates, histogram bounds, and per-edge-label degree
// summaries — in a JSON-friendly shape. maxGroups bounds the per-table
// group listing (largest labels first; 0 = all).
func (g *Graph) OptimizerStats(maxGroups int) []stats.TableDescription {
	return g.store.OptimizerStats().Describe(maxGroups)
}

// RefreshStats rebuilds every maintained statistic from a table scan,
// including the rebuild-only histograms (otherwise refreshed at load,
// recovery, and checkpoints).
func (g *Graph) RefreshStats() error { return g.store.RefreshStats() }

// Close flushes and closes the write-ahead log of a durable store. It is
// a no-op for in-memory stores.
func (g *Graph) Close() error { return g.store.Close() }

// Checkpoint writes a full snapshot and truncates the write-ahead log of
// a durable store, independent of the SnapshotEvery cadence.
func (g *Graph) Checkpoint() error { return g.store.Checkpoint() }

// Check runs the graph fsck: it verifies the hybrid schema's internal
// invariants (every edge has exactly one matching cell on each adjacency
// side, spill flags match row counts, deleted vertices own no live edge
// rows, attribute documents parse) and returns a human-readable line per
// violation. A healthy store returns nil.
func (g *Graph) Check() []string {
	vs := core.Check(g.store)
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// Fsck verifies a durable store directory offline: it recovers the graph
// from the snapshot and log (failing on any corrupt record that is not a
// torn tail) and runs the same invariant checks as Graph.Check. It never
// modifies the directory.
func Fsck(dir string) ([]string, error) {
	vs, err := core.Fsck(dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out, nil
}
