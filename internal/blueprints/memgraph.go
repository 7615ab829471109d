package blueprints

import (
	"fmt"
	"sort"
	"sync"
)

// MemGraph is the reference in-memory property graph: straightforward
// adjacency maps guarded by one RWMutex. It is the oracle the Gremlin
// interpreter and the SQL translation are differential-tested against.
type MemGraph struct {
	mu       sync.RWMutex
	vertices map[ID]*memVertex
	edges    map[ID]*memEdge
	indexes  map[string]map[string][]ID // attr key -> canonical value -> vids
}

type memVertex struct {
	attrs map[string]any
	out   []ID // edge ids, insertion order
	in    []ID
}

type memEdge struct {
	rec   EdgeRec
	attrs map[string]any
}

// NewMemGraph creates an empty graph.
func NewMemGraph() *MemGraph {
	return &MemGraph{
		vertices: map[ID]*memVertex{},
		edges:    map[ID]*memEdge{},
		indexes:  map[string]map[string][]ID{},
	}
}

// Figure2a builds the paper's Figure 2a sample property graph.
func Figure2a() *MemGraph {
	g := NewMemGraph()
	// Fresh, distinct ids over existing endpoints: no insert can fail.
	_ = g.AddVertex(1, map[string]any{"name": "marko", "age": 29})
	_ = g.AddVertex(2, map[string]any{"name": "vadas", "age": 27})
	_ = g.AddVertex(3, map[string]any{"name": "lop", "lang": "java"})
	_ = g.AddVertex(4, map[string]any{"name": "josh", "age": 32})
	_ = g.AddEdge(7, 1, 2, "knows", map[string]any{"weight": 0.5})
	_ = g.AddEdge(8, 1, 4, "knows", map[string]any{"weight": 1.0})
	_ = g.AddEdge(9, 1, 3, "created", map[string]any{"weight": 0.4})
	_ = g.AddEdge(10, 4, 2, "likes", map[string]any{"weight": 0.2})
	_ = g.AddEdge(11, 4, 3, "created", map[string]any{"weight": 0.8})
	return g
}

// AddVertex implements Graph.
func (g *MemGraph) AddVertex(id ID, attrs map[string]any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.vertices[id]; ok {
		return fmt.Errorf("%w: vertex %d", ErrExists, id)
	}
	g.vertices[id] = &memVertex{attrs: CopyAttrs(attrs)}
	for key, vals := range g.indexes {
		if v, ok := attrs[key]; ok {
			k := attrKey(v)
			vals[k] = append(vals[k], id)
		}
	}
	return nil
}

// RemoveVertex implements Graph.
func (g *MemGraph) RemoveVertex(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.vertices[id]
	if !ok {
		return fmt.Errorf("%w: vertex %d", ErrNotFound, id)
	}
	for _, eid := range append(append([]ID(nil), v.out...), v.in...) {
		g.removeEdgeLocked(eid)
	}
	g.unindexVertexLocked(id, v.attrs)
	delete(g.vertices, id)
	return nil
}

func (g *MemGraph) unindexVertexLocked(id ID, attrs map[string]any) {
	for key, vals := range g.indexes {
		if v, ok := attrs[key]; ok {
			k := attrKey(v)
			vals[k] = removeID(vals[k], id)
		}
	}
}

func removeID(ids []ID, id ID) []ID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// VertexExists implements Graph.
func (g *MemGraph) VertexExists(id ID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.vertices[id]
	return ok
}

// VertexAttrs implements Graph.
func (g *MemGraph) VertexAttrs(id ID) (map[string]any, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	v, ok := g.vertices[id]
	if !ok {
		return nil, fmt.Errorf("%w: vertex %d", ErrNotFound, id)
	}
	return CopyAttrs(v.attrs), nil
}

// SetVertexAttr implements Graph.
func (g *MemGraph) SetVertexAttr(id ID, key string, val any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.vertices[id]
	if !ok {
		return fmt.Errorf("%w: vertex %d", ErrNotFound, id)
	}
	if idx, ok := g.indexes[key]; ok {
		if old, had := v.attrs[key]; had {
			idx[attrKey(old)] = removeID(idx[attrKey(old)], id)
		}
		idx[attrKey(val)] = append(idx[attrKey(val)], id)
	}
	v.attrs[key] = val
	return nil
}

// RemoveVertexAttr implements Graph.
func (g *MemGraph) RemoveVertexAttr(id ID, key string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.vertices[id]
	if !ok {
		return fmt.Errorf("%w: vertex %d", ErrNotFound, id)
	}
	if idx, ok := g.indexes[key]; ok {
		if old, had := v.attrs[key]; had {
			idx[attrKey(old)] = removeID(idx[attrKey(old)], id)
		}
	}
	delete(v.attrs, key)
	return nil
}

// AddEdge implements Graph.
func (g *MemGraph) AddEdge(id ID, out, in ID, label string, attrs map[string]any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.edges[id]; ok {
		return fmt.Errorf("%w: edge %d", ErrExists, id)
	}
	vo, ok := g.vertices[out]
	if !ok {
		return fmt.Errorf("%w: out vertex %d", ErrNotFound, out)
	}
	vi, ok := g.vertices[in]
	if !ok {
		return fmt.Errorf("%w: in vertex %d", ErrNotFound, in)
	}
	g.edges[id] = &memEdge{
		rec:   EdgeRec{ID: id, Out: out, In: in, Label: label},
		attrs: CopyAttrs(attrs),
	}
	vo.out = append(vo.out, id)
	vi.in = append(vi.in, id)
	return nil
}

// RemoveEdge implements Graph.
func (g *MemGraph) RemoveEdge(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.edges[id]; !ok {
		return fmt.Errorf("%w: edge %d", ErrNotFound, id)
	}
	g.removeEdgeLocked(id)
	return nil
}

func (g *MemGraph) removeEdgeLocked(id ID) {
	e, ok := g.edges[id]
	if !ok {
		return
	}
	if vo, ok := g.vertices[e.rec.Out]; ok {
		vo.out = removeID(vo.out, id)
	}
	if vi, ok := g.vertices[e.rec.In]; ok {
		vi.in = removeID(vi.in, id)
	}
	delete(g.edges, id)
}

// Edge implements Graph.
func (g *MemGraph) Edge(id ID) (EdgeRec, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.edges[id]
	if !ok {
		return EdgeRec{}, fmt.Errorf("%w: edge %d", ErrNotFound, id)
	}
	return e.rec, nil
}

// EdgeAttrs implements Graph.
func (g *MemGraph) EdgeAttrs(id ID) (map[string]any, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.edges[id]
	if !ok {
		return nil, fmt.Errorf("%w: edge %d", ErrNotFound, id)
	}
	return CopyAttrs(e.attrs), nil
}

// SetEdgeAttr implements Graph.
func (g *MemGraph) SetEdgeAttr(id ID, key string, val any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("%w: edge %d", ErrNotFound, id)
	}
	e.attrs[key] = val
	return nil
}

// RemoveEdgeAttr implements Graph.
func (g *MemGraph) RemoveEdgeAttr(id ID, key string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("%w: edge %d", ErrNotFound, id)
	}
	delete(e.attrs, key)
	return nil
}

func labelMatch(label string, labels []string) bool {
	if len(labels) == 0 {
		return true
	}
	for _, l := range labels {
		if l == label {
			return true
		}
	}
	return false
}

// OutEdges implements Graph.
func (g *MemGraph) OutEdges(v ID, labels ...string) ([]EdgeRec, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	mv, ok := g.vertices[v]
	if !ok {
		return nil, fmt.Errorf("%w: vertex %d", ErrNotFound, v)
	}
	var out []EdgeRec
	for _, eid := range mv.out {
		rec := g.edges[eid].rec
		if labelMatch(rec.Label, labels) {
			out = append(out, rec)
		}
	}
	return out, nil
}

// InEdges implements Graph.
func (g *MemGraph) InEdges(v ID, labels ...string) ([]EdgeRec, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	mv, ok := g.vertices[v]
	if !ok {
		return nil, fmt.Errorf("%w: vertex %d", ErrNotFound, v)
	}
	var out []EdgeRec
	for _, eid := range mv.in {
		rec := g.edges[eid].rec
		if labelMatch(rec.Label, labels) {
			out = append(out, rec)
		}
	}
	return out, nil
}

// VertexIDs implements Graph (sorted for determinism).
func (g *MemGraph) VertexIDs() []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]ID, 0, len(g.vertices))
	for id := range g.vertices {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EdgeIDs implements Graph (sorted for determinism).
func (g *MemGraph) EdgeIDs() []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]ID, 0, len(g.edges))
	for id := range g.edges {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VerticesByAttr implements Graph: indexed lookup when available, scan
// otherwise.
func (g *MemGraph) VerticesByAttr(key string, val any) ([]ID, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if idx, ok := g.indexes[key]; ok {
		ids := idx[attrKey(val)]
		out := append([]ID(nil), ids...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	want := attrKey(val)
	var out []ID
	for id, v := range g.vertices {
		if a, ok := v.attrs[key]; ok && attrKey(a) == want {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// CountVertices implements Graph.
func (g *MemGraph) CountVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.vertices)
}

// CountEdges implements Graph.
func (g *MemGraph) CountEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// CreateVertexAttrIndex implements Indexer, backfilling from existing
// vertices.
func (g *MemGraph) CreateVertexAttrIndex(key string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.indexes[key]; ok {
		return nil
	}
	idx := map[string][]ID{}
	for id, v := range g.vertices {
		if a, ok := v.attrs[key]; ok {
			k := attrKey(a)
			idx[k] = append(idx[k], id)
		}
	}
	g.indexes[key] = idx
	return nil
}
