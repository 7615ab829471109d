package core

import (
	"fmt"
	"sync/atomic"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/rel"
)

// Snap is a pinned, immutable view of the whole graph at one version.
// Any number of snapshots can be read concurrently with each other and
// with the store's single serialized writer: readers never block the
// writer and the writer never blocks readers (MVCC, see internal/rel).
//
// A snapshot holds a pin on its version so the garbage collector keeps
// the row images it needs; Close releases the pin. Using a snapshot
// after Close returns ErrSnapshotClosed (or reports missing elements).
type Snap struct {
	s      *Store
	ver    rel.Version
	closed atomic.Bool
}

// ErrSnapshotClosed is returned by snapshot reads after Close.
var ErrSnapshotClosed = fmt.Errorf("core: snapshot is closed")

// Snapshot pins the current version and returns a consistent read-only
// view of the graph at that version.
func (s *Store) Snapshot() *Snap {
	return &Snap{s: s, ver: s.cat.Pin()}
}

// Version reports the store version this snapshot reads at.
func (sn *Snap) Version() uint64 { return uint64(sn.ver) }

// Close releases the snapshot's version pin, letting the garbage
// collector reclaim superseded row images. Idempotent.
func (sn *Snap) Close() {
	if sn.closed.CompareAndSwap(false, true) {
		sn.s.cat.Unpin(sn.ver)
	}
}

func (sn *Snap) ok() bool { return !sn.closed.Load() }

// Query runs a side-effect-free Gremlin query against the snapshot.
// Translations are shared with the store's prepared-query cache; only
// execution is versioned.
func (sn *Snap) Query(gremlinText string) (*Result, error) {
	return sn.QueryWithOptions(gremlinText, TranslateOptions{})
}

// QueryWithOptions executes a Gremlin query against the snapshot with
// explicit translation options.
func (sn *Snap) QueryWithOptions(gremlinText string, opts TranslateOptions) (*Result, error) {
	if !sn.ok() {
		return nil, ErrSnapshotClosed
	}
	return sn.s.queryTraced(gremlinText, opts, "", sn.ver)
}

// VertexExists reports whether the vertex was live at the snapshot.
func (sn *Snap) VertexExists(id int64) bool {
	return sn.ok() && sn.s.vertexExistsAt(id, sn.ver)
}

// VertexAttrs returns a vertex's attributes at the snapshot.
func (sn *Snap) VertexAttrs(id int64) (map[string]any, error) {
	if !sn.ok() {
		return nil, ErrSnapshotClosed
	}
	return sn.s.vertexAttrsAt(id, sn.ver)
}

// Edge returns an edge's endpoints and label at the snapshot.
func (sn *Snap) Edge(id int64) (blueprints.EdgeRec, error) {
	if !sn.ok() {
		return blueprints.EdgeRec{}, ErrSnapshotClosed
	}
	return sn.s.edgeAt(id, sn.ver)
}

// EdgeAttrs returns an edge's attributes at the snapshot.
func (sn *Snap) EdgeAttrs(id int64) (map[string]any, error) {
	if !sn.ok() {
		return nil, ErrSnapshotClosed
	}
	return sn.s.edgeAttrsAt(id, sn.ver)
}

// OutEdges lists a vertex's outgoing edges at the snapshot.
func (sn *Snap) OutEdges(v int64, labels ...string) ([]blueprints.EdgeRec, error) {
	if !sn.ok() {
		return nil, ErrSnapshotClosed
	}
	return sn.s.incidentAt(v, labels, IndexEAInLbl, sn.ver)
}

// InEdges lists a vertex's incoming edges at the snapshot.
func (sn *Snap) InEdges(v int64, labels ...string) ([]blueprints.EdgeRec, error) {
	if !sn.ok() {
		return nil, ErrSnapshotClosed
	}
	return sn.s.incidentAt(v, labels, IndexEAOutLbl, sn.ver)
}

// VertexIDs lists live vertex ids at the snapshot, sorted.
func (sn *Snap) VertexIDs() []int64 {
	if !sn.ok() {
		return nil
	}
	return sn.s.vertexIDsAt(sn.ver)
}

// EdgeIDs lists edge ids at the snapshot, sorted.
func (sn *Snap) EdgeIDs() []int64 {
	if !sn.ok() {
		return nil
	}
	return sn.s.edgeIDsAt(sn.ver)
}

// VerticesByAttr finds vertices by attribute value at the snapshot.
func (sn *Snap) VerticesByAttr(key string, val any) ([]int64, error) {
	if !sn.ok() {
		return nil, ErrSnapshotClosed
	}
	return sn.s.verticesByAttrAt(key, val, sn.ver)
}

// CountVertices counts live vertices at the snapshot.
func (sn *Snap) CountVertices() int {
	if !sn.ok() {
		return 0
	}
	return len(sn.s.vertexIDsAt(sn.ver))
}

// CountEdges counts edges at the snapshot.
func (sn *Snap) CountEdges() int {
	if !sn.ok() {
		return 0
	}
	return sn.s.countEdgesAt(sn.ver)
}
