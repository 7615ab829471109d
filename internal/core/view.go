package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/rel"
)

// View is the graph at one version: the store head (rel.Latest) for the
// Store's own reads, or a pinned MVCC version for a Snap (snapshot.go).
// Every point read and both Gremlin entry points (trace.go) are defined
// once, here; Store and Snap embed a View and add only what differs —
// the writes on the one, Version and Close on the other.
//
// Single-hop lookups go through the EA table — the paper's
// micro-benchmark (Table 4) shows EA beats the hash adjacency tables for
// simple neighbor lookups, which is exactly why the schema keeps the
// redundant adjacency copy there (Section 3.5).
type View struct {
	st       *Store
	ver      rel.Version
	released atomic.Bool // set by Snap.Close; the store's own view never is
}

// begin opens a read transaction over fp at the view's version. After
// Snap.Close it fails with ErrSnapshotClosed rather than read at a
// version the garbage collector may have reclaimed.
func (v *View) begin(fp *rel.Footprint) (*rel.Txn, error) {
	if v.released.Load() {
		return nil, ErrSnapshotClosed
	}
	return fp.BeginAt(v.ver), nil
}

// VertexExists implements blueprints.Graph. A released view reports
// false.
func (v *View) VertexExists(id int64) bool {
	tx, err := v.begin(v.st.fpReadVA)
	if err != nil {
		return false
	}
	defer tx.Rollback()
	return vertexLiveTx(tx, id)
}

// VertexAttrs implements blueprints.Graph.
func (v *View) VertexAttrs(id int64) (map[string]any, error) {
	return v.attrs(v.st.fpReadVA, TableVA, IndexVAPK, vaATTR, "vertex", id)
}

// EdgeAttrs implements blueprints.Graph.
func (v *View) EdgeAttrs(id int64) (map[string]any, error) {
	return v.attrs(v.st.fpReadEA, TableEA, IndexEAPK, eaATTR, "edge", id)
}

// attrs reads the attribute document of the element whose key in index
// is id.
func (v *View) attrs(fp *rel.Footprint, table, index string, col int, kind string, id int64) (map[string]any, error) {
	tx, err := v.begin(fp)
	if err != nil {
		return nil, err
	}
	defer tx.Rollback()
	var out map[string]any
	found := false
	_ = tx.Probe(table, index, []rel.Value{rel.NewInt(id)}, func(rid rel.RowID, vals []rel.Value) bool {
		out = vals[col].JSON().Map()
		found = true
		return false
	})
	if !found {
		return nil, fmt.Errorf("%w: %s %d", blueprints.ErrNotFound, kind, id)
	}
	return out, nil
}

// Edge implements blueprints.Graph.
func (v *View) Edge(id int64) (blueprints.EdgeRec, error) {
	tx, err := v.begin(v.st.fpReadEA)
	if err != nil {
		return blueprints.EdgeRec{}, err
	}
	defer tx.Rollback()
	rec, _, ok := edgeTx(tx, id)
	if !ok {
		return blueprints.EdgeRec{}, fmt.Errorf("%w: edge %d", blueprints.ErrNotFound, id)
	}
	return rec, nil
}

// OutEdges implements blueprints.Graph via the EA (INV, LBL) index.
func (v *View) OutEdges(vid int64, labels ...string) ([]blueprints.EdgeRec, error) {
	return v.incident(vid, labels, IndexEAInLbl)
}

// InEdges implements blueprints.Graph via the EA (OUTV, LBL) index.
func (v *View) InEdges(vid int64, labels ...string) ([]blueprints.EdgeRec, error) {
	return v.incident(vid, labels, IndexEAOutLbl)
}

func (v *View) incident(vid int64, labels []string, index string) ([]blueprints.EdgeRec, error) {
	tx, err := v.begin(v.st.fpReadEV)
	if err != nil {
		return nil, err
	}
	defer tx.Rollback()
	if !vertexLiveTx(tx, vid) {
		return nil, fmt.Errorf("%w: vertex %d", blueprints.ErrNotFound, vid)
	}
	var out []blueprints.EdgeRec
	visit := func(rid rel.RowID, vals []rel.Value) bool {
		out = append(out, edgeRec(vals))
		return true
	}
	if len(labels) == 0 {
		if err := tx.Probe(TableEA, index, []rel.Value{rel.NewInt(vid)}, visit); err != nil {
			return nil, err
		}
	} else {
		for _, l := range labels {
			if err := tx.Probe(TableEA, index, []rel.Value{rel.NewInt(vid), rel.NewString(l)}, visit); err != nil {
				return nil, err
			}
		}
	}
	slices.SortFunc(out, func(a, b blueprints.EdgeRec) int { return cmp.Compare(a.ID, b.ID) })
	return out, nil
}

// edgeRec reads an EA row's id, endpoints and label.
func edgeRec(vals []rel.Value) blueprints.EdgeRec {
	return blueprints.EdgeRec{ID: vals[eaEID].Int(), Out: vals[eaINV].Int(), In: vals[eaOUTV].Int(), Label: vals[eaLBL].Str()}
}

// OutEdgesWithAttrs implements blueprints.LinkLister: one transaction
// serves the edge list and the payloads (LinkBench's dominant
// get_link_list operation runs as a single statement on SQLGraph).
func (v *View) OutEdgesWithAttrs(vid int64, limit int) ([]blueprints.EdgeRec, []map[string]any, error) {
	tx, err := v.begin(v.st.fpReadEV)
	if err != nil {
		return nil, nil, err
	}
	defer tx.Rollback()
	if !vertexLiveTx(tx, vid) {
		return nil, nil, fmt.Errorf("%w: vertex %d", blueprints.ErrNotFound, vid)
	}
	var recs []blueprints.EdgeRec
	var attrs []map[string]any
	err = tx.Probe(TableEA, IndexEAInLbl, []rel.Value{rel.NewInt(vid)}, func(rid rel.RowID, vals []rel.Value) bool {
		recs = append(recs, edgeRec(vals))
		attrs = append(attrs, vals[eaATTR].JSON().Map())
		return limit <= 0 || len(recs) < limit
	})
	if err != nil {
		return nil, nil, err
	}
	return recs, attrs, nil
}

// VertexIDs implements blueprints.Graph: live vertices, sorted. A
// released view lists none.
func (v *View) VertexIDs() []int64 {
	var out []int64
	v.scanIDs(v.st.fpReadVA, TableVA, vaVID, func(id int64) { out = append(out, id) })
	slices.Sort(out)
	return out
}

// EdgeIDs implements blueprints.Graph (sorted). A released view lists
// none.
func (v *View) EdgeIDs() []int64 {
	var out []int64
	v.scanIDs(v.st.fpReadEA, TableEA, eaEID, func(id int64) { out = append(out, id) })
	slices.Sort(out)
	return out
}

// CountVertices implements blueprints.Graph (live vertices). A released
// view counts zero.
func (v *View) CountVertices() int {
	n := 0
	v.scanIDs(v.st.fpReadVA, TableVA, vaVID, func(int64) { n++ })
	return n
}

// CountEdges implements blueprints.Graph. A released view counts zero.
func (v *View) CountEdges() int {
	n := 0
	v.scanIDs(v.st.fpReadEA, TableEA, eaEID, func(int64) { n++ })
	return n
}

// scanIDs visits the id in column col of every row of table at the
// view's version, skipping negative ones: a removed vertex keeps its VA
// row under a negated id until Vacuum, and edge ids are never negative.
func (v *View) scanIDs(fp *rel.Footprint, table string, col int, visit func(id int64)) {
	tx, err := v.begin(fp)
	if err != nil {
		return
	}
	defer tx.Rollback()
	_ = tx.Scan(table, func(rid rel.RowID, vals []rel.Value) bool {
		if id := vals[col].Int(); id >= 0 {
			visit(id)
		}
		return true
	})
}

// VerticesByAttr implements blueprints.Graph through a SQL lookup, which
// uses a JSON expression index when CreateVertexAttrIndex has been called
// for the key.
func (v *View) VerticesByAttr(key string, val any) ([]int64, error) {
	if v.released.Load() {
		return nil, ErrSnapshotClosed
	}
	rows, err := v.st.eng.QueryAt(
		fmt.Sprintf("SELECT VID FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, '%s') = ?", escapeSQL(key)), v.ver, val)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(rows.Data))
	for _, row := range rows.Data {
		out = append(out, row[0].Int())
	}
	slices.Sort(out)
	return out, nil
}
