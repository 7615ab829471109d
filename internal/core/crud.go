package core

import (
	"errors"
	"fmt"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
	"sqlgraph/internal/wal"
)

// The graph update operations are implemented as multi-table "stored
// procedures" (paper Section 4.5.2): one transaction spanning the hash
// adjacency tables and the attribute tables. Each public mutation builds
// its WAL record and hands it to write (batch.go), the one mutation path;
// the *Tx functions here are the procedures' bodies.

// writeTables is the full write footprint of edge/vertex updates.
var writeTables = []string{TableEA, TableIPA, TableISA, TableOPA, TableOSA, TableVA}

// AddVertex implements blueprints.Graph.
func (s *Store) AddVertex(id int64, attrs map[string]any) error {
	return s.write(BatchAddVertex(id, attrs))
}

// vertexTombstoneTx reports whether a soft-deleted VA row exists for id.
func vertexTombstoneTx(tx *rel.Txn, id int64) bool {
	found := false
	_ = tx.Probe(TableVA, IndexVAPK, []rel.Value{rel.NewInt(-id - 1)}, func(rel.RowID, []rel.Value) bool {
		found = true
		return false
	})
	return found
}

// errWiden is addVertexTx's answer under the VA-only footprint when the
// id has soft-delete remains: purging them writes the adjacency tables
// too, so write restarts the operation under the full footprint.
var errWiden = errors.New("core: operation needs the full write footprint")

// addVertexTx inserts a vertex with the attribute document attrs (JSON
// text). Soft-delete tombstones for the id are purged first, or fsck
// would report the id as both live and deleted; that needs the full
// footprint (see errWiden).
func (s *Store) addVertexTx(tx *rel.Txn, id int64, attrs string) error {
	doc, err := sqljson.Parse(attrs)
	if err != nil {
		return err
	}
	if id < 0 {
		return fmt.Errorf("core: vertex ids must be non-negative (negative ids mark deletions)")
	}
	if vertexLiveTx(tx, id) {
		return fmt.Errorf("%w: vertex %d", blueprints.ErrExists, id)
	}
	if vertexTombstoneTx(tx, id) {
		if !tx.Writes(TableOPA) {
			return errWiden
		}
		if err := s.purgeVertexTx(tx, id); err != nil {
			return err
		}
	}
	_, err = tx.Insert(TableVA, []rel.Value{rel.NewInt(id), rel.NewJSON(doc)})
	return err
}

// purgeVertexTx physically removes the id's soft-delete remains: negated
// VA and adjacency rows plus the secondary lists their multi-valued cells
// own (the same ownership rule Vacuum applies).
func (s *Store) purgeVertexTx(tx *rel.Txn, id int64) error {
	neg := rel.NewInt(-id - 1)

	var vaRids []rel.RowID
	if err := tx.Probe(TableVA, IndexVAPK, []rel.Value{neg}, func(rid rel.RowID, _ []rel.Value) bool {
		vaRids = append(vaRids, rid)
		return true
	}); err != nil {
		return err
	}
	for _, rid := range vaRids {
		if _, err := tx.Delete(TableVA, rid); err != nil {
			return err
		}
	}

	for _, side := range []struct {
		primary, index, secondary string
		cols                      int
	}{
		{TableOPA, IndexOPAVID, TableOSA, s.outCols},
		{TableIPA, IndexIPAVID, TableISA, s.inCols},
	} {
		var rids []rel.RowID
		lids := map[int64]bool{}
		if err := tx.Probe(side.primary, side.index, []rel.Value{neg}, func(rid rel.RowID, vals []rel.Value) bool {
			rids = append(rids, rid)
			for k := 0; k < side.cols; k++ {
				// A multi-valued cell (label set, edge id NULL) owns the
				// secondary list its VAL points at.
				if !vals[adjLBL(k)].IsNull() && vals[adjEID(k)].IsNull() {
					lids[vals[adjVAL(k)].Int()] = true
				}
			}
			return true
		}); err != nil {
			return err
		}
		for _, rid := range rids {
			if _, err := tx.Delete(side.primary, rid); err != nil {
				return err
			}
		}
		if len(lids) > 0 {
			var secRids []rel.RowID
			if err := tx.Scan(side.secondary, func(rid rel.RowID, vals []rel.Value) bool {
				if lids[vals[secVALID].Int()] {
					secRids = append(secRids, rid)
				}
				return true
			}); err != nil {
				return err
			}
			for _, rid := range secRids {
				if _, err := tx.Delete(side.secondary, rid); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AddEdge implements blueprints.Graph: insert into EA plus both hash
// adjacency sides.
func (s *Store) AddEdge(id int64, out, in int64, label string, attrs map[string]any) error {
	return s.write(BatchAddEdge(id, out, in, label, attrs))
}

// addEdgeTx inserts an edge (EA plus both hash-adjacency sides) under a
// full-footprint transaction.
func (s *Store) addEdgeTx(tx *rel.Txn, rec wal.Record) error {
	doc, err := sqljson.Parse(rec.Doc)
	if err != nil {
		return err
	}
	id, out, in, label := rec.ID, rec.Out, rec.In, rec.Label
	if id < 0 {
		return fmt.Errorf("core: edge ids must be non-negative")
	}
	for _, v := range []int64{out, in} {
		if !vertexLiveTx(tx, v) {
			return fmt.Errorf("%w: vertex %d", blueprints.ErrNotFound, v)
		}
	}
	if _, _, ok := edgeTx(tx, id); ok {
		return fmt.Errorf("%w: edge %d", blueprints.ErrExists, id)
	}
	if _, err := tx.Insert(TableEA, []rel.Value{
		rel.NewInt(id), rel.NewInt(out), rel.NewInt(in), rel.NewString(label), rel.NewJSON(doc),
	}); err != nil {
		return err
	}
	if err := s.addAdjacent(tx, true, out, id, label, in); err != nil {
		return err
	}
	return s.addAdjacent(tx, false, in, id, label, out)
}

func vertexLiveTx(tx *rel.Txn, id int64) bool {
	found := false
	_ = tx.Probe(TableVA, IndexVAPK, []rel.Value{rel.NewInt(id)}, func(rid rel.RowID, vals []rel.Value) bool {
		found = true
		return false
	})
	return found
}

type adjRow struct {
	rid  rel.RowID
	vals []rel.Value
}

func adjRowsTx(tx *rel.Txn, primary, index string, vid int64) ([]adjRow, error) {
	var rows []adjRow
	err := tx.Probe(primary, index, []rel.Value{rel.NewInt(vid)}, func(rid rel.RowID, vals []rel.Value) bool {
		// No copy: the transaction holds the exclusive lock and all
		// mutation paths copy-on-write before calling Update.
		rows = append(rows, adjRow{rid: rid, vals: vals})
		return true
	})
	return rows, err
}

func (s *Store) sideTables(outgoing bool) (primary, secondary, index string, cols int, colFor func(string) int) {
	if outgoing {
		return TableOPA, TableOSA, IndexOPAVID, s.outCols, s.OutColumnFor
	}
	return TableIPA, TableISA, IndexIPAVID, s.inCols, s.InColumnFor
}

// addAdjacent places one new edge into the primary/secondary hash tables
// for one side of the edge.
func (s *Store) addAdjacent(tx *rel.Txn, outgoing bool, vid, eid int64, label string, other int64) error {
	primary, secondary, index, cols, colFor := s.sideTables(outgoing)
	col := colFor(label)
	rows, err := adjRowsTx(tx, primary, index, vid)
	if err != nil {
		return err
	}
	// Case 1: the label already occupies its cell somewhere.
	for _, row := range rows {
		lbl := row.vals[adjLBL(col)]
		if lbl.IsNull() || lbl.Str() != label {
			continue
		}
		if !row.vals[adjEID(col)].IsNull() {
			// Single value -> migrate to the secondary table.
			lid := s.allocLID()
			oldEID := row.vals[adjEID(col)]
			oldVal := row.vals[adjVAL(col)]
			if _, err := tx.Insert(secondary, []rel.Value{rel.NewInt(lid), oldEID, oldVal}); err != nil {
				return err
			}
			if _, err := tx.Insert(secondary, []rel.Value{rel.NewInt(lid), rel.NewInt(eid), rel.NewInt(other)}); err != nil {
				return err
			}
			updated := append([]rel.Value(nil), row.vals...)
			updated[adjEID(col)] = rel.Null
			updated[adjVAL(col)] = rel.NewInt(lid)
			return tx.Update(primary, row.rid, updated)
		}
		// Already multi-valued: append.
		lid := row.vals[adjVAL(col)].Int()
		_, err := tx.Insert(secondary, []rel.Value{rel.NewInt(lid), rel.NewInt(eid), rel.NewInt(other)})
		return err
	}
	// Case 2: a free cell in an existing row.
	for _, row := range rows {
		if !row.vals[adjLBL(col)].IsNull() {
			continue
		}
		updated := append([]rel.Value(nil), row.vals...)
		updated[adjEID(col)] = rel.NewInt(eid)
		updated[adjLBL(col)] = rel.NewString(label)
		updated[adjVAL(col)] = rel.NewInt(other)
		return tx.Update(primary, row.rid, updated)
	}
	// Case 3: a fresh row. It is a spill row when rows already exist.
	spill := int64(0)
	if len(rows) > 0 {
		spill = 1
	}
	fresh := make([]rel.Value, 2+3*cols)
	fresh[adjVID] = rel.NewInt(vid)
	fresh[adjSPILL] = rel.NewInt(spill)
	for k := 0; k < cols; k++ {
		fresh[adjEID(k)] = rel.Null
		fresh[adjLBL(k)] = rel.Null
		fresh[adjVAL(k)] = rel.Null
	}
	fresh[adjEID(col)] = rel.NewInt(eid)
	fresh[adjLBL(col)] = rel.NewString(label)
	fresh[adjVAL(col)] = rel.NewInt(other)
	if _, err := tx.Insert(primary, fresh); err != nil {
		return err
	}
	if spill == 1 {
		for _, row := range rows {
			if row.vals[adjSPILL].Int() == 0 {
				updated := append([]rel.Value(nil), row.vals...)
				updated[adjSPILL] = rel.NewInt(1)
				if err := tx.Update(primary, row.rid, updated); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RemoveEdge implements blueprints.Graph.
func (s *Store) RemoveEdge(id int64) error {
	return s.write(BatchRemoveEdge(id))
}

// removeEdgeTx deletes an edge from EA and both adjacency sides under a
// full-footprint transaction.
func (s *Store) removeEdgeTx(tx *rel.Txn, id int64) error {
	rec, rid, ok := edgeTx(tx, id)
	if !ok {
		return fmt.Errorf("%w: edge %d", blueprints.ErrNotFound, id)
	}
	if _, err := tx.Delete(TableEA, rid); err != nil {
		return err
	}
	if err := s.removeAdjacent(tx, true, rec.Out, id, rec.Label); err != nil {
		return err
	}
	return s.removeAdjacent(tx, false, rec.In, id, rec.Label)
}

func edgeTx(tx *rel.Txn, id int64) (blueprints.EdgeRec, rel.RowID, bool) {
	var rec blueprints.EdgeRec
	var rid rel.RowID
	found := false
	_ = tx.Probe(TableEA, IndexEAPK, []rel.Value{rel.NewInt(id)}, func(r rel.RowID, vals []rel.Value) bool {
		rec = edgeRec(vals)
		rid = r
		found = true
		return false
	})
	return rec, rid, found
}

// removeAdjacent undoes addAdjacent for one side.
func (s *Store) removeAdjacent(tx *rel.Txn, outgoing bool, vid, eid int64, label string) error {
	primary, secondary, index, _, colFor := s.sideTables(outgoing)
	col := colFor(label)
	rows, err := adjRowsTx(tx, primary, index, vid)
	if err != nil {
		return err
	}
	secIndex := IndexOSAVALID
	if !outgoing {
		secIndex = IndexISAVALID
	}
	for _, row := range rows {
		lbl := row.vals[adjLBL(col)]
		if lbl.IsNull() || lbl.Str() != label {
			continue
		}
		if !row.vals[adjEID(col)].IsNull() {
			if row.vals[adjEID(col)].Int() != eid {
				continue
			}
			updated := append([]rel.Value(nil), row.vals...)
			updated[adjEID(col)] = rel.Null
			updated[adjLBL(col)] = rel.Null
			updated[adjVAL(col)] = rel.Null
			return tx.Update(primary, row.rid, updated)
		}
		// Multi-valued: remove the matching secondary row by its exact
		// (lid, eid) key, then check emptiness with an early-stopping
		// prefix probe. The secondary index is hashed on the list id
		// (DESIGN §20): the first probe walks the list's entries in the
		// index's own arrays, comparing EID words, and reads only the
		// matching row — a scan of the rows here once dominated
		// LinkBench's delete_link at scale.
		lid := row.vals[adjVAL(col)].Int()
		var target rel.RowID
		found := false
		if err := tx.Probe(secondary, secIndex, []rel.Value{rel.NewInt(lid), rel.NewInt(eid)}, func(r rel.RowID, vals []rel.Value) bool {
			target = r
			found = true
			return false
		}); err != nil {
			return err
		}
		if !found {
			continue
		}
		if _, err := tx.Delete(secondary, target); err != nil {
			return err
		}
		empty := true
		if err := tx.Probe(secondary, secIndex, []rel.Value{rel.NewInt(lid)}, func(rel.RowID, []rel.Value) bool {
			empty = false
			return false
		}); err != nil {
			return err
		}
		if empty {
			updated := append([]rel.Value(nil), row.vals...)
			updated[adjEID(col)] = rel.Null
			updated[adjLBL(col)] = rel.Null
			updated[adjVAL(col)] = rel.Null
			return tx.Update(primary, row.rid, updated)
		}
		return nil
	}
	return nil
}

// RemoveVertex implements blueprints.Graph with the negative-id soft
// delete (paper Section 4.5.2). In DeleteClean mode it also cleans the
// neighbors' adjacency entries; in DeletePaperSoft mode it only negates
// ids and drops EA rows, as in the paper.
func (s *Store) RemoveVertex(id int64) error {
	return s.write(BatchRemoveVertex(id))
}

// removeVertexTx soft-deletes a vertex under a full-footprint
// transaction: EA rows of incident edges are dropped (and, in DeleteClean
// mode, the other endpoints' adjacency entries cleaned), then the
// vertex's own VA and adjacency ids are negated.
func (s *Store) removeVertexTx(tx *rel.Txn, id int64) error {
	// Locate the vertex row.
	var vaRID rel.RowID
	var vaVals []rel.Value
	found := false
	_ = tx.Probe(TableVA, IndexVAPK, []rel.Value{rel.NewInt(id)}, func(rid rel.RowID, vals []rel.Value) bool {
		vaRID, vaVals, found = rid, append([]rel.Value(nil), vals...), true
		return false
	})
	if !found {
		return fmt.Errorf("%w: vertex %d", blueprints.ErrNotFound, id)
	}

	// Collect incident edges from EA.
	var incident []struct {
		rec blueprints.EdgeRec
		rid rel.RowID
	}
	collect := func(index string) error {
		return tx.Probe(TableEA, index, []rel.Value{rel.NewInt(id)}, func(rid rel.RowID, vals []rel.Value) bool {
			incident = append(incident, struct {
				rec blueprints.EdgeRec
				rid rel.RowID
			}{
				rec: edgeRec(vals),
				rid: rid,
			})
			return true
		})
	}
	if err := collect(IndexEAInLbl); err != nil {
		return err
	}
	if err := collect(IndexEAOutLbl); err != nil {
		return err
	}
	seen := map[int64]bool{}
	for _, e := range incident {
		if seen[e.rec.ID] {
			continue // self-loops appear under both indexes
		}
		seen[e.rec.ID] = true
		if _, err := tx.Delete(TableEA, e.rid); err != nil {
			return err
		}
		if s.opts.DeleteMode == DeleteClean {
			// Remove the entry from the *other* endpoint's adjacency. The
			// deleted vertex's own rows are handled by negation below.
			if e.rec.Out == id && e.rec.In != id {
				if err := s.removeAdjacent(tx, false, e.rec.In, e.rec.ID, e.rec.Label); err != nil {
					return err
				}
			}
			if e.rec.In == id && e.rec.Out != id {
				if err := s.removeAdjacent(tx, true, e.rec.Out, e.rec.ID, e.rec.Label); err != nil {
					return err
				}
			}
		}
	}

	// Negate ids: VA plus both hash adjacency tables (the paper's "fast"
	// part: no row deletions, just id flips).
	neg := -id - 1
	updatedVA := append([]rel.Value(nil), vaVals...)
	updatedVA[vaVID] = rel.NewInt(neg)
	if err := tx.Update(TableVA, vaRID, updatedVA); err != nil {
		return err
	}
	for _, side := range []struct {
		primary, index string
	}{{TableOPA, IndexOPAVID}, {TableIPA, IndexIPAVID}} {
		rows, err := adjRowsTx(tx, side.primary, side.index, id)
		if err != nil {
			return err
		}
		for _, row := range rows {
			updated := append([]rel.Value(nil), row.vals...)
			updated[adjVID] = rel.NewInt(neg)
			if err := tx.Update(side.primary, row.rid, updated); err != nil {
				return err
			}
		}
	}
	return nil
}

// Vacuum physically removes rows left behind by soft deletes: negated VA
// and adjacency rows, plus (in DeletePaperSoft mode) dangling adjacency
// cells that still reference deleted vertices. The paper leaves this
// "off-line cleanup process" unimplemented; we provide it.
func (s *Store) Vacuum() (removed int, err error) {
	w := s.startWrite("Vacuum")
	vacT := time.Now()
	defer func() {
		s.tracer.ObserveVacuum(time.Since(vacT))
		s.events.Load().RecordDur("vacuum", fmt.Sprintf("removed=%d", removed), time.Since(vacT), err)
		w.done(err)
	}()
	tx := s.fpAll.Begin()
	defer tx.Rollback()

	// Gather deleted vertex ids from VA.
	deleted := map[int64]bool{}
	var deadVA []rel.RowID
	if err := tx.Scan(TableVA, func(rid rel.RowID, vals []rel.Value) bool {
		if vals[vaVID].Int() < 0 {
			deleted[-vals[vaVID].Int()-1] = true
			deadVA = append(deadVA, rid)
		}
		return true
	}); err != nil {
		return 0, err
	}
	for _, rid := range deadVA {
		if _, err := tx.Delete(TableVA, rid); err != nil {
			return removed, err
		}
		removed++
	}

	for _, side := range []struct {
		primary   string
		secondary string
		cols      int
	}{
		{TableOPA, TableOSA, s.outCols},
		{TableIPA, TableISA, s.inCols},
	} {
		// Count, per lid, the secondary rows that will survive the removal
		// of dead-target rows: a live lid cell whose list would empty out
		// must be cleared along with its remaining rows.
		survivors := map[int64]int{}
		if err := tx.Scan(side.secondary, func(rid rel.RowID, vals []rel.Value) bool {
			if !deleted[vals[secVAL].Int()] {
				survivors[vals[secVALID].Int()]++
			}
			return true
		}); err != nil {
			return removed, err
		}

		type change struct {
			rid  rel.RowID
			vals []rel.Value
			drop bool
		}
		var changes []change
		dropLids := map[int64]bool{}
		if err := tx.Scan(side.primary, func(rid rel.RowID, vals []rel.Value) bool {
			if vals[adjVID].Int() < 0 {
				// Dropping the row: the secondary lists its lid cells own
				// go with it, whatever their rows point at.
				for k := 0; k < side.cols; k++ {
					if vals[adjLBL(k)].IsNull() || !vals[adjEID(k)].IsNull() {
						continue
					}
					if val := vals[adjVAL(k)]; !val.IsNull() && val.Int() < 0 {
						dropLids[val.Int()] = true
					}
				}
				changes = append(changes, change{rid: rid, drop: true})
				return true
			}
			dirty := false
			updated := vals
			clearCell := func(k int) {
				if !dirty {
					updated = append([]rel.Value(nil), vals...)
					dirty = true
				}
				updated[adjEID(k)] = rel.Null
				updated[adjLBL(k)] = rel.Null
				updated[adjVAL(k)] = rel.Null
			}
			for k := 0; k < side.cols; k++ {
				val := vals[adjVAL(k)]
				if val.IsNull() {
					continue
				}
				if !vals[adjEID(k)].IsNull() {
					// Single-valued cell: clear if the target is deleted.
					if deleted[val.Int()] {
						clearCell(k)
					}
					continue
				}
				if val.Int() < 0 && survivors[val.Int()] == 0 {
					// Multi-valued cell whose whole list points at deleted
					// vertices.
					dropLids[val.Int()] = true
					clearCell(k)
				}
			}
			if dirty {
				changes = append(changes, change{rid: rid, vals: updated})
			}
			return true
		}); err != nil {
			return removed, err
		}
		for _, ch := range changes {
			if ch.drop {
				if _, err := tx.Delete(side.primary, ch.rid); err != nil {
					return removed, err
				}
				removed++
				continue
			}
			if err := tx.Update(side.primary, ch.rid, ch.vals); err != nil {
				return removed, err
			}
		}
		// Secondary rows pointing at deleted vertices, plus whole lists
		// owned by dropped rows or cleared cells.
		var deadSec []rel.RowID
		if err := tx.Scan(side.secondary, func(rid rel.RowID, vals []rel.Value) bool {
			if deleted[vals[secVAL].Int()] || dropLids[vals[secVALID].Int()] {
				deadSec = append(deadSec, rid)
			}
			return true
		}); err != nil {
			return removed, err
		}
		for _, rid := range deadSec {
			if _, err := tx.Delete(side.secondary, rid); err != nil {
				return removed, err
			}
			removed++
		}
	}
	if err := s.logAppend(w, wal.Record{Op: wal.OpVacuum}); err != nil {
		return 0, err // rolled back
	}
	tx.Commit()
	return removed, s.logCommit(w)
}

// valDoc wraps an attribute value for its WAL record: Set*Attr values can
// be any JSON type, so they travel inside a {"v": ...} envelope.
func valDoc(val any) string {
	return sqljson.FromMap(map[string]any{"v": val}).String()
}

// SetVertexAttr implements blueprints.Graph.
func (s *Store) SetVertexAttr(id int64, key string, val any) error {
	return s.write(BatchSetVertexAttr(id, key, val))
}

// RemoveVertexAttr implements blueprints.Graph.
func (s *Store) RemoveVertexAttr(id int64, key string) error {
	return s.write(BatchRemoveVertexAttr(id, key))
}

// SetEdgeAttr implements blueprints.Graph.
func (s *Store) SetEdgeAttr(id int64, key string, val any) error {
	return s.write(BatchSetEdgeAttr(id, key, val))
}

// RemoveEdgeAttr implements blueprints.Graph.
func (s *Store) RemoveEdgeAttr(id int64, key string) error {
	return s.write(BatchRemoveEdgeAttr(id, key))
}

// mutateDocTx sets (set) or removes the record's key in the attribute
// document of a vertex (table VA) or an edge (table EA). A set's value is
// the "v" field of the record's {"v": ...} envelope.
func mutateDocTx(tx *rel.Txn, table string, rec wal.Record, set bool) error {
	var val any
	if set {
		env, err := sqljson.Parse(rec.Doc)
		if err != nil {
			return err
		}
		val, _ = env.Get("v")
	}
	index, col, kind := IndexVAPK, vaATTR, "vertex"
	if table == TableEA {
		index, col, kind = IndexEAPK, eaATTR, "edge"
	}
	var rid rel.RowID
	var vals []rel.Value
	found := false
	_ = tx.Probe(table, index, []rel.Value{rel.NewInt(rec.ID)}, func(r rel.RowID, v []rel.Value) bool {
		rid, vals, found = r, append([]rel.Value(nil), v...), true
		return false
	})
	if !found {
		return fmt.Errorf("%w: %s %d", blueprints.ErrNotFound, kind, rec.ID)
	}
	doc := vals[col].JSON().Clone()
	if set {
		doc.Set(rec.Key, val)
	} else {
		doc.Delete(rec.Key)
	}
	vals[col] = rel.NewJSON(doc)
	return tx.Update(table, rid, vals)
}
