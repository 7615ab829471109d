package core

import (
	"errors"
	"fmt"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
	"sqlgraph/internal/wal"
)

// ApplyBatch executes many graph mutations under one writer acquisition
// and one WAL flush (see write). Any failing operation rolls the whole
// batch back (atomic against concurrent readers — they see all of it or
// none of it). On a crash, recovery replays the longest durable prefix of
// the appended records, so a torn batch resurfaces as a consistent
// committed prefix rather than a hole.
//
// Records carry Op and its arguments; LSNs are assigned at append time.
// OpVacuum and OpHeartbeat are not batchable.
func (s *Store) ApplyBatch(recs []wal.Record) error {
	return s.write(recs...)
}

// write is the one mutation path. Every graph write — the per-op
// methods, ApplyBatch, WAL replay at open and ApplyReplicated — reaches
// the store as WAL records applied here: one transaction runs
// applyRecordTx on each record, the records are appended to the log in
// order, and the transaction commits with one durability wait. The
// primary therefore holds exactly what recovery and followers rebuild
// from the same records.
//
// A lone record of an attribute op (or an AddVertex) locks only the
// table it writes; anything else, and every batch, locks all six.
func (s *Store) write(recs ...wal.Record) (err error) {
	if len(recs) == 0 {
		return nil
	}
	name, fp := "ApplyBatch", s.fpAll
	if len(recs) == 1 {
		name = recs[0].Op.String()
		if one, ok := s.fpOne[recs[0].Op]; ok {
			fp = one
		}
	}
	w := s.startWrite(name)
	if len(recs) > 1 {
		w.b.Span().Detail = fmt.Sprintf("ops=%d", len(recs))
	}
	defer func() { w.done(err) }()
	err = s.writeTx(w, fp, recs)
	if errors.Is(err, errWiden) {
		err = s.writeTx(w, s.fpAll, recs)
	}
	return err
}

// writeTx is one attempt of write under footprint fp.
func (s *Store) writeTx(w *writeOp, fp *rel.Footprint, recs []wal.Record) error {
	tx := fp.Begin()
	defer tx.Rollback()
	for i := range recs {
		if err := s.applyRecordTx(tx, recs[i]); err != nil {
			if len(recs) == 1 {
				return err
			}
			return fmt.Errorf("core: batch op %d (%s): %w", i, recs[i].Op, err)
		}
	}
	// Append only after every op succeeded: the appends are the last
	// fallible step before the in-memory commit, so the log never holds
	// records for a rolled-back transaction.
	for i := range recs {
		recs[i].LSN = 0
		if err := s.logAppend(w, recs[i]); err != nil {
			return err
		}
	}
	tx.Commit()
	return s.logCommit(w)
}

// applyRecordTx applies one record's mutation inside an open write
// transaction. The procedure parses the record's document once and
// stores the parsed document, so the tables hold what the log replays: a
// value with no JSON form (NaN, ±Inf) fails the parse and is refused
// before anything is logged.
func (s *Store) applyRecordTx(tx *rel.Txn, rec wal.Record) error {
	switch rec.Op {
	case wal.OpAddVertex:
		return s.addVertexTx(tx, rec.ID, rec.Doc)
	case wal.OpAddEdge:
		return s.addEdgeTx(tx, rec)
	case wal.OpRemoveEdge:
		return s.removeEdgeTx(tx, rec.ID)
	case wal.OpRemoveVertex:
		return s.removeVertexTx(tx, rec.ID)
	case wal.OpSetVertexAttr:
		return mutateDocTx(tx, TableVA, rec, true)
	case wal.OpRemoveVertexAttr:
		return mutateDocTx(tx, TableVA, rec, false)
	case wal.OpSetEdgeAttr:
		return mutateDocTx(tx, TableEA, rec, true)
	case wal.OpRemoveEdgeAttr:
		return mutateDocTx(tx, TableEA, rec, false)
	default:
		return fmt.Errorf("core: op %s is not batchable", rec.Op)
	}
}

// Batch record constructors: the records the per-op methods hand to
// write, and the wire shape shared by POST /batch and the tests.
// Attribute maps are encoded into the record's Doc as canonical JSON, the
// text every path then parses and stores.

// BatchAddVertex builds an OpAddVertex record.
func BatchAddVertex(id int64, attrs map[string]any) wal.Record {
	return wal.Record{Op: wal.OpAddVertex, ID: id, Doc: sqljson.FromMap(attrs).String()}
}

// BatchAddEdge builds an OpAddEdge record.
func BatchAddEdge(id, out, in int64, label string, attrs map[string]any) wal.Record {
	return wal.Record{Op: wal.OpAddEdge, ID: id, Out: out, In: in, Label: label, Doc: sqljson.FromMap(attrs).String()}
}

// BatchRemoveVertex builds an OpRemoveVertex record.
func BatchRemoveVertex(id int64) wal.Record {
	return wal.Record{Op: wal.OpRemoveVertex, ID: id}
}

// BatchRemoveEdge builds an OpRemoveEdge record.
func BatchRemoveEdge(id int64) wal.Record {
	return wal.Record{Op: wal.OpRemoveEdge, ID: id}
}

// BatchSetVertexAttr builds an OpSetVertexAttr record.
func BatchSetVertexAttr(id int64, key string, val any) wal.Record {
	return wal.Record{Op: wal.OpSetVertexAttr, ID: id, Key: key, Doc: valDoc(val)}
}

// BatchRemoveVertexAttr builds an OpRemoveVertexAttr record.
func BatchRemoveVertexAttr(id int64, key string) wal.Record {
	return wal.Record{Op: wal.OpRemoveVertexAttr, ID: id, Key: key}
}

// BatchSetEdgeAttr builds an OpSetEdgeAttr record.
func BatchSetEdgeAttr(id int64, key string, val any) wal.Record {
	return wal.Record{Op: wal.OpSetEdgeAttr, ID: id, Key: key, Doc: valDoc(val)}
}

// BatchRemoveEdgeAttr builds an OpRemoveEdgeAttr record.
func BatchRemoveEdgeAttr(id int64, key string) wal.Record {
	return wal.Record{Op: wal.OpRemoveEdgeAttr, ID: id, Key: key}
}
