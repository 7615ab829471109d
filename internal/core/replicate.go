package core

// Replica apply path. A follower hands the primary's logical WAL records
// to the same write the primary applied them with, so every redundant
// representation (EA + both hash-adjacency sides) and every stored
// document is rebuilt identically. Because each mutation logs exactly one record, the
// follower's own WAL assigns the same LSNs the primary did — the
// follower's LastLSN *is* its applied-primary-LSN, persisted atomically
// with the data by the ordinary durability machinery. Exactly-once
// across crash/restart therefore needs no extra bookkeeping: recovery
// restores the store together with the LSN high-water mark, and
// ApplyReplicated skips anything at or below it.

import (
	"bytes"
	"errors"
	"fmt"

	"sqlgraph/internal/wal"
)

// ErrReplicaGap reports that a replicated record cannot be applied in
// order: the stream skipped ahead of the follower's next expected LSN
// (or local apply diverged from the primary's numbering). The follower
// must re-bootstrap from a primary snapshot.
var ErrReplicaGap = errors.New("core: replication stream out of sequence")

// Dir returns the store's durable directory ("" for in-memory stores).
func (s *Store) Dir() string { return s.opts.Dir }

// AppliedLSN reports the LSN of the last mutation this store holds — on
// a primary its own log position, on a follower the last primary record
// applied. 0 for in-memory stores.
func (s *Store) AppliedLSN() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.LastLSN()
}

// ApplyReplicated applies one record received from a primary's WAL
// stream. Records at or below the applied LSN are skipped (idempotent
// re-delivery after reconnect or crash replay), the next-in-sequence
// record runs through write and is logged locally, and
// anything further ahead is a gap. Returns whether the record changed
// the store.
//
// The caller (one replicator goroutine) is the store's only writer;
// concurrent snapshot readers are isolated by MVCC as usual.
func (s *Store) ApplyReplicated(rec wal.Record) (bool, error) {
	if s.wal == nil {
		return false, fmt.Errorf("core: replica apply requires a durable store")
	}
	last := s.wal.LastLSN()
	if rec.LSN <= last {
		return false, nil // already applied — exactly-once keyed on LSN
	}
	if rec.LSN != last+1 {
		return false, fmt.Errorf("%w: have LSN %d, stream delivered %d", ErrReplicaGap, last, rec.LSN)
	}
	if err := s.replay(rec); err != nil {
		return false, fmt.Errorf("core: applying replicated LSN %d (%s): %w", rec.LSN, rec.Op, err)
	}
	// write logged the record locally; if the locally assigned
	// LSN differs from the primary's, the one-record-per-mutation
	// invariant broke and resume positions would lie. Fail loudly.
	if got := s.wal.LastLSN(); got != rec.LSN {
		return true, fmt.Errorf("%w: applied primary LSN %d but local log is at %d", ErrReplicaGap, rec.LSN, got)
	}
	return true, nil
}

// SnapshotBytes encodes a consistent point-in-time snapshot of the
// store for replica bootstrap, without checkpointing (the primary's log
// is left untouched, so a tail started at LastLSN+1 has no gap). It is
// the checkpoint's pinned dump streamed into memory instead of a file,
// so it runs beside the writers — and beside a checkpoint — too. The
// returned LSN is the snapshot's high-water mark.
func (s *Store) SnapshotBytes() ([]byte, uint64, error) {
	if s.wal == nil {
		return nil, 0, fmt.Errorf("core: snapshot export requires a durable store")
	}
	p := s.pinSnapshot()
	defer s.cat.Unpin(p.ver)
	var buf bytes.Buffer
	if _, _, err := s.dumpAt(&buf, p, nil); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), p.mark.LSN, nil
}
