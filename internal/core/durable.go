package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core/coloring"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/stats"
	"sqlgraph/internal/wal"
)

// Durable stores log *logical* mutations: write (batch.go) appends each
// record as the last action before the rel.Txn commits (rollback paths
// therefore never log), then flushes after the commit. Recovery rebuilds
// the snapshot's tables and hands the log tail to the same write, which
// reconstructs every redundant representation (EA + both hash-adjacency
// sides) exactly as the original execution did.
//
// Durability covers the graph mutation API. A transaction opened
// straight on Store.Catalog bypasses the log and is not replayed.

// defaultSnapshotEvery is the checkpoint cadence when Options.SnapshotEvery
// is zero.
const defaultSnapshotEvery = 4096

// openDurable recovers (or initializes) a durable store in opts.Dir.
func openDurable(opts Options) (*Store, error) {
	l, st, err := wal.Open(opts.Dir)
	if err != nil {
		return nil, err
	}
	s, err := rebuildStore(st, opts)
	if err != nil {
		l.Close()
		return nil, err
	}
	s.attachWAL(l)
	if st.Snapshot == nil {
		// Fresh directory: checkpoint immediately so the structural
		// options (column widths, coloring, delete mode, assignments) are
		// pinned on disk and later opens / fsck need no caller options.
		if err := s.Checkpoint(); err != nil {
			l.Close()
			return nil, err
		}
	}
	return s, nil
}

// loadDurable bulk-loads into a fresh durable directory.
func loadDurable(src blueprints.Graph, opts Options) (*Store, error) {
	l, st, err := wal.Open(opts.Dir)
	if err != nil {
		return nil, err
	}
	if st.Snapshot != nil || len(st.Records) != 0 {
		l.Close()
		return nil, fmt.Errorf("core: load: directory %s already holds a store", opts.Dir)
	}
	memOpts := opts
	memOpts.Dir = ""
	s, err := loadMem(src, memOpts)
	if err != nil {
		l.Close()
		return nil, err
	}
	s.opts.Dir = opts.Dir
	s.opts.SnapshotEvery = opts.SnapshotEvery
	s.attachWAL(l)
	// Checkpoint the bulk-loaded state; this also persists the greedy
	// coloring built by the analysis pass.
	if err := s.Checkpoint(); err != nil {
		l.Close()
		return nil, err
	}
	return s, nil
}

// rebuildStore reconstructs an in-memory store from recovered state: the
// snapshot's rows verbatim, then the log tail replayed through write.
// The store has no WAL attached yet, so replay does not log.
func rebuildStore(st *wal.RecoveredState, opts Options) (*Store, error) {
	var s *Store
	if snap := st.Snapshot; snap != nil {
		// The snapshot pins the structural options.
		opts.OutCols = snap.OutCols
		opts.InCols = snap.InCols
		opts.Coloring = ColoringMode(snap.Coloring)
		opts.DeleteMode = DeleteMode(snap.DeleteMode)
		var err error
		if s, err = newMemStore(opts); err != nil {
			return nil, err
		}
		s.outAssign = assignmentFromSnapshot(snap.OutCols, snap.OutAssign)
		s.inAssign = assignmentFromSnapshot(snap.InCols, snap.InAssign)
		s.nextLID = snap.NextLID
		if err := s.restoreTables(snap.Tables); err != nil {
			return nil, err
		}
	} else {
		var err error
		if s, err = newMemStore(opts); err != nil {
			return nil, err
		}
	}
	for _, rec := range st.Records {
		if err := s.replay(rec); err != nil {
			return nil, fmt.Errorf("%w: replaying LSN %d (%s): %v", wal.ErrCorrupt, rec.LSN, rec.Op, err)
		}
	}
	// Snapshot restore and replay both commit through observed
	// transactions, so counters are already exact; the rebuild populates
	// the histograms the snapshot does not carry.
	if err := s.optStats.RebuildAll(); err != nil {
		return nil, err
	}
	return s, nil
}

func assignmentFromSnapshot(cols int, byLabel map[string]int) *coloring.Assignment {
	m := make(map[string]int, len(byLabel))
	for k, v := range byLabel {
		m[k] = v
	}
	return &coloring.Assignment{Columns: cols, MaxCols: cols, ByLabel: m}
}

// restoreTables bulk-inserts the snapshot's rows.
func (s *Store) restoreTables(tables map[string][][]rel.Value) error {
	tx := s.fpAll.Begin()
	defer tx.Rollback()
	for name, rows := range tables {
		found := false
		for _, t := range writeTables {
			if t == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: snapshot names unknown table %q", name)
		}
		for _, row := range rows {
			if _, err := tx.Insert(name, row); err != nil {
				return fmt.Errorf("core: restoring %s: %w", name, err)
			}
		}
	}
	tx.Commit()
	return nil
}

// replay applies one logged record: Vacuum runs as itself, every other
// op through write, the path that applied it on the primary.
func (s *Store) replay(rec wal.Record) error {
	if rec.Op == wal.OpVacuum {
		_, err := s.Vacuum()
		return err
	}
	return s.write(rec)
}

// attachWAL binds the log to the store: physical fsyncs are charged to
// the WAL counters (one observation per flush, however many commits it
// covered).
func (s *Store) attachWAL(l *wal.Log) {
	s.wal = l
	s.cpIdle = sync.NewCond(&s.cpMu)
	tracer := s.tracer
	l.SetSyncObserver(func(d time.Duration, records int) {
		tracer.ObserveWALFsync(d)
		tracer.ObserveWALFlush(records)
	})
}

// logAppend buffers the record for the mutation the caller is about to
// commit. It must be the last fallible step before tx.Commit: a failure
// rolls the transaction back, and after success nothing can prevent the
// commit, so the log holds exactly the committed operations. The append
// is timed into the write trace and the WAL counters; the assigned LSN is
// kept on the writeOp for logCommit's durability wait.
func (s *Store) logAppend(w *writeOp, rec wal.Record) error {
	if s.wal == nil {
		return nil
	}
	t := time.Now()
	lsn, err := s.wal.Append(rec)
	d := time.Since(t)
	s.tracer.ObserveWALAppend(d)
	w.observe("wal-append", t, d)
	if err == nil && w != nil {
		w.lsn = lsn
	}
	return err
}

// logCommit makes the just-committed mutation durable — it blocks until
// the operation's LSN is covered by a flush. Writers that append while a
// flush runs share the next write+fsync; the physical sync itself is
// charged to the WAL counters by the log's sync observer, so
// fsyncs-per-mutation is directly readable from WriteStats. The wait appears in the write trace
// as "wal-fsync", plus a "wal-batch" span recording how many records the
// covering flush amortized over. A crash before the flush loses only the
// tail of *committed* operations — the recovered state is still a
// consistent prefix. Afterwards a checkpoint is started in the background
// if the log has grown past the snapshot cadence.
func (s *Store) logCommit(w *writeOp) error {
	if s.wal == nil {
		return nil
	}
	var lsn uint64
	if w != nil {
		lsn = w.lsn
	}
	t := time.Now()
	batch, err := s.wal.Commit(lsn)
	d := time.Since(t)
	w.observe("wal-fsync", t, d)
	if err != nil {
		return err
	}
	w.observeDetail("wal-batch", fmt.Sprintf("records=%d", batch), t, d)
	s.maybeSnapshot()
	return nil
}

// maxLogFactor bounds recovery time: a writer whose commit finds the log
// past this many times the snapshot cadence waits for the checkpoint in
// flight instead of letting the log grow further.
const maxLogFactor = 4

// maybeSnapshot starts a checkpoint on its own goroutine once the log
// holds SnapshotEvery records the snapshot does not cover. The writer
// that crosses the threshold does not wait for it, at most one runs at a
// time however many writers cross together, and a failure is journaled
// and counted, not returned: the caller's mutation is already durable.
func (s *Store) maybeSnapshot() {
	every := s.opts.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	if every < 0 || s.wal.RecordsSinceSnapshot() < every {
		return
	}
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	if !s.cpRunning && !s.closed {
		s.cpRunning = true
		go func() {
			_ = s.checkpoint() // journaled and counted there
			s.cpMu.Lock()
			s.cpRunning = false
			s.cpIdle.Broadcast()
			s.cpMu.Unlock()
		}()
	}
	for s.cpRunning && s.wal.RecordsSinceSnapshot() >= maxLogFactor*every {
		s.cpIdle.Wait()
	}
}

// WaitCheckpointIdle returns once no background checkpoint is in flight.
func (s *Store) WaitCheckpointIdle() {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	for s.cpRunning {
		s.cpIdle.Wait()
	}
}

// Checkpoint writes a snapshot of the whole catalog and drops the log
// records it covers, synchronously. It shares everything but the trigger
// with the automatic checkpoints, waiting its turn behind one in flight.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return fmt.Errorf("core: checkpoint: store is not durable")
	}
	return s.checkpoint()
}

// snapPoint is the consistent triple a dump starts from — catalog
// version, log position, list-id allocator — plus each table's row count
// at that version, which the snapshot format wants ahead of the rows.
type snapPoint struct {
	ver     rel.Version
	mark    wal.Mark
	nextLID int64
	rows    []int // by writeTables index
}

// pinSnapshot takes the triple under read locks on every table, held only
// while it reads a few counters. Appends happen inside write transactions
// as their last step before commit, so with no write transaction open the
// log position covers exactly the committed state, which is the state at
// the pinned version and has as many rows per table as are live now. The
// caller unpins p.ver when its dump is done.
func (s *Store) pinSnapshot() snapPoint {
	tx := s.fpReadAll.Begin()
	defer tx.Rollback()
	p := snapPoint{ver: s.cat.Pin(), mark: s.wal.Mark(), rows: make([]int, len(writeTables))}
	s.mu.Lock()
	p.nextLID = s.nextLID
	s.mu.Unlock()
	for i, name := range writeTables {
		t, _ := s.cat.Table(name)
		p.rows[i] = t.LiveLocked()
	}
	return p
}

// dumpChunk is how many row slots one read-lock acquisition of the dump
// covers. Under the lock only the slots' row images are gathered (tens of
// microseconds); they are immutable once committed and kept alive by the
// pin, so encoding them happens with no lock held.
const dumpChunk = 4096

// dumpAt streams the catalog as of p into w in snapshot format v1 and
// returns how many rows and bytes that took. Writers run meanwhile: rows they add, change or
// delete are invisible at p.ver, and the pin keeps the images and slots
// visible there from being reclaimed. When hist is non-nil the values of
// the histogram columns are collected from the same scan.
func (s *Store) dumpAt(w io.Writer, p snapPoint, hist *stats.HistBuilder) (rows, size int64, err error) {
	sw := wal.NewSnapshotWriter(w, &wal.Snapshot{
		LastLSN:    p.mark.LSN,
		OutCols:    s.outCols,
		InCols:     s.inCols,
		Coloring:   int(s.opts.Coloring),
		DeleteMode: int(s.opts.DeleteMode),
		NextLID:    p.nextLID,
		OutAssign:  s.outAssign.ByLabel,
		InAssign:   s.inAssign.ByLabel,
	}, len(writeTables))
	batch := make([][]rel.Value, 0, dumpChunk)
	for i, name := range writeTables { // sorted, so equal stores dump equal bytes
		t, _ := s.cat.Table(name)
		sw.BeginTable(name, p.rows[i])
		for lo, slots := 0, 1; lo < slots; lo += dumpChunk {
			batch = batch[:0]
			t.RLock()
			slots = t.Slots()
			t.ScanSlotsAt(lo, lo+dumpChunk, p.ver, func(_ rel.RowID, vals []rel.Value) bool {
				batch = append(batch, vals)
				return true
			})
			t.RUnlock()
			for _, row := range batch {
				if err := sw.WriteRow(row); err != nil {
					return 0, 0, err
				}
				hist.Add(name, row)
			}
			// A log closed or killed under the dump has no use for it.
			if err := s.wal.Err(); err != nil {
				return 0, 0, err
			}
		}
	}
	size, err = sw.Close()
	return sw.Rows(), size, err
}

// checkpoint is the one checkpoint path. Writers are excluded twice, for
// microseconds each: while pinSnapshot reads its counters, and while the
// log installs the finished snapshot and swaps its file for the records
// appended since (wal.Log.WriteSnapshot). Everything between — the scan
// at the pinned version, encoding, writing and fsyncing the temp file,
// building histograms — runs beside them.
func (s *Store) checkpoint() (err error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	w := s.startWrite("Checkpoint")
	cpT := time.Now()
	s.events.Load().Record("checkpoint-start", fmt.Sprintf("lsn=%d", s.wal.LastLSN()))
	var p snapPoint
	var st wal.SnapshotStats
	var rows, size int64
	var pinD time.Duration
	defer func() {
		excl := pinD + st.Install
		s.tracer.ObserveCheckpoint(time.Since(cpT), excl, err)
		s.events.Load().RecordDur("checkpoint", fmt.Sprintf("lsn=%d rows=%d bytes=%d tail_records=%d exclusive_us=%d",
			p.mark.LSN, rows, size, st.TailRecords, excl.Microseconds()), time.Since(cpT), err)
		w.done(err)
	}()

	pinT := time.Now()
	p = s.pinSnapshot()
	pinD = time.Since(pinT)
	defer s.cat.Unpin(p.ver)

	// Checkpoint is the histogram refresh cadence: equi-height histograms
	// are rebuild-only, and this scan sees every value anyway. Counters
	// and sketches are maintained per commit and need no refresh.
	hist := s.optStats.NewHistBuilder()
	wrT := time.Now()
	st, err = s.wal.WriteSnapshot(p.mark, func(f io.Writer) (derr error) {
		rows, size, derr = s.dumpAt(f, p, hist)
		return derr
	})
	w.observe("dump", wrT, st.Dump)
	w.observe("snapshot-write", wrT.Add(st.Dump), time.Since(wrT)-st.Dump)
	if err != nil {
		return err
	}
	hist.Install()
	return nil
}

// Close waits for a checkpoint in flight, then flushes and closes the
// WAL. It is idempotent; in-memory stores close trivially.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	s.cpMu.Lock()
	s.closed = true // no checkpoint starts from here on
	s.cpMu.Unlock()
	s.WaitCheckpointIdle()
	return s.wal.Close()
}

// WAL exposes the log for the fault-injection tests.
func (s *Store) WAL() *wal.Log { return s.wal }

// Fsck verifies a durable store directory offline: it recovers the state
// exactly as Open would (failing on mid-log corruption) and runs the full
// invariant check on the result.
func Fsck(dir string) ([]Violation, error) {
	st, err := wal.Recover(dir)
	if err != nil {
		return nil, err
	}
	s, err := rebuildStore(st, Options{}.withDefaults())
	if err != nil {
		return nil, err
	}
	return Check(s), nil
}
