package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	logName    = "wal.log"
	logTmpName = "wal.log.tmp"
	snapName   = "snapshot.db"
	tmpName    = "snapshot.db.tmp"

	// maxRecord bounds a single record payload; a frame claiming more is
	// treated as garbage rather than allocated.
	maxRecord = 1 << 28
)

// ErrCorrupt marks unrecoverable log or snapshot damage: an invalid frame
// that is *followed* by data (a torn tail, by contrast, is silently
// truncated).
var ErrCorrupt = errors.New("wal: corrupt")

// WriteHook intercepts physical log writes for fault injection (tests
// only). It receives the bytes about to be written and returns how many of
// them to actually write plus an error to inject after the partial write.
// Returning (len(p), nil) is a no-op.
type WriteHook func(p []byte) (int, error)

// Log is an append-only write-ahead log bound to a directory. Appends are
// buffered; Commit (or Flush) performs the group commit: one write +
// fsync for everything buffered since the last flush. The physical
// write+fsync happens outside the log mutex — the buffer is swapped under
// the lock, so concurrent Appends land in the next batch instead of
// blocking on the disk. Any I/O error is sticky: the log refuses further
// work, like a crashed process would.
type Log struct {
	mu        sync.Mutex
	cond      *sync.Cond // signals durable advancing, flush completion, or a sticky error
	f         *os.File
	dir       string
	buf       []byte
	spare     []byte // recycled buffer; appends land here while a flush is in flight
	pending   int    // records in buf (appended, not yet handed to a flush)
	nextLSN   uint64
	durable   uint64 // highest LSN covered by a completed fsync or snapshot
	snapLSN   uint64 // LastLSN of the latest installed snapshot
	written   int64  // bytes of the current log file handed to flushes so far
	gen       uint64 // bumped each time a checkpoint replaces the log file
	flushing  bool   // a leader owns the swapped-out batch
	lastBatch int    // records covered by the most recently completed flush
	hook      WriteHook
	stageHook func(CheckpointStage) error
	syncObs   func(d time.Duration, records int) // observes each physical fsync
	closed    bool
	err       error
}

// RecoveredState is what Recover reads back from a directory.
type RecoveredState struct {
	// Snapshot is the last durable snapshot, or nil.
	Snapshot *Snapshot
	// Records are the CRC-valid log records not covered by the snapshot
	// (LSN > Snapshot.LastLSN), in LSN order.
	Records []Record
	// TornBytes counts trailing log bytes discarded as a torn final write.
	TornBytes int
	// ValidBytes is the log prefix length that parsed cleanly (the offset
	// an appender should resume at).
	ValidBytes int
	// NextLSN is the LSN the next appended record must carry.
	NextLSN uint64
}

// putFrameHeader fills the 8-byte frame header for a payload.
func putFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
}

type frame struct {
	rec    Record
	offset int
	size   int // frame size including the 8-byte header
}

// scanLog parses a log image. It returns the valid frames, the offset of
// the first byte past them, and the number of trailing bytes dropped as a
// torn write. A frame that fails validation mid-log (valid data after it)
// is corruption and yields an ErrCorrupt-wrapped error instead.
func scanLog(data []byte) (frames []frame, goodOff, torn int, err error) {
	off := 0
	var lastLSN uint64
	for off < len(data) {
		rem := len(data) - off
		if rem < 8 {
			return frames, off, rem, nil // torn frame header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord {
			if n > rem-8 {
				return frames, off, rem, nil // runs past EOF: torn
			}
			return frames, off, 0, fmt.Errorf("%w: implausible frame length %d at offset %d", ErrCorrupt, n, off)
		}
		if n > rem-8 {
			return frames, off, rem, nil // torn frame body
		}
		payload := data[off+8 : off+8+n]
		atEOF := off+8+n == len(data)
		if crc32.ChecksumIEEE(payload) != wantCRC {
			if atEOF {
				return frames, off, rem, nil // torn final frame
			}
			return frames, off, 0, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			if atEOF {
				return frames, off, rem, nil
			}
			return frames, off, 0, fmt.Errorf("%w: %v (offset %d)", ErrCorrupt, derr, off)
		}
		if len(frames) > 0 && rec.LSN <= lastLSN {
			return frames, off, 0, fmt.Errorf("%w: LSN %d at offset %d does not advance past %d", ErrCorrupt, rec.LSN, off, lastLSN)
		}
		lastLSN = rec.LSN
		frames = append(frames, frame{rec: rec, offset: off, size: 8 + n})
		off += 8 + n
	}
	return frames, off, 0, nil
}

// Recover reads a store directory without modifying it: the latest
// snapshot plus the log tail. A torn final record is dropped (TornBytes
// reports how much); an invalid record with valid data after it returns an
// ErrCorrupt-wrapped error.
func Recover(dir string) (*RecoveredState, error) {
	snap, err := readSnapshotFile(filepath.Join(dir, snapName))
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	frames, goodOff, torn, err := scanLog(data)
	if err != nil {
		return nil, err
	}
	st := &RecoveredState{Snapshot: snap, TornBytes: torn, ValidBytes: goodOff}
	var minLSN uint64
	if snap != nil {
		minLSN = snap.LastLSN
	}
	next := minLSN + 1
	stale := 0
	for _, fr := range frames {
		if fr.rec.LSN <= minLSN {
			// Already folded into the snapshot: a crash hit the window
			// between the snapshot rename and the log truncation.
			stale++
			continue
		}
		st.Records = append(st.Records, fr.rec)
		next = fr.rec.LSN + 1
	}
	if stale == len(frames) && stale > 0 {
		// The whole log predates the snapshot; an appender restarts it.
		st.ValidBytes = 0
	}
	st.NextLSN = next
	return st, nil
}

// FrameInfo describes one valid log frame (offsets are used by the
// crash-sweep tests to enumerate write boundaries, and by fsck reporting).
type FrameInfo struct {
	Offset int
	Size   int
	LSN    uint64
	Op     OpKind
}

// ScanFrames lists the valid frames of a log file, ignoring a torn tail.
// Mid-log corruption returns an error.
func ScanFrames(path string) ([]FrameInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	frames, _, _, err := scanLog(data)
	if err != nil {
		return nil, err
	}
	out := make([]FrameInfo, len(frames))
	for i, fr := range frames {
		out[i] = FrameInfo{Offset: fr.offset, Size: fr.size, LSN: fr.rec.LSN, Op: fr.rec.Op}
	}
	return out, nil
}

// Open recovers dir and returns an append-ready log positioned after the
// last valid record. A torn tail is physically truncated; a log whose
// every record is already covered by the snapshot is restarted. Temporary
// files a checkpoint left behind when the process died are removed.
func Open(dir string) (*Log, *RecoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	_ = os.Remove(filepath.Join(dir, tmpName))
	_ = os.Remove(filepath.Join(dir, logTmpName))
	st, err := Recover(dir)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Truncate(int64(st.ValidBytes)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: open: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(int64(st.ValidBytes), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{f: f, dir: dir, nextLSN: st.NextLSN, durable: st.NextLSN - 1, written: int64(st.ValidBytes)}
	l.cond = sync.NewCond(&l.mu)
	if st.Snapshot != nil {
		l.snapLSN = st.Snapshot.LastLSN
	}
	return l, st, nil
}

// SetWriteHook installs a fault-injection hook on physical log writes.
// Test use only; must be set before concurrent use.
func (l *Log) SetWriteHook(h WriteHook) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = h
}

// Kill marks the log as crashed: buffered records are dropped and every
// further operation fails with err. Commit waiters are woken. Test use
// only.
func (l *Log) Kill(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failLocked(err)
}

// SetSyncObserver installs a callback invoked after every successful
// physical fsync with its duration and the number of records it covered.
// Must be set before concurrent use.
func (l *Log) SetSyncObserver(fn func(d time.Duration, records int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncObs = fn
}

// DurableLSN returns the highest LSN covered by a completed fsync or
// snapshot. Commit(lsn) returns only once DurableLSN() >= lsn.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Err returns the sticky error, if the log has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// LastLSN returns the LSN of the last appended record (0 if none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// SnapshotLSN returns the LastLSN of the latest installed snapshot (0
// when the directory has never been checkpointed). The log holds at least
// the records in (SnapshotLSN, LastLSN].
func (l *Log) SnapshotLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapLSN
}

// RecordsSinceSnapshot counts the records recovery would replay: those
// appended after the latest installed snapshot's LSN.
func (l *Log) RecordsSinceSnapshot() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.nextLSN - 1 - l.snapLSN)
}

// Buffered reports how many appended records are sitting in the buffer
// awaiting their flush (a gauge of write-path backpressure).
func (l *Log) Buffered() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// Append assigns the next LSN and buffers the record. It does not touch
// the disk; call Flush (after the in-memory transaction commits) to make
// it durable.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	payload := r.encodePayload(nil)
	var hdr [8]byte
	putFrameHeader(hdr[:], payload)
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.pending++
	return r.LSN, nil
}

// Commit blocks until the record at lsn is durable and returns the size
// of the flush batch observed when durability was confirmed (how many
// records the fsync amortized over). The first committer to find no
// flush in flight becomes the leader — it swaps the buffer out under the
// lock and performs the write+fsync outside it — and committers that
// arrive meanwhile wait, then either find their record covered or lead
// the next flush for everything appended while the previous one ran.
func (l *Log) Commit(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return 0, l.err
		}
		if l.durable >= lsn {
			return l.lastBatch, nil
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		if err := l.flushBatchLocked(); err != nil {
			return 0, err
		}
	}
}

// Flush blocks until every record appended so far is durable. Used by
// Close and by callers that want a full barrier rather than a single
// LSN's durability.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushAllLocked()
}

// flushAllLocked drives (or waits out) flushes until the last appended
// LSN is durable. Caller holds l.mu.
func (l *Log) flushAllLocked() error {
	target := l.nextLSN - 1
	for {
		if l.err != nil {
			return l.err
		}
		if l.durable >= target {
			return nil
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		if err := l.flushBatchLocked(); err != nil {
			return err
		}
	}
}

// flushBatchLocked swaps the pending buffer out, releases l.mu for the
// physical write+fsync (concurrent Appends proceed into the spare
// buffer), then republishes the durable watermark and wakes waiters. The
// caller must hold l.mu with l.flushing false; the flushing flag
// guarantees at most one flush is in flight. Returns with l.mu held.
func (l *Log) flushBatchLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.pending == 0 {
		return nil
	}
	p := l.buf
	n := l.pending
	target := l.nextLSN - 1
	l.buf = l.spare[:0]
	l.spare = nil
	l.pending = 0
	l.written += int64(len(p))
	l.flushing = true
	hook := l.hook
	f := l.f
	obs := l.syncObs
	l.mu.Unlock()

	allow := len(p)
	var herr, ferr error
	if hook != nil {
		allow, herr = hook(p)
		if allow > len(p) {
			allow = len(p)
		}
		if allow < 0 {
			allow = 0
		}
	}
	if allow > 0 {
		if _, werr := f.Write(p[:allow]); werr != nil {
			ferr = werr
		}
	}
	if ferr == nil {
		ferr = herr
	}
	var d time.Duration
	if ferr == nil {
		t := time.Now()
		ferr = f.Sync()
		d = time.Since(t)
	}

	l.mu.Lock()
	l.flushing = false
	l.cond.Broadcast()
	if ferr != nil {
		if l.err == nil {
			l.err = ferr
		}
		return ferr
	}
	if target > l.durable {
		l.durable = target
	}
	l.lastBatch = n
	l.spare = p[:0]
	if obs != nil {
		obs(d, n)
	}
	return nil
}

// Mark is a log position a snapshot can be taken at: the last appended
// LSN, and where the record after it starts in the current log file.
type Mark struct {
	LSN uint64
	off int64
	gen uint64
}

// Mark returns the current position. A checkpoint calls it in the same
// critical section that pins the state it will dump, so LSN is exactly
// the last record that state includes.
func (l *Log) Mark() Mark {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Mark{LSN: l.nextLSN - 1, off: l.written + int64(len(l.buf)), gen: l.gen}
}

// CheckpointStage names a point of WriteSnapshot's protocol for
// SetCheckpointHook.
type CheckpointStage string

const (
	// StageDump: the dump is running and its first bytes are about to
	// reach the temp file. The log mutex is not held.
	StageDump CheckpointStage = "dump"
	// StageTempSynced: the temp file is complete and fsynced, not yet
	// renamed. The log mutex is not held.
	StageTempSynced CheckpointStage = "temp-synced"
	// StageSnapshotRenamed: the new snapshot is in place, the log still
	// the old one. The log mutex is held.
	StageSnapshotRenamed CheckpointStage = "snapshot-renamed"
	// StageLogRenamed: the replacement log is in place, the handle not
	// yet swapped. The log mutex is held.
	StageLogRenamed CheckpointStage = "log-renamed"
)

// SetCheckpointHook installs a hook WriteSnapshot calls at each stage. An
// error it returns simulates the process dying right there: the log is
// killed with it and every file is left as it is. Test use only; must be
// set before concurrent use.
func (l *Log) SetCheckpointHook(h func(CheckpointStage) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stageHook = h
}

// SnapshotStats reports what one WriteSnapshot did.
type SnapshotStats struct {
	// TailRecords is how many durable records after the snapshot's LSN the
	// replacement log carried over.
	TailRecords int
	// Dump is the time spent streaming the dump into the temp file.
	Dump time.Duration
	// Install is the time the log mutex was held to swap snapshot and log
	// in — the only part of a checkpoint during which appends wait.
	Install time.Duration
}

// WriteSnapshot makes the state dump writes — which must be the state as
// of at — the directory's snapshot, and drops the log records it covers.
// Appends and commits proceed while dump runs and while the temp file is
// fsynced; only the install excludes them, for a rename and the copy of
// the few records appended since at:
//
//  1. stream dump into snapshot.db.tmp, fsync it                (no lock)
//  2. wait out an in-flight flush; refuse if the log is dead    (l.mu)
//  3. rename the temp file over snapshot.db
//  4. write the frames after at.LSN to wal.log.tmp, fsync, rename it over
//     wal.log and continue on its handle
//
// A crash before 3 leaves the old snapshot and the whole log; between 3
// and 4 the new snapshot and a log whose leading frames it already covers,
// which Recover skips; after 4 the new pair. A log that was closed or
// killed while the dump ran installs nothing, so a successor opened on the
// directory is never overwritten. An I/O error in step 4 leaves the log on
// its old file, where it stays valid, and is returned. When at found
// records still buffered, at.off lies past what has been flushed: they are
// in the snapshot, and the copy starts at the end of the file instead.
func (l *Log) WriteSnapshot(at Mark, dump func(w io.Writer) error) (st SnapshotStats, err error) {
	l.mu.Lock()
	hook := l.stageHook
	err = l.err
	l.mu.Unlock()
	if err != nil {
		return st, err
	}
	stage := func(s CheckpointStage) error {
		if hook == nil {
			return nil
		}
		return hook(s)
	}
	tmp := filepath.Join(l.dir, tmpName)
	t := time.Now()
	f, err := createTemp(tmp)
	if err != nil {
		return st, fmt.Errorf("wal: snapshot: %w", err)
	}
	var w io.Writer = f
	if hook != nil {
		w = &stagedWriter{w: f, before: func() error {
			err := hook(StageDump)
			if err != nil {
				l.Kill(err)
			}
			return err
		}}
	}
	err = dump(w)
	st.Dump = time.Since(t)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if l.Err() == nil { // a dead log's directory may have a new owner
			os.Remove(tmp)
		}
		return st, fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := stage(StageTempSynced); err != nil {
		l.Kill(err)
		return st, err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	// An in-flight flush holds the old file handle; its batch belongs in
	// the old file, whose tail is copied below.
	for l.flushing {
		l.cond.Wait()
	}
	t = time.Now()
	defer func() { st.Install = time.Since(t) }()
	if l.err != nil {
		// Closed or killed meanwhile: the directory may already belong to
		// a successor, so not even the temp file is touched.
		return st, l.err
	}
	if at.gen != l.gen || at.LSN < l.snapLSN || at.LSN >= l.nextLSN {
		os.Remove(tmp)
		return st, fmt.Errorf("wal: snapshot mark at LSN %d is not a position of this log (snapshot %d, last %d)", at.LSN, l.snapLSN, l.nextLSN-1)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		os.Remove(tmp)
		return st, fmt.Errorf("wal: snapshot: %w", err)
	}
	syncDir(l.dir)
	if l.durable > at.LSN {
		st.TailRecords = int(l.durable - at.LSN)
	} else {
		l.durable = at.LSN // committed in memory before the pin, durable with the snapshot
		l.cond.Broadcast()
	}
	l.snapLSN = at.LSN
	if err := stage(StageSnapshotRenamed); err != nil {
		return st, l.failLocked(err)
	}

	if err := l.swapLogLocked(min(at.off, l.written), stage); err != nil {
		return st, fmt.Errorf("wal: snapshot installed, log not compacted: %w", err)
	}
	return st, nil
}

// swapLogLocked replaces wal.log with a new file holding its bytes from
// offset from on, and continues the log on that file. Caller holds l.mu
// with no flush in flight, so the file holds exactly the bytes up to
// l.written; records still buffered stay buffered and are flushed to the
// new file. A real I/O error leaves the log on its old file; a hook's
// simulated crash kills it.
func (l *Log) swapLogLocked(from int64, stage func(CheckpointStage) error) error {
	tail := make([]byte, l.written-from)
	if _, err := l.f.ReadAt(tail, from); err != nil {
		return err
	}
	logTmp := filepath.Join(l.dir, logTmpName)
	nf, err := createTemp(logTmp)
	if err != nil {
		return err
	}
	allow, herr := len(tail), error(nil)
	if l.hook != nil {
		allow, herr = l.hook(tail)
		allow = max(0, min(allow, len(tail)))
	}
	_, err = nf.Write(tail[:allow])
	if herr != nil {
		nf.Close()
		return l.failLocked(herr)
	}
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(logTmp, filepath.Join(l.dir, logName))
	}
	if err != nil {
		nf.Close()
		os.Remove(logTmp)
		return err
	}
	syncDir(l.dir)
	if err := stage(StageLogRenamed); err != nil {
		nf.Close()
		return l.failLocked(err)
	}
	l.f.Close()
	l.f = nf
	l.written = int64(len(tail))
	l.gen++
	return nil
}

// stagedWriter calls before ahead of the first write it passes on.
type stagedWriter struct {
	w      io.Writer
	before func() error
}

func (s *stagedWriter) Write(p []byte) (int, error) {
	if s.before != nil {
		err := s.before()
		s.before = nil
		if err != nil {
			return 0, err
		}
	}
	return s.w.Write(p)
}

// failLocked makes err the log's sticky error and wakes every waiter.
// Caller holds l.mu.
func (l *Log) failLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	return err
}

// createTemp creates path for writing, replacing whatever a dead
// predecessor left there with a new file rather than truncating a file
// that predecessor's abandoned goroutine may still hold open.
func createTemp(path string) (*os.File, error) {
	_ = os.Remove(path)
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
}

// syncDir makes a rename in dir durable (best effort).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Close flushes buffered records and closes the file. Close is
// idempotent — the second and later calls return nil — and safe after
// Kill: a killed log skips the flush (its buffer is already condemned)
// and just releases the file handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var ferr error
	if l.err == nil {
		ferr = l.flushAllLocked()
	}
	cerr := l.f.Close()
	if l.err == nil {
		l.err = errors.New("wal: log closed")
	}
	l.cond.Broadcast()
	if ferr != nil {
		return ferr
	}
	return cerr
}
