package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sqlgraph/internal/faultinject"
)

// These tests cover WriteSnapshot's protocol at the log level: the tail
// it keeps, the crash it must survive at each step, the lifecycle rule
// that a dead log installs nothing, and a TailReader following the file
// swap. The store-level versions (a real dump beside real writers) are in
// internal/core/checkpoint_test.go.

func vertexRec(id int64) Record {
	return Record{Op: OpAddVertex, ID: id, Doc: fmt.Sprintf(`{"n":%d}`, id)}
}

// mustRecover recovers dir and checks it holds a snapshot at snapLSN
// followed by exactly the records (snapLSN, last].
func mustRecover(t *testing.T, dir string, snapLSN, last uint64) *RecoveredState {
	t.Helper()
	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	got := uint64(0)
	if st.Snapshot != nil {
		got = st.Snapshot.LastLSN
	}
	if got != snapLSN {
		t.Fatalf("recovered snapshot at LSN %d, want %d", got, snapLSN)
	}
	if uint64(len(st.Records)) != last-snapLSN {
		t.Fatalf("recovered %d records after the snapshot, want %d", len(st.Records), last-snapLSN)
	}
	for i, r := range st.Records {
		if r.LSN != snapLSN+1+uint64(i) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, snapLSN+1+uint64(i))
		}
	}
	if st.NextLSN != last+1 {
		t.Fatalf("NextLSN = %d, want %d", st.NextLSN, last+1)
	}
	return st
}

func TestWriteSnapshotKeepsTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 6; id++ {
		writeAll(t, l, []Record{vertexRec(id)})
	}
	m := l.Mark()
	// What the old protocol refused ("snapshot at LSN 6 but log is at 10"):
	// records appended between taking the position and installing.
	for id := int64(7); id <= 10; id++ {
		writeAll(t, l, []Record{vertexRec(id)})
	}
	st, err := checkpointAt(l, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.TailRecords != 4 {
		t.Fatalf("TailRecords = %d, want 4", st.TailRecords)
	}
	if n := l.RecordsSinceSnapshot(); n != 4 {
		t.Fatalf("RecordsSinceSnapshot = %d, want 4", n)
	}
	if got := l.SnapshotLSN(); got != 6 {
		t.Fatalf("SnapshotLSN = %d, want 6", got)
	}
	frames, err := ScanFrames(filepath.Join(dir, logName))
	if err != nil || len(frames) != 4 || frames[0].LSN != 7 || frames[0].Offset != 0 {
		t.Fatalf("replacement log = %+v, %v; want LSN 7..10 from offset 0", frames, err)
	}
	for _, name := range []string{tmpName, logTmpName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s left behind: %v", name, err)
		}
	}
	// The log continues on the replacement file.
	writeAll(t, l, []Record{vertexRec(11)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	mustRecover(t, dir, 6, 11)

	// A mark taken before a swap names an offset of a file that is gone.
	l, _, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stale := l.Mark()
	if _, err := checkpointAt(l, l.Mark()); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpointAt(l, stale); err == nil {
		t.Fatal("WriteSnapshot accepted a mark from before the previous swap")
	}
}

// Records still in the buffer at the mark are part of the dumped state;
// the installed snapshot makes them durable and releases their
// committers, and the bytes later flushed are skipped by recovery.
func TestWriteSnapshotCoversBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, l, []Record{vertexRec(1), vertexRec(2)})
	for id := int64(3); id <= 5; id++ {
		if _, err := l.Append(vertexRec(id)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := checkpointAt(l, l.Mark())
	if err != nil {
		t.Fatal(err)
	}
	if st.TailRecords != 0 || l.DurableLSN() != 5 {
		t.Fatalf("tail %d records, durable LSN %d; want 0 and 5", st.TailRecords, l.DurableLSN())
	}
	if _, err := l.Commit(5); err != nil {
		t.Fatal(err)
	}
	writeAll(t, l, []Record{vertexRec(6)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	mustRecover(t, dir, 5, 6)
}

// crashAt runs one checkpoint over a log that has 4 records in the
// snapshot and 3 after it, simulating a crash at the given stage (or,
// with limit >= 0, after that many bytes of the replacement log), and
// returns the directory as the dead process left it.
func crashAt(t *testing.T, stage CheckpointStage, limit int) string {
	t.Helper()
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 4; id++ {
		writeAll(t, l, []Record{vertexRec(id)})
	}
	m := l.Mark()
	for id := int64(5); id <= 7; id++ {
		writeAll(t, l, []Record{vertexRec(id)})
	}
	if limit >= 0 {
		l.SetWriteHook(faultinject.ByteLimit(limit))
	}
	l.SetCheckpointHook(func(s CheckpointStage) error {
		if s == stage {
			return faultinject.ErrInjected
		}
		return nil
	})
	if _, err := checkpointAt(l, m); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("checkpoint crashing at %s/%d: %v, want the injected fault", stage, limit, err)
	}
	if _, err := l.Append(vertexRec(99)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append after the crash: %v, want the injected fault", err)
	}
	return dir
}

func TestWriteSnapshotCrashMatrix(t *testing.T) {
	// Before the snapshot rename the old state stands, whole log included;
	// from the rename on the new snapshot does, with the three records
	// after it — whichever of the two log files holds them.
	for _, c := range []struct {
		stage   CheckpointStage
		snapLSN uint64
	}{
		{StageDump, 0},
		{StageTempSynced, 0},
		{StageSnapshotRenamed, 4},
		{StageLogRenamed, 4},
	} {
		dir := crashAt(t, c.stage, -1)
		mustRecover(t, dir, c.snapLSN, 7)
		// The successor cleans up and carries on; a second recovery of
		// what it wrote agrees.
		l, _, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", c.stage, err)
		}
		for _, name := range []string{tmpName, logTmpName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: %s survived Open: %v", c.stage, name, err)
			}
		}
		writeAll(t, l, []Record{vertexRec(8)})
		if _, err := checkpointAt(l, l.Mark()); err != nil {
			t.Fatalf("%s: checkpoint after recovery: %v", c.stage, err)
		}
		writeAll(t, l, []Record{vertexRec(9)})
		l.Close()
		mustRecover(t, dir, 8, 9)
	}

	// Every byte of the replacement log: it is written beside the old one
	// and only renamed when complete, so a cut anywhere loses nothing.
	clean := crashAt(t, StageLogRenamed, -1)
	tail, err := os.ReadFile(filepath.Join(clean, logName))
	if err != nil || len(tail) == 0 {
		t.Fatalf("replacement log: %d bytes, %v", len(tail), err)
	}
	for n := 0; n < len(tail); n++ {
		mustRecover(t, crashAt(t, "", n), 4, 7)
	}
}

// A log that was closed or killed while the dump ran must not touch the
// directory afterwards: a successor may have been opened on it.
func TestDeadLogInstallsNothing(t *testing.T) {
	for _, how := range []string{"kill", "close"} {
		dir := t.TempDir()
		l, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, l, []Record{vertexRec(1), vertexRec(2)})
		var l2 *Log
		l.SetCheckpointHook(func(s CheckpointStage) error {
			if s != StageTempSynced {
				return nil
			}
			if how == "kill" {
				l.Kill(errors.New("crashed"))
			} else if err := l.Close(); err != nil {
				t.Error(err)
			}
			// The successor takes the directory over and writes to it.
			if l2, _, err = Open(dir); err != nil {
				t.Error(err)
				return nil
			}
			writeAll(t, l2, []Record{vertexRec(3)})
			return nil
		})
		if _, err := checkpointAt(l, l.Mark()); err == nil {
			t.Fatalf("%s: a dead log installed a snapshot", how)
		}
		writeAll(t, l2, []Record{vertexRec(4)})
		l2.Close()
		mustRecover(t, dir, 0, 4)
	}
}

// A reader positioned at the head keeps delivering every record exactly
// once, in order, across three checkpoints that each replace the file
// under it.
func TestTailReaderFollowsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := OpenTail(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	next := uint64(1)
	drain := func(ctx string) {
		t.Helper()
		for {
			_, frames, err := tr.Next()
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if len(frames) == 0 {
				return
			}
			for _, f := range frames {
				if f.LSN != next {
					t.Fatalf("%s: delivered LSN %d, want %d", ctx, f.LSN, next)
				}
				next++
			}
		}
	}
	id := int64(0)
	add := func(n int) {
		for i := 0; i < n; i++ {
			id++
			writeAll(t, l, []Record{vertexRec(id)})
		}
	}
	for round := 1; round <= 3; round++ {
		add(5)
		if round != 2 {
			drain("before checkpoint") // round 2: still behind when the file is swapped
		}
		m := l.Mark()
		add(3) // the tail the replacement log keeps
		if round == 3 {
			drain("caught up with the old file") // already has what the new file starts with
		}
		if _, err := checkpointAt(l, m); err != nil {
			t.Fatal(err)
		}
		add(2)
		drain("after checkpoint")
		if next != uint64(id)+1 {
			t.Fatalf("round %d: reader at LSN %d, log at %d", round, next, id)
		}
	}

	// A reader whose next record a snapshot swallowed gets the verdict as
	// soon as the log shows where it resumes.
	behind, err := OpenTail(dir, l.LastLSN()+1)
	if err != nil {
		t.Fatal(err)
	}
	defer behind.Close()
	add(4)
	if _, err := checkpointAt(l, l.Mark()); err != nil {
		t.Fatal(err)
	}
	add(1)
	if _, _, err := behind.Next(); !errors.Is(err, ErrGap) {
		t.Fatalf("reader behind the snapshot: %v, want ErrGap", err)
	}
}

// Checkpoints beside concurrent committers: every acknowledged LSN
// survives.
func TestCheckpointBesideCommitters(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 60
	var wg sync.WaitGroup
	acked := make([]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append(vertexRec(int64(w*each + i)))
				if err == nil {
					_, err = l.Commit(lsn)
				}
				if err != nil {
					t.Error(err)
					return
				}
				acked[w] = lsn
			}
		}(w)
	}
	checkpoints := 0
	for done := false; !done; {
		done = l.LastLSN() == writers*each
		m := l.Mark()
		if _, err := l.WriteSnapshot(m, func(w io.Writer) error {
			return dumpOf(sampleSnapshot(m.LSN))(w)
		}); err != nil {
			t.Fatal(err)
		}
		checkpoints++
	}
	wg.Wait()
	last := l.LastLSN()
	l.Kill(errors.New("crashed"))
	l.Close()
	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover after %d checkpoints: %v", checkpoints, err)
	}
	if st.NextLSN != last+1 {
		t.Fatalf("recovered through LSN %d, acknowledged through %d", st.NextLSN-1, last)
	}
	for w, lsn := range acked {
		if lsn >= st.NextLSN {
			t.Fatalf("writer %d's acknowledged LSN %d was lost", w, lsn)
		}
	}
}
