package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// encodeFrames renders records as a wire/log frame stream, assigning
// LSNs from startLSN.
func encodeFrames(recs []Record, startLSN uint64) []byte {
	var b []byte
	for i, r := range recs {
		r.LSN = startLSN + uint64(i)
		b = AppendWireFrame(b, r)
	}
	return b
}

// tornCuts enumerates one representative truncation point per frame
// region: mid length header, mid checksum, and mid payload. The matrix
// drives ScanFrames, Recover, and StreamReader identically — the
// receive path and the recovery path must agree on what a torn tail is.
func tornCuts(lastFrame FrameInfo) []struct {
	name string
	cut  int
} {
	off := lastFrame.Offset
	return []struct {
		name string
		cut  int
	}{
		{"mid-header", off + 2},      // inside the 4-byte length
		{"mid-checksum", off + 6},    // inside the 4-byte CRC
		{"mid-payload", off + 8 + 1}, // first payload byte written
		{"payload-minus-1", off + lastFrame.Size - 1},
	}
}

func TestTornTailMatrix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	writeAll(t, l, recs)
	l.Close()

	logPath := filepath.Join(dir, logName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ScanFrames(logPath)
	if err != nil {
		t.Fatal(err)
	}
	last := frames[len(frames)-1]

	for _, tc := range tornCuts(last) {
		t.Run(tc.name, func(t *testing.T) {
			torn := full[:tc.cut]

			// ScanFrames drops the torn frame silently.
			if err := os.WriteFile(logPath, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := ScanFrames(logPath)
			if err != nil {
				t.Fatalf("ScanFrames: %v", err)
			}
			if len(fs) != len(recs)-1 {
				t.Fatalf("ScanFrames: %d frames, want %d", len(fs), len(recs)-1)
			}

			// Recover reports the same boundary.
			st, err := Recover(dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(st.Records) != len(recs)-1 {
				t.Fatalf("Recover: %d records, want %d", len(st.Records), len(recs)-1)
			}
			if st.ValidBytes != last.Offset || st.TornBytes != tc.cut-last.Offset {
				t.Fatalf("Recover: ValidBytes=%d TornBytes=%d, want %d/%d",
					st.ValidBytes, st.TornBytes, last.Offset, tc.cut-last.Offset)
			}

			// StreamReader yields the complete frames, then ErrTornStream.
			sr := NewStreamReader(bytes.NewReader(torn))
			for i := 0; i < len(recs)-1; i++ {
				rec, err := sr.Next()
				if err != nil {
					t.Fatalf("stream frame %d: %v", i, err)
				}
				if rec.LSN != uint64(i+1) {
					t.Fatalf("stream frame %d: LSN=%d", i, rec.LSN)
				}
			}
			if _, err := sr.Next(); !errors.Is(err, ErrTornStream) {
				t.Fatalf("stream tail: %v, want ErrTornStream", err)
			}
		})
	}

	// A clean stream ends with io.EOF, not ErrTornStream.
	sr := NewStreamReader(bytes.NewReader(full))
	for i := 0; i < len(recs); i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("clean frame %d: %v", i, err)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("clean tail: %v, want io.EOF", err)
	}
}

func TestStreamReaderCorruptFrame(t *testing.T) {
	full := encodeFrames(testRecords(), 1)

	// Flip one payload byte of the first frame: the frame is complete, so
	// this is corruption (checksum mismatch), not a torn stream.
	bad := append([]byte(nil), full...)
	bad[9] ^= 0xFF
	if _, err := NewStreamReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: %v, want ErrCorrupt", err)
	}

	// An implausible length header is rejected before allocating.
	huge := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}
	if _, err := NewStreamReader(bytes.NewReader(huge)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: %v, want ErrCorrupt", err)
	}

	// A transport error passes through unwrapped.
	boom := errors.New("boom")
	r := io.MultiReader(bytes.NewReader(full[:3]), errReader{boom})
	if _, err := NewStreamReader(r).Next(); !errors.Is(err, boom) {
		t.Fatalf("transport error: %v, want boom", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func TestHeartbeatFrameRoundTrip(t *testing.T) {
	b := AppendWireFrame(nil, Record{LSN: 42, Op: OpHeartbeat})
	rec, err := NewStreamReader(bytes.NewReader(b)).Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Op != OpHeartbeat || rec.LSN != 42 {
		t.Fatalf("heartbeat round trip = %+v", rec)
	}
}

func TestTailReaderFollowsAppends(t *testing.T) {
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

	// Nothing yet — and the log file may not even exist.
	if b, fs, err := tr.Next(); err != nil || b != nil || fs != nil {
		t.Fatalf("empty tail: %v %v %v", b, fs, err)
	}

	recs := testRecords()
	writeAll(t, l, recs[:4])
	b, fs, err := tr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 4 {
		t.Fatalf("first batch: %d frames, want 4", len(fs))
	}
	// The bytes are a verbatim frame stream re-parseable by StreamReader.
	sr := NewStreamReader(bytes.NewReader(b))
	for i := 0; i < 4; i++ {
		rec, err := sr.Next()
		if err != nil || rec.LSN != uint64(i+1) {
			t.Fatalf("re-parse frame %d: %+v %v", i, rec, err)
		}
	}

	// Caught up: nil batch. More appends: only the new frames.
	if b, _, _ := tr.Next(); b != nil {
		t.Fatalf("caught-up tail returned %d bytes", len(b))
	}
	writeAll(t, l, recs[4:])
	_, fs, err = tr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != len(recs)-4 || fs[0].LSN != 5 {
		t.Fatalf("second batch: %d frames, first LSN %d", len(fs), fs[0].LSN)
	}
	if tr.NextLSN() != uint64(len(recs))+1 {
		t.Fatalf("NextLSN = %d", tr.NextLSN())
	}
}

func TestTailReaderResumeSkipsDelivered(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	writeAll(t, l, recs)
	l.Close()

	tr, err := OpenTail(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, fs, err := tr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != len(recs)-6 || fs[0].LSN != 7 {
		t.Fatalf("resume from 7: %d frames, first LSN %d", len(fs), fs[0].LSN)
	}
}

func TestTailReaderGapAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	writeAll(t, l, recs)

	// A reader positioned at LSN 3 sees a gap once the snapshot covers
	// LSN 10: those frames will never reappear in the log.
	trBehind, err := OpenTail(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer trBehind.Close()

	// A caught-up reader follows the log to its replacement file.
	trAhead, err := OpenTail(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer trAhead.Close()
	if _, fs, err := trAhead.Next(); err != nil || len(fs) != len(recs) {
		t.Fatalf("pre-truncation drain: %d frames, %v", len(fs), err)
	}

	if _, err := checkpointAt(l, l.Mark()); err != nil {
		t.Fatal(err)
	}
	writeAll(t, l, []Record{{Op: OpAddVertex, ID: 9, Doc: `{}`}})
	l.Close()

	if _, _, err := trBehind.Next(); !errors.Is(err, ErrGap) {
		t.Fatalf("behind reader after checkpoint: %v, want ErrGap", err)
	}
	_, fs, err := trAhead.Next()
	if err != nil {
		t.Fatalf("ahead reader after checkpoint: %v", err)
	}
	if len(fs) != 1 || fs[0].LSN != uint64(len(recs))+1 {
		t.Fatalf("ahead reader post-truncation batch = %+v", fs)
	}

	// Opening below the snapshot LSN fails immediately.
	if _, err := OpenTail(dir, 2); !errors.Is(err, ErrGap) {
		t.Fatalf("OpenTail below snapshot: %v, want ErrGap", err)
	}
}

func TestReadSnapshotLSN(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapName)
	if lsn, err := ReadSnapshotLSN(path); err != nil || lsn != 0 {
		t.Fatalf("missing file: %d, %v", lsn, err)
	}
	if err := writeSnapshotFile(dir, sampleSnapshot(123)); err != nil {
		t.Fatal(err)
	}
	if lsn, err := ReadSnapshotLSN(path); err != nil || lsn != 123 {
		t.Fatalf("got %d, %v; want 123", lsn, err)
	}
	if err := os.WriteFile(path, []byte("garbage!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotLSN(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage header: %v, want ErrCorrupt", err)
	}
}

func TestInstallSnapshot(t *testing.T) {
	// Source directory with live state.
	src := t.TempDir()
	l, _, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, l, testRecords())
	l.Close()

	snap := sampleSnapshot(uint64(len(testRecords())))
	data, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}

	// Install into a directory that has an older log; the log must go.
	dst := t.TempDir()
	l2, _, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, l2, testRecords()[:3])
	l2.Close()

	got, err := InstallSnapshot(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(got, snap) {
		t.Fatal("InstallSnapshot returned a different snapshot")
	}
	if _, err := os.Stat(filepath.Join(dst, logName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old log survived install: %v", err)
	}
	st, err := Recover(dst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || !snapshotsEqual(st.Snapshot, snap) || st.NextLSN != snap.LastLSN+1 {
		t.Fatalf("recover after install: NextLSN=%d", st.NextLSN)
	}

	// Corrupt bytes are rejected before touching the directory.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := InstallSnapshot(dst, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt install: %v, want ErrCorrupt", err)
	}
}

func TestCloseIdempotentAndSafeAfterKill(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, l, testRecords()[:2])
	if err := l.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Close after Kill must not flush (the log is marked crashed) and must
	// not panic; repeated closes stay nil.
	l2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(Record{Op: OpVacuum}); err != nil {
		t.Fatal(err)
	}
	l2.Kill(errors.New("simulated crash"))
	if err := l2.Close(); err != nil {
		t.Fatalf("Close after Kill: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("double Close after Kill: %v", err)
	}
	// Operations after Close fail cleanly instead of writing to a closed file.
	if _, err := l2.Append(Record{Op: OpVacuum}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}
