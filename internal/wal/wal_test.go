package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
)

func testRecords() []Record {
	return []Record{
		{Op: OpAddVertex, ID: 1, Doc: `{"name":"ada"}`},
		{Op: OpAddVertex, ID: 2, Doc: `{}`},
		{Op: OpAddEdge, ID: 100, Out: 1, In: 2, Label: "knows", Doc: `{"since":1970}`},
		{Op: OpSetVertexAttr, ID: 1, Key: "age", Doc: `{"v":36}`},
		{Op: OpRemoveVertexAttr, ID: 1, Key: "age"},
		{Op: OpSetEdgeAttr, ID: 100, Key: "w", Doc: `{"v":0.5}`},
		{Op: OpRemoveEdgeAttr, ID: 100, Key: "w"},
		{Op: OpRemoveEdge, ID: 100},
		{Op: OpRemoveVertex, ID: 2},
		{Op: OpVacuum},
	}
}

func writeAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Op, err)
		}
		if err := l.Flush(); err != nil {
			t.Fatalf("Flush after %v: %v", r.Op, err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot != nil || len(st.Records) != 0 || st.NextLSN != 1 {
		t.Fatalf("fresh dir recovered state = %+v", st)
	}
	recs := testRecords()
	writeAll(t, l, recs)
	if got := l.LastLSN(); got != uint64(len(recs)) {
		t.Fatalf("LastLSN = %d, want %d", got, len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TornBytes != 0 {
		t.Fatalf("TornBytes = %d on clean log", st2.TornBytes)
	}
	if len(st2.Records) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(st2.Records), len(recs))
	}
	for i, got := range st2.Records {
		want := recs[i]
		want.LSN = uint64(i + 1)
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if st2.NextLSN != uint64(len(recs))+1 {
		t.Fatalf("NextLSN = %d", st2.NextLSN)
	}
}

// TestFlushMakesBufferDurable: appended records reach the disk only with
// a flush, and one Flush makes every one of them durable.
func TestFlushMakesBufferDurable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is durable before the flush.
	if st, err := Recover(dir); err != nil || len(st.Records) != 0 {
		t.Fatalf("pre-flush recover: %d records, err=%v", len(st.Records), err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != len(recs) {
		t.Fatalf("post-flush recover: %d records, want %d", len(st.Records), len(recs))
	}
	l.Close()
}

func TestTornTailTruncated(t *testing.T) {
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
	if len(frames) != len(recs) {
		t.Fatalf("ScanFrames: %d frames, want %d", len(frames), len(recs))
	}
	last := frames[len(frames)-1]
	// Every possible truncation point inside the final frame loses exactly
	// that frame, silently.
	for cut := last.Offset + 1; cut < last.Offset+last.Size; cut++ {
		if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(st.Records) != len(recs)-1 {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(st.Records), len(recs)-1)
		}
		if st.TornBytes != cut-last.Offset {
			t.Fatalf("cut=%d: TornBytes=%d, want %d", cut, st.TornBytes, cut-last.Offset)
		}
		if st.ValidBytes != last.Offset {
			t.Fatalf("cut=%d: ValidBytes=%d, want %d", cut, st.ValidBytes, last.Offset)
		}
	}

	// Re-open truncates the torn tail and appends cleanly after it.
	if err := os.WriteFile(logPath, full[:last.Offset+2], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextLSN != uint64(len(recs)) {
		t.Fatalf("NextLSN after torn tail = %d, want %d", st.NextLSN, len(recs))
	}
	writeAll(t, l2, []Record{{Op: OpVacuum}})
	l2.Close()
	st2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Records) != len(recs) || st2.Records[len(recs)-1].Op != OpVacuum {
		t.Fatalf("after re-append: %d records, last %v", len(st2.Records), st2.Records[len(st2.Records)-1].Op)
	}
}

func TestMidLogCorruptionIsError(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, l, testRecords())
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
	// Flip one payload byte of a middle frame: valid frames follow it, so
	// this is corruption, not a torn tail.
	mid := frames[len(frames)/2]
	data := append([]byte(nil), full...)
	data[mid.Offset+8] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover on mid-log corruption: %v, want ErrCorrupt", err)
	}

	// The same flip in the final frame is a torn tail, not corruption.
	lastOff := frames[len(frames)-1].Offset
	data = append([]byte(nil), full...)
	data[lastOff+8] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover with corrupt final frame: %v", err)
	}
	if len(st.Records) != len(frames)-1 {
		t.Fatalf("recovered %d records, want %d", len(st.Records), len(frames)-1)
	}
}

func sampleSnapshot(lastLSN uint64) *Snapshot {
	doc, _ := sqljson.Parse(`{"name":"ada","tags":[1,2.5,"x"]}`)
	return &Snapshot{
		LastLSN:    lastLSN,
		OutCols:    3,
		InCols:     2,
		Coloring:   1,
		DeleteMode: 0,
		NextLID:    -4,
		OutAssign:  map[string]int{"knows": 0, "likes": 2},
		InAssign:   map[string]int{"knows": 1},
		Tables: map[string][][]rel.Value{
			"VA": {
				{rel.NewInt(1), rel.NewJSON(&doc)},
				{rel.NewInt(-3), rel.Null},
			},
			"OSA": {
				{rel.NewInt(-1), rel.NewInt(100), rel.NewInt(2)},
			},
			"EMPTY": {},
		},
	}
}

// dumpOf streams a snapshot value through the SnapshotWriter, tables in
// name order — what a checkpoint's dump callback does from live tables.
func dumpOf(s *Snapshot) func(io.Writer) error {
	return func(w io.Writer) error {
		names := make([]string, 0, len(s.Tables))
		for n := range s.Tables {
			names = append(names, n)
		}
		sort.Strings(names)
		sw := NewSnapshotWriter(w, s, len(names))
		for _, n := range names {
			sw.BeginTable(n, len(s.Tables[n]))
			for _, row := range s.Tables[n] {
				if err := sw.WriteRow(row); err != nil {
					return err
				}
			}
		}
		_, err := sw.Close()
		return err
	}
}

func encodeSnapshot(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	err := dumpOf(s)(&buf)
	return buf.Bytes(), err
}

// writeSnapshotFile puts a snapshot into a directory no log is open on.
func writeSnapshotFile(dir string, s *Snapshot) error {
	data, err := encodeSnapshot(s)
	if err != nil {
		return err
	}
	return writeSnapshotBytes(dir, data)
}

// checkpointAt installs a sample snapshot taken at m.
func checkpointAt(l *Log, m Mark) (SnapshotStats, error) {
	return l.WriteSnapshot(m, dumpOf(sampleSnapshot(m.LSN)))
}

func snapshotsEqual(a, b *Snapshot) bool {
	if a.LastLSN != b.LastLSN || a.OutCols != b.OutCols || a.InCols != b.InCols ||
		a.Coloring != b.Coloring || a.DeleteMode != b.DeleteMode || a.NextLID != b.NextLID ||
		!reflect.DeepEqual(a.OutAssign, b.OutAssign) || !reflect.DeepEqual(a.InAssign, b.InAssign) ||
		len(a.Tables) != len(b.Tables) {
		return false
	}
	for name, rows := range a.Tables {
		got, ok := b.Tables[name]
		if !ok || len(got) != len(rows) {
			return false
		}
		for i := range rows {
			if len(rows[i]) != len(got[i]) {
				return false
			}
			for c := range rows[i] {
				if !rel.Equal(rows[i][c], got[i][c]) {
					return false
				}
			}
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := sampleSnapshot(7)
	data, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(snap, got) {
		t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}

	// Any single-byte flip must be detected.
	for _, pos := range []int{0, len(snapMagic), len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0xFF
		if _, err := decodeSnapshot(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err=%v, want ErrCorrupt", pos, err)
		}
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	writeAll(t, l, recs)

	snap := sampleSnapshot(uint64(len(recs)))
	if _, err := checkpointAt(l, l.Mark()); err != nil {
		t.Fatal(err)
	}
	if n := l.RecordsSinceSnapshot(); n != 0 {
		t.Fatalf("RecordsSinceSnapshot after rotation = %d", n)
	}
	// Log restarted: new appends land at the file head with higher LSNs.
	writeAll(t, l, []Record{{Op: OpAddVertex, ID: 9, Doc: `{}`}})
	l.Close()
	if frames, err := ScanFrames(filepath.Join(dir, logName)); err != nil || len(frames) != 1 || frames[0].Offset != 0 {
		t.Fatalf("log after rotation = %+v, %v; want the one new frame at offset 0", frames, err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || !snapshotsEqual(st.Snapshot, snap) {
		t.Fatal("snapshot not recovered intact")
	}
	if len(st.Records) != 1 || st.Records[0].LSN != uint64(len(recs))+1 {
		t.Fatalf("post-snapshot tail = %+v", st.Records)
	}
}

func TestStaleLogAfterSnapshotRename(t *testing.T) {
	// Simulate a crash between the snapshot rename and the log truncation:
	// the log still holds records with LSN <= Snapshot.LastLSN.
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	writeAll(t, l, recs)
	l.Close()
	if err := writeSnapshotFile(dir, sampleSnapshot(uint64(len(recs)))); err != nil {
		t.Fatal(err)
	}

	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 0 {
		t.Fatalf("stale records replayed: %+v", st.Records)
	}
	if st.ValidBytes != 0 {
		t.Fatalf("ValidBytes = %d, want 0 (whole log stale)", st.ValidBytes)
	}
	if st.NextLSN != uint64(len(recs))+1 {
		t.Fatalf("NextLSN = %d", st.NextLSN)
	}

	// Re-opening truncates the stale log and resumes after the snapshot.
	l2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, l2, []Record{{Op: OpVacuum}})
	l2.Close()
	st2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Records) != 1 || st2.Records[0].LSN != uint64(len(recs))+1 {
		t.Fatalf("post-reopen tail = %+v", st2.Records)
	}
}

func TestWriteHookPartialWriteIsSticky(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	l.SetWriteHook(func(p []byte) (int, error) { return 3, boom })
	if _, err := l.Append(Record{Op: OpVacuum}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want boom", err)
	}
	// Sticky: everything fails now.
	if _, err := l.Append(Record{Op: OpVacuum}); !errors.Is(err, boom) {
		t.Fatalf("Append after failure = %v, want boom", err)
	}
	l.Close()

	// The 3 partial bytes are a torn header; recovery drops them.
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 0 || st.TornBytes != 3 || st.ValidBytes != 0 {
		t.Fatalf("recover after partial write: %+v", st)
	}
}

// FuzzWALRecover feeds arbitrary log images to recovery. Whatever the
// bytes, Recover must not panic, must never yield a record whose re-encoded
// frame differs from what CRC validation accepted (i.e. never replays a
// record that fails its checksum), and must report a state that re-logging
// reproduces.
func FuzzWALRecover(f *testing.F) {
	// Seed with a valid log, truncations of it, and single-byte flips.
	var valid []byte
	for i, r := range testRecords() {
		r.LSN = uint64(i + 1)
		payload := r.encodePayload(nil)
		var hdr [8]byte
		putFrameHeader(hdr[:], payload)
		valid = append(valid, hdr[:]...)
		valid = append(valid, payload...)
	}
	f.Add(valid)
	for _, cut := range []int{1, 7, 8, 9, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	for _, pos := range []int{0, 4, 8, len(valid) / 3, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		// Every recovered record's frame must be present verbatim (CRC-valid
		// by construction) and LSNs strictly increase.
		var prev uint64
		var relog []byte
		for _, r := range st.Records {
			if r.LSN <= prev {
				t.Fatalf("non-monotonic LSN %d after %d", r.LSN, prev)
			}
			prev = r.LSN
			payload := r.encodePayload(nil)
			var hdr [8]byte
			putFrameHeader(hdr[:], payload)
			relog = append(relog, hdr[:]...)
			relog = append(relog, payload...)
		}
		if string(relog) != string(data[:st.ValidBytes]) {
			t.Fatalf("re-encoded records differ from accepted log prefix")
		}
		if st.ValidBytes+st.TornBytes != len(data) {
			t.Fatalf("ValidBytes %d + TornBytes %d != %d", st.ValidBytes, st.TornBytes, len(data))
		}
	})
}
