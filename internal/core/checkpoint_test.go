package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/faultinject"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/wal"
)

// The checkpoint dumps from a pinned version beside the writers, installs
// under the log mutex and keeps the log tail. These tests hold it at named
// stages of that protocol (wal.Log.SetCheckpointHook) and look at what the
// writers, the log and a recovery see; none of them waits on the clock for
// a checkpoint to finish — Store.WaitCheckpointIdle does.

// within runs fn and crashes the test binary, goroutine stacks and all,
// if it has not returned after a generous bound: a writer waiting for a
// checkpoint that is itself waiting for the test would otherwise hang
// the run for ten minutes instead of failing it with the evidence.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	watchdog := time.AfterFunc(30*time.Second, func() { panic(what + ": still blocked after 30s") })
	defer watchdog.Stop()
	fn()
}

// holdDump parks every checkpoint of s in the middle of its dump — as its
// first bytes are about to reach the temp file — until release is called.
// entered counts the checkpoints that got there.
func holdDump(s *Store) (entered *atomic.Int32, arrived <-chan struct{}, release func()) {
	entered = new(atomic.Int32)
	// Room for every checkpoint a test could start, so the hook never
	// blocks on a test that does not read arrivals.
	gate, first := make(chan struct{}), make(chan struct{}, 64)
	s.WAL().SetCheckpointHook(func(st wal.CheckpointStage) error {
		if st == wal.StageDump {
			entered.Add(1)
			first <- struct{}{}
			<-gate
		}
		return nil
	})
	return entered, first, sync.OnceFunc(func() { close(gate) })
}

func addVertices(t *testing.T, s *Store, from, to int64) {
	t.Helper()
	for v := from; v <= to; v++ {
		if err := s.AddVertex(v, map[string]any{"n": v}); err != nil {
			t.Fatalf("AddVertex(%d): %v", v, err)
		}
	}
}

// exclusiveCeiling bounds the time one checkpoint of a small store may
// exclude writers: the pin section reads a few counters and the install
// section renames two files and copies a handful of records. A quarter of
// a second absorbs the slowest fsync of a shared CI disk; a checkpoint
// that holds its locks across the dump exceeds it as soon as the dump is
// held that long, and fails the first half of the test below at any size.
const exclusiveCeiling = 250 * time.Millisecond

// TestCheckpointDoesNotStopWriters is the stall itself, deterministically:
// with the checkpoint parked inside its dump, the writer that triggered it
// has already returned and other writers commit and become durable.
func TestCheckpointDoesNotStopWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	entered, arrived, release := holdDump(s)
	defer release()
	before := s.Tracer().WriteStats()

	// The 64th commit crosses the cadence and starts the checkpoint; it
	// must come back without waiting for it.
	within(t, "the writer that crossed the snapshot cadence", func() { addVertices(t, s, 1, 64) })
	within(t, "the background checkpoint reaching its dump", func() { <-arrived })

	const writers, each = 2, 40
	within(t, "writers beside a checkpoint in its dump", func() {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(base int64) {
				defer wg.Done()
				for i := int64(0); i < each; i += 2 {
					if err := s.AddVertex(base+i, nil); err != nil {
						t.Error(err)
						return
					}
					if err := s.SetVertexAttr(base+i, "k", i); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(1000 * (w + 1)))
		}
		wg.Wait()
	})
	if last, durable := s.WAL().LastLSN(), s.WAL().DurableLSN(); last != 64+writers*each || durable != last {
		t.Fatalf("log at LSN %d, durable through %d; want both %d", last, durable, 64+writers*each)
	}
	if ws := s.Tracer().WriteStats(); ws.Checkpoints != before.Checkpoints || s.PinnedSnapshots() != 1 {
		t.Fatalf("checkpoint should still be in its dump: %d completed, %d pins", ws.Checkpoints-before.Checkpoints, s.PinnedSnapshots())
	}

	release()
	within(t, "the released checkpoint", s.WaitCheckpointIdle)
	ws := s.Tracer().WriteStats()
	if n := entered.Load(); n != 1 || ws.Checkpoints != before.Checkpoints+1 || ws.CheckpointErrors != 0 {
		t.Fatalf("%d checkpoints started, %d completed, %d failed; want 1, 1, 0",
			n, ws.Checkpoints-before.Checkpoints, ws.CheckpointErrors)
	}
	if excl := time.Duration(ws.CheckpointExclusiveNs - before.CheckpointExclusiveNs); excl <= 0 || excl > exclusiveCeiling {
		t.Fatalf("checkpoint excluded writers for %v; want at most %v", excl, exclusiveCeiling)
	}
	if pins := s.PinnedSnapshots(); pins != 0 {
		t.Fatalf("%d pins after the checkpoint", pins)
	}
	// The snapshot is the state the trigger saw; everything after it is
	// still in the log.
	if got := s.WAL().SnapshotLSN(); got != 64 {
		t.Fatalf("snapshot at LSN %d, want 64", got)
	}
	if n := s.WAL().RecordsSinceSnapshot(); n != writers*each {
		t.Fatalf("log keeps %d records, want %d", n, writers*each)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if vs := Check(s2); len(vs) != 0 {
		t.Fatalf("Check after reopen: %v", vs)
	}
	if n := s2.CountVertices(); n != 64+writers*each/2 {
		t.Fatalf("%d vertices after reopen, want %d", n, 64+writers*each/2)
	}
}

// N writers crossing the cadence together start exactly one checkpoint,
// and none of them waits for it.
func TestCheckpointSingleFlight(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), OutCols: 2, InCols: 2, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entered, _, release := holdDump(s)
	defer release()
	before := s.Tracer().WriteStats().Checkpoints
	addVertices(t, s, 1, 15)
	within(t, "eight writers crossing the cadence", func() {
		var wg sync.WaitGroup
		for w := int64(0); w < 8; w++ {
			wg.Add(1)
			go func(id int64) {
				defer wg.Done()
				if err := s.AddVertex(id, nil); err != nil {
					t.Error(err)
				}
			}(100 + w)
		}
		wg.Wait()
	})
	release()
	within(t, "the one checkpoint", s.WaitCheckpointIdle)
	if n, done := entered.Load(), s.Tracer().WriteStats().Checkpoints-before; n != 1 || done != 1 {
		t.Fatalf("%d checkpoints started and %d completed, want exactly one", n, done)
	}
}

// A writer waits for the checkpoint only once the log has grown past
// maxLogFactor times the cadence — the bound on recovery time.
func TestCheckpointBackpressure(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), OutCols: 2, InCols: 2, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, arrived, release := holdDump(s)
	defer release()
	within(t, "writers below the bound", func() { addVertices(t, s, 1, 4*maxLogFactor-1) })
	<-arrived
	held := make(chan error, 1)
	go func() { held <- s.AddVertex(100, nil) }()
	// Its record becomes durable first — the wait is after the commit, and
	// costs no acknowledged write anything but time.
	within(t, "the commit of the write that reaches the bound", func() {
		for s.WAL().DurableLSN() != 4*maxLogFactor {
			runtime.Gosched()
		}
	})
	select {
	case err := <-held:
		t.Fatalf("the write that took the log to %d records returned (%v) with the checkpoint still held", 4*maxLogFactor, err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	within(t, "the writer held at the bound", func() {
		if err := <-held; err != nil {
			t.Error(err)
		}
	})
}

// The old protocol failed the checkpoint — and the innocent writer that
// ran it — when an append landed between the dump and the snapshot write
// ("snapshot at LSN x but log is at y"). Now that record is the log tail.
func TestCheckpointAppendBetweenPinAndInstall(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	addVertices(t, s, 1, 10)
	s.WAL().SetCheckpointHook(func(st wal.CheckpointStage) error {
		if st == wal.StageTempSynced {
			return s.AddEdge(500, 1, 2, "late", nil)
		}
		return nil
	})
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with an append between pin and install: %v", err)
	}
	ev := s.Events().Events()[0]
	if ev.Kind != "checkpoint" || ev.Err != "" || !strings.Contains(ev.Detail, "lsn=10 rows=10 ") || !strings.Contains(ev.Detail, " tail_records=1 exclusive_us=") {
		t.Fatalf("journal: %+v", ev)
	}
	frames, err := wal.ScanFrames(filepath.Join(dir, "wal.log"))
	if err != nil || len(frames) != 1 || frames[0].LSN != 11 {
		t.Fatalf("log after the checkpoint = %+v, %v; want the one late record", frames, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec, err := s2.Edge(500); err != nil || rec.Label != "late" {
		t.Fatalf("the late edge after reopen: %+v, %v", rec, err)
	}
	if vs := Check(s2); len(vs) != 0 {
		t.Fatalf("Check after reopen: %v", vs)
	}
}

// ---- crash safety beside two committing writers ---------------------------

// cpCrash says where one run of the matrix dies: at a protocol stage, or
// (stage empty) after limit bytes of the replacement log.
type cpCrash struct {
	stage wal.CheckpointStage
	limit int
}

func (c cpCrash) String() string {
	if c.stage != "" {
		return "crash at " + string(c.stage)
	}
	return fmt.Sprintf("crash after %d bytes of the replacement log", c.limit)
}

const (
	cpPreA  = 14        // ops writer A has committed before the checkpoint
	cpPreB  = 2         // vertices writer B has added before it
	cpBaseB = 1_000_000 // writer B's id range
)

// runCheckpointCrash takes one checkpoint while two writers commit beside
// its dump — A runs the crash sweep's scripted workload, B adds vertices
// of a disjoint id range — kills the process image where c says, recovers
// and checks: Check-clean, equal to the oracle's committed prefix, no
// acknowledged write lost, and fit to carry on. With c.stage "none" the
// checkpoint completes; the size of its replacement log is returned.
func runCheckpointCrash(t *testing.T, ops []wop, opts Options, c cpCrash) int64 {
	t.Helper()
	ctx := c.String()
	dir := t.TempDir()
	opts.Dir, opts.OutCols, opts.InCols, opts.SnapshotEvery = dir, 2, 2, -1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cpPreA; i++ {
		if err := applyWop(s, ops[i]); err != nil {
			t.Fatalf("%s: op %d: %v", ctx, i, err)
		}
	}
	addB := func(m graphMutator, j int) error {
		return m.AddVertex(cpBaseB+int64(j), map[string]any{"b": int64(j)})
	}
	for j := 0; j < cpPreB; j++ {
		if err := addB(s, j); err != nil {
			t.Fatal(err)
		}
	}

	// Each writer commits once while the dump is running, then waits for
	// the checkpoint to be over (installed, or dead) and carries on until
	// the dead log refuses it.
	dumping, resume := make(chan struct{}), make(chan struct{})
	var during, writers sync.WaitGroup
	ackedA, ackedB := cpPreA, cpPreB
	writer := func(acked *int, limit int, apply func(int) error) {
		defer writers.Done()
		<-dumping
		err := apply(*acked)
		if err == nil {
			*acked++
		}
		during.Done()
		<-resume
		for err == nil && *acked < limit {
			if err = apply(*acked); err == nil {
				*acked++
			}
		}
		if err != nil && !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%s: writer stopped on a real error: %v", ctx, err)
		}
	}
	during.Add(2)
	writers.Add(2)
	go writer(&ackedA, cpPreA+6, func(i int) error { return applyWop(s, ops[i]) })
	go writer(&ackedB, cpPreB+6, func(j int) error { return addB(s, j) })

	l := s.WAL()
	l.SetCheckpointHook(func(st wal.CheckpointStage) error {
		switch {
		case st == c.stage:
			return faultinject.ErrInjected
		case st == wal.StageDump:
			close(dumping)
			during.Wait()
		case st == wal.StageTempSynced && c.stage == "":
			l.SetWriteHook(faultinject.ByteLimit(c.limit)) // the writers are parked: it gates the log swap only
		}
		return nil
	})
	err = s.Checkpoint()
	var tailBytes int64
	if c.stage == "none" {
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		st, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		tailBytes = st.Size()
		l.Kill(faultinject.ErrInjected)
	} else if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("%s: checkpoint returned %v, want the injected fault", ctx, err)
	}
	if c.stage == wal.StageDump {
		close(dumping) // died before the hook could say so
		during.Wait()
	}
	close(resume)
	writers.Wait()
	_ = s.Close() // the dead process's file handles; a killed log reports its crash here

	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("%s: recover: %v", ctx, err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("%s: reopen: %v", ctx, err)
	}
	if vs := Check(s2); len(vs) != 0 {
		t.Fatalf("%s: fsck violations after recovery: %v", ctx, vs)
	}
	// Every op logs one record, so the recovered LSN splits into A's and
	// B's committed prefixes once B's is read off its vertices.
	kB := 0
	for s2.VertexExists(cpBaseB + int64(kB)) {
		kB++
	}
	kA := int(st.NextLSN-1) - kB
	if kA < ackedA || kA > ackedA+1 || kB < ackedB || kB > ackedB+1 {
		t.Fatalf("%s: recovered %d of A's ops and %d of B's; acknowledged were %d and %d", ctx, kA, kB, ackedA, ackedB)
	}
	g := oracleAfter(t, ops, kA)
	for j := 0; j < kB; j++ {
		if err := addB(g, j); err != nil {
			t.Fatal(err)
		}
	}
	assertStoreMatchesOracle(t, s2, g, ctx+" (recovered prefix)")

	// The recovered store carries on — on a log that may start with frames
	// its snapshot already covers — and a second recovery agrees.
	for i := kA; i < kA+8; i++ {
		if err := applyWop(s2, ops[i]); err != nil {
			t.Fatalf("%s: continuing op %d after recovery: %v", ctx, i, err)
		}
		if err := applyWop(g, ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("%s: second reopen: %v", ctx, err)
	}
	defer s3.Close()
	if vs := Check(s3); len(vs) != 0 {
		t.Fatalf("%s: fsck violations after the second recovery: %v", ctx, vs)
	}
	assertStoreMatchesOracle(t, s3, g, ctx+" (carried on, recovered again)")
	return tailBytes
}

var cpCrashStages = []wal.CheckpointStage{
	wal.StageDump, wal.StageTempSynced, wal.StageSnapshotRenamed, wal.StageLogRenamed,
}

func TestCheckpointCrashSweep(t *testing.T) {
	ops := buildWorkload(60)
	tail := runCheckpointCrash(t, ops, Options{}, cpCrash{stage: "none"})
	if tail == 0 {
		t.Fatal("the clean run's replacement log is empty: the writers did not commit beside the dump")
	}
	for _, st := range cpCrashStages {
		runCheckpointCrash(t, ops, Options{}, cpCrash{stage: st})
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for n := 0; n < int(tail); n += stride {
		runCheckpointCrash(t, ops, Options{}, cpCrash{limit: n})
	}
}

// The same stages under the paper's soft delete.
func TestCheckpointCrashSweepSoftDelete(t *testing.T) {
	ops := buildWorkload(60)
	opts := Options{DeleteMode: DeletePaperSoft}
	for _, st := range append([]wal.CheckpointStage{"none"}, cpCrashStages...) {
		runCheckpointCrash(t, ops, opts, cpCrash{stage: st})
	}
}

// Automatic checkpoints beside four writers sharing fsyncs: whatever was
// acknowledged is recovered.
func TestBackgroundCheckpointsConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				if err := s.AddVertex(base+i, map[string]any{"n": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) * 1000)
	}
	wg.Wait()
	s.WaitCheckpointIdle()
	ws := s.Tracer().WriteStats()
	if ws.Checkpoints < 2 || ws.CheckpointErrors != 0 {
		t.Fatalf("%d checkpoints, %d failed; want several, none failed", ws.Checkpoints, ws.CheckpointErrors)
	}
	if n := s.WAL().RecordsSinceSnapshot(); n >= writers*each {
		t.Fatalf("log still holds all %d records", n)
	}
	s.WAL().Kill(errors.New("crashed"))
	_ = s.Close()
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if vs := Check(s2); len(vs) != 0 {
		t.Fatalf("Check after recovery: %v", vs)
	}
	if n := s2.CountVertices(); n != writers*each {
		t.Fatalf("%d vertices recovered, %d acknowledged", n, writers*each)
	}
}

// ---- lifecycle ------------------------------------------------------------

// The benchmark harness kills the WAL and opens the directory again
// without closing the old store, whose checkpoint may be mid-dump: that
// checkpoint must never touch the successor's files.
func TestKilledStoreNeverInstalls(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, arrived, release := holdDump(s)
	defer release()
	addVertices(t, s, 1, 8)
	<-arrived
	s.WAL().Kill(errors.New("simulated crash"))

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	addVertices(t, s2, 9, 12)
	release()
	within(t, "the dead store's checkpoint", s.WaitCheckpointIdle)
	if ws := s.Tracer().WriteStats(); ws.CheckpointErrors != 1 {
		t.Fatalf("the dead store's checkpoint: %d errors counted, want 1", ws.CheckpointErrors)
	}
	if ev := s.Events().Events()[0]; ev.Kind != "checkpoint" || ev.Err == "" {
		t.Fatalf("journal: %+v, want the failed checkpoint", ev)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatalf("the successor's own checkpoint: %v", err)
	}
	addVertices(t, s2, 13, 14)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if n := s3.CountVertices(); n != 14 {
		t.Fatalf("%d vertices, want 14", n)
	}
	if vs := Check(s3); len(vs) != 0 {
		t.Fatalf("Check: %v", vs)
	}
}

// Close waits for the checkpoint in flight, and starts no other.
func TestCloseDrainsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, arrived, release := holdDump(s)
	addVertices(t, s, 1, 8)
	<-arrived
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a checkpoint in its dump", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	within(t, "Close behind the checkpoint", func() {
		if err := <-closed; err != nil {
			t.Error(err)
		}
	})
	if ws := s.Tracer().WriteStats(); ws.CheckpointErrors != 0 || s.PinnedSnapshots() != 0 {
		t.Fatalf("%d checkpoint errors, %d pins after Close", ws.CheckpointErrors, s.PinnedSnapshots())
	}
	if lsn, err := wal.ReadSnapshotLSN(filepath.Join(dir, "snapshot.db")); err != nil || lsn != 8 {
		t.Fatalf("snapshot on disk at LSN %d, %v; want 8", lsn, err)
	}
}

// ---- statistics -----------------------------------------------------------

// histSignature probes every histogram the planner reads at a grid of
// values; two signatures are equal iff the histograms answer alike.
func histSignature(s *Store) string {
	var b strings.Builder
	for _, tc := range []struct {
		table string
		col   int
	}{{TableVA, vaVID}, {TableEA, eaINV}, {TableEA, eaOUTV}} {
		for v := int64(0); v <= 1200; v += 7 {
			hi := rel.NewInt(v)
			f, ok := s.OptimizerStats().SelRange(tc.table, tc.col, nil, &hi)
			fmt.Fprintf(&b, "%s.%d<=%d:%v:%.4f ", tc.table, tc.col, v, ok, f)
		}
	}
	return b.String()
}

// A background checkpoint refreshes the histograms from its own scan: they
// equal what RefreshStats built at the version it pinned — rows committed
// beside the dump are not in them — with one StatsVersion bump, and the
// maintained counters still equal a from-scratch rebuild.
func TestCheckpointRefreshesHistogramsFromItsScan(t *testing.T) {
	const build = 50 + 120 // commits that build the graph
	s, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: build + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := blueprints.NewMemGraph()
	for v := int64(0); v < 50; v++ {
		mutateBoth(t, s, g, func(m graphMutator) error { return m.AddVertex(v, map[string]any{"n": v}) })
	}
	for e := int64(0); e < 120; e++ {
		mutateBoth(t, s, g, func(m graphMutator) error {
			return m.AddEdge(100+e, (e*7)%50, (e*13+5)%50, []string{"a", "b", "c"}[e%3], nil)
		})
	}
	stale := histSignature(s) // of the empty store Open checkpointed
	if err := s.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	want := histSignature(s)
	if want == stale {
		t.Fatal("the probe grid cannot tell the histograms apart")
	}

	// Rows committed while the dump runs extend every histogram's range —
	// in the store, not in what this checkpoint installs.
	const beside = 20 + 20
	s.WAL().SetCheckpointHook(func(st wal.CheckpointStage) error {
		if st != wal.StageDump {
			return nil
		}
		for v := int64(1000); v < 1020; v++ {
			if err := s.AddVertex(v, nil); err != nil {
				return err
			}
		}
		for e := int64(0); e < 20; e++ {
			if err := s.AddEdge(2000+e, 1000+e, 1000+(e+1)%20, "far", nil); err != nil {
				return err
			}
		}
		return nil
	})
	// The commit that crosses the cadence leaves the histogram columns
	// alone, so the pinned version is the one RefreshStats just saw.
	v0 := s.OptimizerStats().StatsVersion()
	if err := s.SetVertexAttr(0, "touched", true); err != nil {
		t.Fatal(err)
	}
	within(t, "the background checkpoint", s.WaitCheckpointIdle)
	if ws := s.Tracer().WriteStats(); ws.Checkpoints != 2 || ws.CheckpointErrors != 0 {
		t.Fatalf("%d checkpoints, %d errors; want the one Open took and the background one", ws.Checkpoints, ws.CheckpointErrors)
	}
	if got := histSignature(s); got != want {
		t.Fatalf("histograms after the checkpoint differ from RefreshStats at its pinned version:\n got %s\nwant %s", got, want)
	}
	if bumps := s.OptimizerStats().StatsVersion() - v0; bumps != 1+beside+1 {
		t.Fatalf("StatsVersion moved by %d: want one per commit (%d) and one for the checkpoint", bumps, 1+beside)
	}
	prints := map[string]string{}
	for _, name := range s.OptimizerStats().TableNames() {
		prints[name] = s.OptimizerStats().Fingerprint(name)
	}
	if err := s.RefreshStats(); err != nil {
		t.Fatal(err)
	}
	for name, fp := range prints {
		if got := s.OptimizerStats().Fingerprint(name); got != fp {
			t.Fatalf("%s: maintained statistics differ from a from-scratch rebuild:\n got %s\nwant %s", name, fp, got)
		}
	}
	if histSignature(s) == want {
		t.Fatal("RefreshStats did not pick up the rows committed beside the dump")
	}
}

// SnapshotBytes is the same pinned dump: it neither waits for a checkpoint
// in flight nor stops a writer, and decodes to the state at its LSN.
func TestSnapshotBytesBesideCheckpointAndWriter(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), OutCols: 2, InCols: 2, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, arrived, release := holdDump(s)
	defer release()
	addVertices(t, s, 1, 8)
	<-arrived
	var data []byte
	var lsn uint64
	within(t, "SnapshotBytes beside a held checkpoint", func() {
		addVertices(t, s, 9, 10)
		if data, lsn, err = s.SnapshotBytes(); err != nil {
			t.Error(err)
		}
		addVertices(t, s, 11, 12)
	})
	snap, err := wal.DecodeSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 10 || snap.LastLSN != 10 || len(snap.Tables[TableVA]) != 10 {
		t.Fatalf("snapshot at LSN %d (header %d) with %d vertices, want 10, 10, 10", lsn, snap.LastLSN, len(snap.Tables[TableVA]))
	}
	if pins := s.PinnedSnapshots(); pins != 1 {
		t.Fatalf("%d pins: want only the held checkpoint's", pins)
	}
}
