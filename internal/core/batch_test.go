package core

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/faultinject"
	"sqlgraph/internal/wal"
)

// batchFixture is a mixed batch covering every batchable op kind, with
// the oracle mutations that should result.
func batchFixture() ([]wal.Record, func(g graphMutator) error) {
	recs := []wal.Record{
		BatchAddVertex(1, map[string]any{"name": "ada"}),
		BatchAddVertex(2, map[string]any{"name": "bob"}),
		BatchAddVertex(3, nil),
		BatchAddEdge(100, 1, 2, "knows", map[string]any{"since": int64(1970)}),
		BatchAddEdge(101, 2, 3, "knows", nil),
		BatchSetVertexAttr(1, "age", int64(36)),
		BatchSetEdgeAttr(100, "w", 0.5),
		BatchRemoveVertexAttr(2, "name"),
		BatchRemoveEdgeAttr(100, "w"),
		BatchRemoveEdge(101),
		BatchRemoveVertex(3),
	}
	oracle := func(g graphMutator) error {
		steps := []error{
			g.AddVertex(1, map[string]any{"name": "ada"}),
			g.AddVertex(2, map[string]any{"name": "bob"}),
			g.AddVertex(3, nil),
			g.AddEdge(100, 1, 2, "knows", map[string]any{"since": int64(1970)}),
			g.AddEdge(101, 2, 3, "knows", nil),
			g.SetVertexAttr(1, "age", int64(36)),
			g.SetEdgeAttr(100, "w", 0.5),
			g.RemoveVertexAttr(2, "name"),
			g.RemoveEdgeAttr(100, "w"),
			g.RemoveEdge(101),
			g.RemoveVertex(3),
		}
		for _, err := range steps {
			if err != nil {
				return err
			}
		}
		return nil
	}
	return recs, oracle
}

func TestApplyBatchCorrectness(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs, oracle := batchFixture()
	if err := s.ApplyBatch(recs); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	g := blueprints.NewMemGraph()
	if err := oracle(g); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesOracle(t, s, g, "after batch")
	if vs := Check(s); len(vs) != 0 {
		t.Fatalf("Check violations: %v", vs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every batched op is one WAL record with consecutive LSNs, exactly
	// like individually-issued mutations — the replication stream cannot
	// tell them apart.
	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != len(recs) {
		t.Fatalf("log holds %d records for a %d-op batch", len(st.Records), len(recs))
	}
	for i, r := range st.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}

	// Reopen: the batch replays through the same stored procedures.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStoreMatchesOracle(t, s2, g, "after reopen")
}

func TestApplyBatchAtomicRollback(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddVertex(7, map[string]any{"keep": true}); err != nil {
		t.Fatal(err)
	}

	// Op 2 fails (duplicate vertex): nothing from the batch may stick,
	// and the error must name the offending op.
	bad := []wal.Record{
		BatchAddVertex(8, nil),
		BatchAddEdge(200, 7, 8, "x", nil),
		BatchAddVertex(7, nil),
	}
	err = s.ApplyBatch(bad)
	if err == nil {
		t.Fatal("ApplyBatch with a duplicate vertex succeeded")
	}
	if !errors.Is(err, blueprints.ErrExists) {
		t.Fatalf("error %v does not unwrap to ErrExists", err)
	}
	if !strings.Contains(err.Error(), "batch op 2") {
		t.Fatalf("error %q does not name the failing op index", err)
	}

	g := blueprints.NewMemGraph()
	if err := g.AddVertex(7, map[string]any{"keep": true}); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesOracle(t, s, g, "after failed batch")
	if s.WAL().LastLSN() != 1 {
		t.Fatalf("failed batch appended WAL records: LastLSN = %d", s.WAL().LastLSN())
	}

	// The store keeps working, including the ops the dead batch touched.
	good := []wal.Record{
		BatchAddVertex(8, nil),
		BatchAddEdge(200, 7, 8, "x", nil),
	}
	if err := s.ApplyBatch(good); err != nil {
		t.Fatalf("follow-up batch: %v", err)
	}
	if err := g.AddVertex(8, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(200, 7, 8, "x", nil); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesOracle(t, s, g, "after follow-up batch")
}

func TestApplyBatchRejectsNonBatchableOps(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ApplyBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	err = s.ApplyBatch([]wal.Record{{Op: wal.OpVacuum}})
	if err == nil || !strings.Contains(err.Error(), "not batchable") {
		t.Fatalf("vacuum in a batch: %v, want a not-batchable error", err)
	}
}

// TestApplyBatchCrashPrefixAndReplicaResync kills the store mid-batch-
// fsync at several byte limits. Recovery must always yield a consistent
// committed prefix (fsck-clean, consecutive LSNs), and a follower fed
// the recovered tail through ApplyReplicated must converge on it — a
// batch sharing one fsync must not perturb the record-per-mutation,
// consecutive-LSN contract replication relies on.
func TestApplyBatchCrashPrefixAndReplicaResync(t *testing.T) {
	// Size the crash points off a clean run of the same workload.
	cleanDir := t.TempDir()
	clean, err := Open(Options{Dir: cleanDir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	cleanRecs, _ := batchFixture()
	for _, chunk := range [][]wal.Record{cleanRecs[:5], cleanRecs[5:9], cleanRecs[9:]} {
		if err := clean.ApplyBatch(chunk); err != nil {
			t.Fatalf("clean run: %v", err)
		}
	}
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	frames, err := wal.ScanFrames(filepath.Join(cleanDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	last := frames[len(frames)-1]
	logBytes := last.Offset + last.Size

	for _, limit := range []int{0, logBytes / 8, logBytes / 3, logBytes / 2, 3 * logBytes / 4} {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		s.WAL().SetWriteHook(faultinject.ByteLimit(limit))

		recs, _ := batchFixture()
		crashed := false
		// Feed the fixture in three batches so the crash can land between
		// and inside batch flushes.
		for _, chunk := range [][]wal.Record{recs[:5], recs[5:9], recs[9:]} {
			if err := s.ApplyBatch(chunk); err != nil {
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("limit %d: non-injected failure: %v", limit, err)
				}
				crashed = true
				break
			}
		}
		if !crashed {
			t.Fatalf("limit %d: workload completed without crashing (%d log bytes)", limit, logBytes)
		}

		// Recover the crashed directory like a fresh process would.
		st, err := wal.Recover(dir)
		if err != nil {
			t.Fatalf("limit %d: recover: %v", limit, err)
		}
		for i, r := range st.Records {
			if r.LSN != uint64(i+1) {
				t.Fatalf("limit %d: recovered record %d has LSN %d", limit, i, r.LSN)
			}
		}
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("limit %d: reopen: %v", limit, err)
		}
		if vs := Check(s2); len(vs) != 0 {
			t.Fatalf("limit %d: fsck violations after recovery: %v", limit, vs)
		}

		// Resync a blank follower from the recovered primary's log.
		f, err := Open(Options{Dir: t.TempDir(), OutCols: 2, InCols: 2, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range st.Records {
			applied, err := f.ApplyReplicated(rec)
			if err != nil {
				t.Fatalf("limit %d: follower apply LSN %d: %v", limit, rec.LSN, err)
			}
			if !applied {
				t.Fatalf("limit %d: LSN %d skipped as duplicate on a blank follower", limit, rec.LSN)
			}
		}
		assertConverged(t, s2, f, "resync after crash")
		s2.Close()
		f.Close()
	}
}

// TestConcurrentWritersDurability is the -race contract for the whole
// store: N writers mutate a durable store concurrently; every
// mutation that returned success must be on disk even though the
// process never closes cleanly (the dirty Log is simply abandoned).
func TestConcurrentWritersDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 25
	var ok atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * perWriter)
			for i := int64(0); i < perWriter; i++ {
				if err := s.AddVertex(base+i, map[string]any{"w": int64(w)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()

	// No Close: read the directory as-is, like a post-crash recovery.
	st, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(st.Records)) != ok.Load() {
		t.Fatalf("recovered %d records, %d mutations returned success", len(st.Records), ok.Load())
	}
	for i, r := range st.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	s.Close()
}
