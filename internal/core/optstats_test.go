package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/wal"
)

// The stats-maintenance invariant: after any sequence of mutations, the
// incrementally maintained optimizer statistics must be bit-identical to
// a from-scratch rebuild (histograms excluded by design — they are
// rebuild-only). Fingerprint covers row counts, per-column counters,
// sketch cell arrays, and per-group counters.

// statsLiveVertices is the live vertex count the planner statistics
// carry: VA rows times the fraction of VIDs a soft delete has not negated.
func statsLiveVertices(s *Store) float64 {
	rows, _ := s.OptimizerStats().TableRows(TableVA)
	frac, _ := s.OptimizerStats().FracNonNeg(TableVA, vaVID)
	return float64(rows) * frac
}

// fingerprintAll snapshots every tracked table's fingerprint.
func fingerprintAll(s *Store) map[string]string {
	out := map[string]string{}
	for _, name := range s.OptimizerStats().TableNames() {
		out[name] = s.OptimizerStats().Fingerprint(name)
	}
	return out
}

// requireStatsExact rebuilds from scratch and fails on any divergence
// from the incrementally maintained state.
func requireStatsExact(t *testing.T, s *Store, context string) {
	t.Helper()
	incr := fingerprintAll(s)
	if err := s.RefreshStats(); err != nil {
		t.Fatalf("%s: rebuild: %v", context, err)
	}
	rebuilt := fingerprintAll(s)
	for name, want := range rebuilt {
		if incr[name] != want {
			t.Errorf("%s: %s incremental stats diverged from rebuild:\nincremental:\n%s\nrebuild:\n%s",
				context, name, incr[name], want)
		}
	}
}

var statLabels = []string{"likes", "knows", "created"}

// randomMutations drives n random operations against the store, tracking
// live ids so deletions mostly hit. Returns the next fresh id.
func randomMutations(t *testing.T, s *Store, rng *rand.Rand, n int, nextID int64) int64 {
	t.Helper()
	var vids, eids []int64
	collect := func() {
		vids, eids = vids[:0], eids[:0]
		for _, v := range s.VertexIDs() {
			vids = append(vids, v)
		}
		for _, e := range s.EdgeIDs() {
			eids = append(eids, e)
		}
	}
	collect()
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 3: // add vertex
			id := nextID
			nextID++
			if err := s.AddVertex(id, map[string]any{"k": int64(rng.Intn(5))}); err != nil {
				t.Fatal(err)
			}
			vids = append(vids, id)
		case op < 6 && len(vids) >= 2: // add edge
			id := nextID
			nextID++
			from := vids[rng.Intn(len(vids))]
			to := vids[rng.Intn(len(vids))]
			lbl := statLabels[rng.Intn(len(statLabels))]
			if err := s.AddEdge(id, from, to, lbl, map[string]any{"w": 0.5}); err == nil {
				eids = append(eids, id)
			}
		case op == 6 && len(eids) > 0: // remove edge
			k := rng.Intn(len(eids))
			_ = s.RemoveEdge(eids[k])
			eids = append(eids[:k], eids[k+1:]...)
		case op == 7 && len(vids) > 3: // remove vertex (cascades)
			k := rng.Intn(len(vids))
			_ = s.RemoveVertex(vids[k])
			vids = append(vids[:k], vids[k+1:]...)
			collect() // incident edges went with it
		case op == 8 && len(vids) > 0: // attr churn
			_ = s.SetVertexAttr(vids[rng.Intn(len(vids))], "tag", int64(rng.Intn(100)))
		case op == 9: // batch
			var recs []wal.Record
			for b := 0; b < 3; b++ {
				id := nextID
				nextID++
				recs = append(recs, BatchAddVertex(id, map[string]any{"k": int64(rng.Intn(5))}))
				vids = append(vids, id)
			}
			if len(vids) >= 2 {
				id := nextID
				nextID++
				recs = append(recs, BatchAddEdge(id, vids[rng.Intn(len(vids))], vids[rng.Intn(len(vids))],
					statLabels[rng.Intn(len(statLabels))], nil))
				eids = append(eids, id)
			}
			if err := s.ApplyBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nextID
}

// TestStatsInvariantInterleaved interleaves every mutation path — the
// per-op stored procedures, ApplyBatch, and Vacuum — and requires the
// maintained stats to match a rebuild after each phase.
func TestStatsInvariantInterleaved(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	next := int64(1)
	for i := 0; i < 20; i++ {
		if err := s.AddVertex(next, map[string]any{"k": int64(i % 4)}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	next = randomMutations(t, s, rng, 300, next)
	requireStatsExact(t, s, "after mutations")

	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	requireStatsExact(t, s, "after vacuum")

	randomMutations(t, s, rng, 150, next)
	requireStatsExact(t, s, "after post-vacuum mutations")
}

// TestStatsInvariantWriterChurn hammers the serialized write path from
// many goroutines while readers run queries; the maintained stats must
// still match a rebuild. Run under -race in CI.
func TestStatsInvariantWriterChurn(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * 10000
			for i := int64(0); i < 80; i++ {
				id := base + i
				if err := s.AddVertex(id, map[string]any{"k": id % 5}); err != nil {
					t.Error(err)
					return
				}
				if i > 0 {
					_ = s.AddEdge(base+1000+i, id, id-1, statLabels[w%len(statLabels)], nil)
				}
				if i%10 == 9 {
					_ = s.RemoveEdge(base + 1000 + i)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			_, _ = s.Query("g.V.has('k', 2).out('likes').count()")
			_ = statsLiveVertices(s) // statistics read concurrent with writers
		}
	}()
	wg.Wait()
	<-done
	requireStatsExact(t, s, "after writer churn")
}

// TestStatsInvariantCrashRecovery mutates a durable store, drops it
// without checkpointing (simulated crash), reopens, and requires the
// recovered stats — rebuilt during WAL replay through the observer — to
// match a from-scratch rebuild, and the live vertex count to be exact.
func TestStatsInvariantCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	next := int64(1)
	for i := 0; i < 10; i++ {
		if err := s.AddVertex(next, map[string]any{"k": int64(i % 3)}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	randomMutations(t, s, rng, 120, next)
	liveVertices := s.CountVertices()
	// Abandon without Close: recovery replays the flushed WAL tail.

	re, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireStatsExact(t, re, "after crash recovery")
	if got := int(statsLiveVertices(re)); got != liveVertices {
		t.Errorf("recovered live vertex count = %d, want %d", got, liveVertices)
	}
	if re.OptimizerStats().Fingerprint(TableVA) == "" {
		t.Error("recovered store has no VA stats")
	}
	_ = s.Close()
}

// TestStatsInvariantReplicated drives a follower through ApplyReplicated
// and checks the maintained stats there too.
func TestStatsInvariantReplicated(t *testing.T) {
	follower, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	recs := []wal.Record{
		BatchAddVertex(1, map[string]any{"k": int64(1)}),
		BatchAddVertex(2, map[string]any{"k": int64(2)}),
		BatchAddVertex(3, nil),
		BatchAddEdge(10, 1, 2, "knows", map[string]any{"w": 0.9}),
		BatchAddEdge(11, 2, 3, "likes", nil),
		BatchAddEdge(12, 2, 1, "likes", nil),
		BatchRemoveEdge(10),
		BatchRemoveVertex(3), // cascades: edge 11 goes with it
	}
	for i := range recs {
		recs[i].LSN = uint64(i + 1)
		if _, err := follower.ApplyReplicated(recs[i]); err != nil {
			t.Fatalf("apply LSN %d: %v", recs[i].LSN, err)
		}
	}
	requireStatsExact(t, follower, "after replicated apply")
	if got := statsLiveVertices(follower); got != 2 {
		t.Errorf("live vertex count = %v, want 2", got)
	}
	if n, _ := follower.OptimizerStats().GroupCount(TableEA, rel.NewString("likes")); n <= 0 {
		t.Errorf("likes edges = %v, want > 0", n)
	}
	if n, _ := follower.OptimizerStats().GroupCount(TableEA, rel.NewString("knows")); n != 0 {
		t.Errorf("knows edges = %v, want 0 after edge removal", n)
	}
}

// TestStatsCheckpointRefreshesHistograms checks the invalidation rule:
// histograms appear at load and refresh at checkpoint, not per-mutation.
func TestStatsCheckpointRefreshesHistograms(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(1); i <= 30; i++ {
		if err := s.AddVertex(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hist := func() string {
		for _, td := range s.OptimizerStats().Describe(0) {
			if td.Table == TableVA {
				for _, c := range td.Cols {
					if c.Ordinal == vaVID {
						return fmt.Sprintf("[%s, %s]", c.HistMin, c.HistMax)
					}
				}
			}
		}
		return ""
	}
	if got := hist(); got != "[1, 30]" {
		t.Fatalf("VA VID histogram after checkpoint = %s, want [1, 30]", got)
	}
	// More vertices: the histogram is stale until the next checkpoint.
	for i := int64(31); i <= 40; i++ {
		if err := s.AddVertex(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := hist(); got != "[1, 30]" {
		t.Fatalf("histogram refreshed outside checkpoint: %s", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := hist(); got != "[1, 40]" {
		t.Fatalf("histogram after second checkpoint = %s, want [1, 40]", got)
	}
}
