package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/sqljson"
	"sqlgraph/internal/wal"
)

// graphMutator is the mutation surface shared by the durable store and
// the in-memory oracle.
type graphMutator interface {
	AddVertex(id int64, attrs map[string]any) error
	AddEdge(id, out, in int64, label string, attrs map[string]any) error
	RemoveEdge(id int64) error
	RemoveVertex(id int64) error
	SetVertexAttr(id int64, key string, val any) error
	RemoveVertexAttr(id int64, key string) error
	SetEdgeAttr(id int64, key string, val any) error
	RemoveEdgeAttr(id int64, key string) error
}

var (
	_ graphMutator = (*Store)(nil)
	_ graphMutator = (*blueprints.MemGraph)(nil)
)

func attrsEqual(a, b map[string]any) bool {
	return sqljson.FromMap(a).String() == sqljson.FromMap(b).String()
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// assertStoreMatchesOracle compares the store's full logical read view
// against the oracle: vertex set, edge set, endpoint records, attribute
// documents, and per-vertex incidence lists.
func assertStoreMatchesOracle(t *testing.T, s *Store, g *blueprints.MemGraph, ctx string) {
	t.Helper()
	svids, gvids := sortedIDs(s.VertexIDs()), sortedIDs(g.VertexIDs())
	if !reflect.DeepEqual(svids, gvids) {
		t.Fatalf("%s: vertex ids: store %v, oracle %v", ctx, svids, gvids)
	}
	seids, geids := sortedIDs(s.EdgeIDs()), sortedIDs(g.EdgeIDs())
	if !reflect.DeepEqual(seids, geids) {
		t.Fatalf("%s: edge ids: store %v, oracle %v", ctx, seids, geids)
	}
	for _, v := range gvids {
		sa, err := s.VertexAttrs(v)
		if err != nil {
			t.Fatalf("%s: store VertexAttrs(%d): %v", ctx, v, err)
		}
		ga, _ := g.VertexAttrs(v)
		if !attrsEqual(sa, ga) {
			t.Fatalf("%s: vertex %d attrs: store %v, oracle %v", ctx, v, sa, ga)
		}
		for _, dir := range []string{"out", "in"} {
			var se, ge []blueprints.EdgeRec
			if dir == "out" {
				se, err = s.OutEdges(v)
				ge, _ = g.OutEdges(v)
			} else {
				se, err = s.InEdges(v)
				ge, _ = g.InEdges(v)
			}
			if err != nil {
				t.Fatalf("%s: store %sEdges(%d): %v", ctx, dir, v, err)
			}
			sort.Slice(ge, func(i, j int) bool { return ge[i].ID < ge[j].ID })
			if len(se) == 0 && len(ge) == 0 {
				continue
			}
			if !reflect.DeepEqual(se, ge) {
				t.Fatalf("%s: vertex %d %s-edges: store %v, oracle %v", ctx, v, dir, se, ge)
			}
		}
	}
	for _, e := range geids {
		srec, err := s.Edge(e)
		if err != nil {
			t.Fatalf("%s: store Edge(%d): %v", ctx, e, err)
		}
		grec, _ := g.Edge(e)
		if srec != grec {
			t.Fatalf("%s: edge %d: store %+v, oracle %+v", ctx, e, srec, grec)
		}
		sa, err := s.EdgeAttrs(e)
		if err != nil {
			t.Fatalf("%s: store EdgeAttrs(%d): %v", ctx, e, err)
		}
		ga, _ := g.EdgeAttrs(e)
		if !attrsEqual(sa, ga) {
			t.Fatalf("%s: edge %d attrs: store %v, oracle %v", ctx, e, sa, ga)
		}
	}
}

// mutateBoth applies one mutation to the store and the oracle, failing on
// any error or divergence in error behavior.
func mutateBoth(t *testing.T, s *Store, g *blueprints.MemGraph, fn func(m graphMutator) error) {
	t.Helper()
	if err := fn(s); err != nil {
		t.Fatalf("store mutation: %v", err)
	}
	if err := fn(g); err != nil {
		t.Fatalf("oracle mutation: %v", err)
	}
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := blueprints.NewMemGraph()

	for v := int64(1); v <= 5; v++ {
		v := v
		mutateBoth(t, s, g, func(m graphMutator) error { return m.AddVertex(v, map[string]any{"n": v}) })
	}
	mutateBoth(t, s, g, func(m graphMutator) error { return m.AddEdge(10, 1, 2, "a", map[string]any{"w": 1.5}) })
	mutateBoth(t, s, g, func(m graphMutator) error { return m.AddEdge(11, 1, 3, "a", nil) })
	mutateBoth(t, s, g, func(m graphMutator) error { return m.AddEdge(12, 2, 3, "b", nil) })
	mutateBoth(t, s, g, func(m graphMutator) error { return m.SetVertexAttr(1, "name", "ada") })
	mutateBoth(t, s, g, func(m graphMutator) error { return m.RemoveEdge(11) })
	mutateBoth(t, s, g, func(m graphMutator) error { return m.RemoveVertex(5) })

	// A value with no JSON form is refused before anything is logged, by
	// every mutation that carries one; a stored NaN would be logged as text
	// the replay cannot parse, and the directory could not be reopened.
	lsn := s.AppliedLSN()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		attrs := map[string]any{"x": bad}
		for _, c := range []struct {
			op  string
			err error
		}{
			{"AddVertex", s.AddVertex(6, attrs)},
			{"AddEdge", s.AddEdge(14, 1, 2, "a", attrs)},
			{"SetVertexAttr", s.SetVertexAttr(1, "x", bad)},
			{"SetEdgeAttr", s.SetEdgeAttr(10, "x", bad)},
			{"ApplyBatch", s.ApplyBatch([]wal.Record{BatchAddVertex(7, nil), BatchSetVertexAttr(7, "x", bad)})},
		} {
			if c.err == nil {
				t.Errorf("%s with %v succeeded", c.op, bad)
			}
		}
		if got := s.AppliedLSN(); got != lsn {
			t.Fatalf("refused writes of %v moved the log from LSN %d to %d", bad, lsn, got)
		}
	}
	assertStoreMatchesOracle(t, s, g, "after refused writes")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with zero options: the snapshot written at first open pins
	// the real ones.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.OutColumns() != 2 || s2.InColumns() != 2 {
		t.Fatalf("options not pinned: OutCols=%d InCols=%d", s2.OutColumns(), s2.InColumns())
	}
	if v := Check(s2); len(v) != 0 {
		t.Fatalf("Check after reopen: %v", v)
	}
	assertStoreMatchesOracle(t, s2, g, "after reopen")

	// The store keeps working (and logging) after recovery.
	mutateBoth(t, s2, g, func(m graphMutator) error { return m.AddEdge(13, 3, 4, "c", nil) })
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	assertStoreMatchesOracle(t, s3, g, "after second reopen")
}

func TestDurableSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := blueprints.NewMemGraph()
	for v := int64(1); v <= 20; v++ {
		v := v
		mutateBoth(t, s, g, func(m graphMutator) error { return m.AddVertex(v, map[string]any{"n": v}) })
	}
	// 20 records at cadence 5: checkpoints ran beside the writer, each
	// keeping the records committed since it pinned its version. Once the
	// last one is done the log has been rotated at least once and holds
	// fewer records than a writer would have been made to wait at.
	s.WaitCheckpointIdle()
	frames, err := wal.ScanFrames(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if s.WAL().SnapshotLSN() == 0 || len(frames) >= 20 || len(frames) != s.WAL().RecordsSinceSnapshot() {
		t.Fatalf("log holds %d records after snapshot LSN %d; snapshot cadence 5 never rotated it", len(frames), s.WAL().SnapshotLSN())
	}
	if ws := s.Tracer().WriteStats(); ws.CheckpointErrors != 0 {
		t.Fatalf("%d checkpoints failed", ws.CheckpointErrors)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v := Check(s2); len(v) != 0 {
		t.Fatalf("Check after reopen: %v", v)
	}
	assertStoreMatchesOracle(t, s2, g, "after snapshot rotation")
}

func TestDurableLoad(t *testing.T) {
	g := blueprints.NewMemGraph()
	for v := int64(1); v <= 8; v++ {
		if err := g.AddVertex(v, map[string]any{"n": v}); err != nil {
			t.Fatal(err)
		}
	}
	eid := int64(100)
	for v := int64(2); v <= 8; v++ {
		if err := g.AddEdge(eid, 1, v, "l"+string(rune('a'+v%3)), nil); err != nil {
			t.Fatal(err)
		}
		eid++
	}
	dir := t.TempDir()

	// The loader stores what the record path stores: a value with no JSON
	// form fails the load before anything is written, so the directory
	// takes the next load; any other Go value is held as its JSON reading.
	bad := blueprints.NewMemGraph()
	if err := bad.AddVertex(1, map[string]any{"x": math.NaN()}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad, Options{Dir: dir}); err == nil {
		t.Fatal("Load of a NaN attribute succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.db")); !os.IsNotExist(err) {
		t.Fatalf("refused Load left a snapshot: %v", err)
	}
	if err := g.SetVertexAttr(2, "u", uint8(7)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexAttr(3, "f", float32(0.1)); err != nil {
		t.Fatal(err)
	}

	s, err := Load(g, Options{Dir: dir, OutCols: 2, InCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesOracle(t, s, g, "after durable load")
	mutateBoth(t, s, g, func(m graphMutator) error { return m.AddVertex(50, nil) })
	mutateBoth(t, s, g, func(m graphMutator) error { return m.SetVertexAttr(4, "u", int64(7)) })
	mutateBoth(t, s, g, func(m graphMutator) error { return m.SetVertexAttr(5, "u", uint16(7)) })
	countU7 := func(s *Store, when string) {
		t.Helper()
		for q, want := range map[string]int64{"g.V.has('u',7).count()": 3, "g.V.has('f',0.1).count()": 1} {
			res, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Values[0]; got != want {
				t.Errorf("%s: %s = %v, want %d", when, q, got, want)
			}
		}
	}
	countU7(s, "before reopen")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen must preserve the analyzed coloring and the loaded rows.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v := Check(s2); len(v) != 0 {
		t.Fatalf("Check after reopen: %v", v)
	}
	assertStoreMatchesOracle(t, s2, g, "after reopening loaded store")
	countU7(s2, "after reopen")

	// Loading into a non-empty directory must refuse.
	if _, err := Load(g, Options{Dir: dir}); err == nil {
		t.Fatal("Load into a non-empty directory succeeded")
	}
}

func TestFsck(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 4; v++ {
		if err := s.AddVertex(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, pair := range [][2]int64{{1, 2}, {1, 3}, {2, 3}, {3, 4}} {
		if err := s.AddEdge(int64(10+i), pair[0], pair[1], "a", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Healthy directory: no violations.
	if vs, err := Fsck(dir); err != nil || len(vs) != 0 {
		t.Fatalf("Fsck healthy dir: violations=%v err=%v", vs, err)
	}

	// Corrupt a mid-log record: Fsck must fail with ErrCorrupt.
	logPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := wal.ScanFrames(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("want >=3 frames, got %d", len(frames))
	}
	bad := append([]byte(nil), data...)
	bad[frames[1].Offset+8] ^= 0xFF
	if err := os.WriteFile(logPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Fsck(dir); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Fsck on corrupted log: %v, want ErrCorrupt", err)
	}
}
