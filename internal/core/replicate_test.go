package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"sqlgraph/internal/wal"
)

// tailRecords drains dir's log from LSN from, round-tripping the frames
// through the wire parser the replica receive path uses.
func tailRecords(t *testing.T, dir string, from uint64) []wal.Record {
	t.Helper()
	tr, err := wal.OpenTail(dir, from)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var recs []wal.Record
	for {
		b, infos, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if infos == nil {
			return recs
		}
		sr := wal.NewStreamReader(bytes.NewReader(b))
		for {
			rec, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
	}
}

// seedPrimary builds a durable primary with a few mutations of every kind.
func seedPrimary(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := s.AddVertex(i, map[string]any{"name": i}); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddEdge(100, 1, 2, "knows", map[string]any{"w": 1}))
	must(s.AddEdge(101, 2, 3, "knows", nil))
	must(s.AddEdge(102, 3, 1, "likes", nil))
	must(s.SetVertexAttr(1, "age", 36))
	must(s.SetEdgeAttr(100, "w", 2))
	must(s.RemoveEdgeAttr(100, "w"))
	must(s.RemoveVertexAttr(1, "age"))
	must(s.RemoveEdge(102))
	must(s.RemoveVertex(4))
	// Values whose Go form and JSON form differ: invalid UTF-8 (stored
	// as U+FFFD) and a uint8 (stored as the int64 its JSON reads back as).
	must(s.SetVertexAttr(2, "name", "a\xffb"))
	must(s.SetVertexAttr(3, "u", uint8(7)))
	return s
}

// seedCounts are the has() counts over seedPrimary's values whose Go form
// and JSON form differ; a primary, its reopened self and a follower must
// agree on them.
func seedCounts(t *testing.T, s *Store) [3]int {
	t.Helper()
	var out [3]int
	for i, q := range []string{"g.V.has('name','a\xffb')", "g.V.has('name','a\uFFFDb')", "g.V.has('u',7)"} {
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out[i] = res.Count()
	}
	return out
}

// assertConverged checks the follower serves the primary's exact state
// and its directory passes fsck.
func assertConverged(t *testing.T, primary, follower *Store, ctx string) {
	t.Helper()
	if p, f := primary.AppliedLSN(), follower.AppliedLSN(); p != f {
		t.Fatalf("%s: primary LSN %d, follower LSN %d", ctx, p, f)
	}
	pv, fv := sortedIDs(primary.VertexIDs()), sortedIDs(follower.VertexIDs())
	pe, fe := sortedIDs(primary.EdgeIDs()), sortedIDs(follower.EdgeIDs())
	if len(pv) != len(fv) || len(pe) != len(fe) {
		t.Fatalf("%s: primary %d/%d vertices/edges, follower %d/%d", ctx, len(pv), len(pe), len(fv), len(fe))
	}
	for i := range pv {
		if pv[i] != fv[i] {
			t.Fatalf("%s: vertex sets differ at %d: %d vs %d", ctx, i, pv[i], fv[i])
		}
		pa, err1 := primary.VertexAttrs(pv[i])
		fa, err2 := follower.VertexAttrs(fv[i])
		if err1 != nil || err2 != nil || !attrsEqual(pa, fa) {
			t.Fatalf("%s: vertex %d attrs: %v/%v vs %v/%v", ctx, pv[i], pa, err1, fa, err2)
		}
	}
	for i := range pe {
		if pe[i] != fe[i] {
			t.Fatalf("%s: edge sets differ at %d: %d vs %d", ctx, i, pe[i], fe[i])
		}
		pr, _ := primary.Edge(pe[i])
		fr, _ := follower.Edge(fe[i])
		if pr != fr {
			t.Fatalf("%s: edge %d: %+v vs %+v", ctx, pe[i], pr, fr)
		}
	}
	if vs := Check(follower); len(vs) != 0 {
		t.Fatalf("%s: follower invariants: %v", ctx, vs)
	}
}

func TestApplyReplicatedExactlyOnce(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := seedPrimary(t, pdir)
	defer p.Close()
	f, err := Open(Options{Dir: fdir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	recs := tailRecords(t, pdir, 1)
	if uint64(len(recs)) != p.AppliedLSN() {
		t.Fatalf("tailed %d records, primary at LSN %d", len(recs), p.AppliedLSN())
	}
	for _, rec := range recs {
		applied, err := f.ApplyReplicated(rec)
		if err != nil {
			t.Fatalf("apply LSN %d: %v", rec.LSN, err)
		}
		if !applied {
			t.Fatalf("LSN %d reported as duplicate on first delivery", rec.LSN)
		}
	}
	assertConverged(t, p, f, "after first apply")
	want := seedCounts(t, p)
	if want[2] != 1 {
		t.Fatalf("has('u',7) finds %d vertices on the primary, want 1", want[2])
	}
	if got := seedCounts(t, f); got != want {
		t.Fatalf("has() counts: primary %v, follower %v", want, got)
	}

	// Replaying the same range is a no-op: every record is skipped and the
	// state is unchanged (exactly-once keyed on LSN).
	for _, rec := range recs {
		applied, err := f.ApplyReplicated(rec)
		if err != nil {
			t.Fatalf("replay LSN %d: %v", rec.LSN, err)
		}
		if applied {
			t.Fatalf("LSN %d applied twice", rec.LSN)
		}
	}
	assertConverged(t, p, f, "after double replay")

	// The primary reopened from its own log answers as it did live.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(Options{Dir: pdir})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := seedCounts(t, p2); got != want {
		t.Fatalf("has() counts: primary %v before reopen, %v after", want, got)
	}
}

func TestApplyReplicatedGapDetected(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := seedPrimary(t, pdir)
	defer p.Close()
	f, err := Open(Options{Dir: fdir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	recs := tailRecords(t, pdir, 1)
	if _, err := f.ApplyReplicated(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Skipping a record must fail loudly, not silently diverge.
	if _, err := f.ApplyReplicated(recs[2]); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap apply: %v, want ErrReplicaGap", err)
	}
	// In-memory stores cannot apply at all.
	mem, err := Open(Options{OutCols: 2, InCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ApplyReplicated(recs[0]); err == nil {
		t.Fatal("in-memory ApplyReplicated succeeded")
	}
}

func TestApplyReplicatedSurvivesFollowerRestart(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := seedPrimary(t, pdir)
	defer p.Close()
	recs := tailRecords(t, pdir, 1)

	f, err := Open(Options{Dir: fdir, OutCols: 2, InCols: 2, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	half := len(recs) / 2
	for _, rec := range recs[:half] {
		if _, err := f.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the applied LSN is recovered with the store, so redelivery
	// of the full range applies only the unseen suffix.
	f2, err := Open(Options{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := f2.AppliedLSN(); got != uint64(half) {
		t.Fatalf("recovered applied LSN = %d, want %d", got, half)
	}
	var appliedCount int
	for _, rec := range recs {
		applied, err := f2.ApplyReplicated(rec)
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			appliedCount++
		}
	}
	if appliedCount != len(recs)-half {
		t.Fatalf("applied %d records after restart, want %d", appliedCount, len(recs)-half)
	}
	assertConverged(t, p, f2, "after restart replay")

	// The follower directory itself must be fsck-clean.
	f2.Close()
	if vs, err := Fsck(fdir); err != nil || len(vs) != 0 {
		t.Fatalf("follower fsck: %v, %v", vs, err)
	}
}

func TestSnapshotBytesBootstrap(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := seedPrimary(t, pdir)
	defer p.Close()

	data, snapLSN, err := p.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if snapLSN != p.AppliedLSN() {
		t.Fatalf("SnapshotBytes LSN = %d, primary at %d", snapLSN, p.AppliedLSN())
	}

	// The export must not truncate the primary's log: a tail from
	// snapLSN+1 still opens (no gap) and follows later writes.
	if err := p.AddVertex(50, nil); err != nil {
		t.Fatal(err)
	}
	tail := tailRecords(t, pdir, snapLSN+1)
	if len(tail) != 1 || tail[0].LSN != snapLSN+1 {
		t.Fatalf("post-export tail = %+v", tail)
	}

	// A fresh follower bootstrapped from the snapshot opens at snapLSN
	// with the primary's structural options, and applies the tail.
	if _, err := wal.InstallSnapshot(fdir, data); err != nil {
		t.Fatal(err)
	}
	f, err := Open(Options{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.AppliedLSN(); got != snapLSN {
		t.Fatalf("bootstrapped follower at LSN %d, want %d", got, snapLSN)
	}
	for _, rec := range tail {
		if _, err := f.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
	}
	assertConverged(t, p, f, "after bootstrap + tail")
}
