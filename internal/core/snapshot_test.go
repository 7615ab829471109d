package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSnapshotFrozenView pins a snapshot, mutates the store through every
// CRUD path, and checks the snapshot still answers exactly as the store
// did at pin time — Gremlin queries and direct reads alike.
func TestSnapshotFrozenView(t *testing.T) {
	s := loadFigure2a(t, Options{})

	snap := s.Snapshot()
	defer snap.Close()

	wantV := s.VertexIDs()
	wantE := s.EdgeIDs()
	wantMarkoOut, err := s.OutEdges(1)
	if err != nil {
		t.Fatal(err)
	}
	wantAttrs, err := s.VertexAttrs(1)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate everything the store supports.
	if err := s.AddVertex(50, map[string]any{"name": "peter"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(60, 50, 3, "created", map[string]any{"weight": 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVertexAttr(1, "age", int64(30)); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveEdge(7); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveVertex(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}

	if got := snap.VertexIDs(); !reflect.DeepEqual(got, wantV) {
		t.Errorf("snapshot VertexIDs = %v, want %v", got, wantV)
	}
	if got := snap.EdgeIDs(); !reflect.DeepEqual(got, wantE) {
		t.Errorf("snapshot EdgeIDs = %v, want %v", got, wantE)
	}
	if got, err := snap.OutEdges(1); err != nil || !reflect.DeepEqual(got, wantMarkoOut) {
		t.Errorf("snapshot OutEdges(1) = %v (%v), want %v", got, err, wantMarkoOut)
	}
	if got, err := snap.VertexAttrs(1); err != nil || !reflect.DeepEqual(got, wantAttrs) {
		t.Errorf("snapshot VertexAttrs(1) = %v (%v), want %v", got, err, wantAttrs)
	}
	if !snap.VertexExists(2) {
		t.Error("snapshot should still see removed vertex 2")
	}
	if snap.VertexExists(50) {
		t.Error("snapshot must not see vertex 50 added after the pin")
	}
	if _, err := snap.Edge(7); err != nil {
		t.Errorf("snapshot should still see removed edge 7: %v", err)
	}
	if snap.CountVertices() != len(wantV) || snap.CountEdges() != len(wantE) {
		t.Errorf("snapshot counts = %d/%d, want %d/%d",
			snap.CountVertices(), snap.CountEdges(), len(wantV), len(wantE))
	}

	// Gremlin via the translated-SQL path must read at the pinned version.
	res, err := snap.Query("g.V.has('name', 'marko').out.name")
	if err != nil {
		t.Fatal(err)
	}
	got := map[any]bool{}
	for _, v := range res.Values {
		got[v] = true
	}
	for _, want := range []string{"vadas", "josh", "lop"} {
		if !got[want] {
			t.Errorf("snapshot Gremlin out-names missing %q (got %v)", want, res.Values)
		}
	}
	// Age update after the pin is invisible.
	res, err = snap.Query("g.V.has('age', 30).id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 0 {
		t.Errorf("snapshot sees post-pin age update: %v", res.Values)
	}
	// A closure reads attributes at the pinned version too: 60/29 and 60/27
	// keep marko and the since-removed vadas, not the re-aged marko alone.
	res, err = snap.Query("g.V.filter{60 / it.age >= 2}.id")
	if err != nil {
		t.Fatal(err)
	}
	if got := canonical(res.Values); !reflect.DeepEqual(got, []string{"int64:1", "int64:2"}) {
		t.Errorf("snapshot closure filter = %v, want vertices 1 and 2", got)
	}
	// VerticesByAttr at the snapshot (raw-SQL read path).
	ids, err := snap.VerticesByAttr("name", "peter")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("snapshot VerticesByAttr sees post-pin vertex: %v", ids)
	}

	// The live store sees the new world.
	if s.VertexExists(2) || !s.VertexExists(50) {
		t.Error("live store should reflect the mutations")
	}
}

// TestSnapshotSeesIndexOnlyIfBornBefore checks a JSON expression index
// created after a snapshot is pinned is not used for that snapshot's
// queries (it only covers rows visible at creation time).
func TestSnapshotSeesIndexOnlyIfBornBefore(t *testing.T) {
	s := loadFigure2a(t, Options{})
	snap := s.Snapshot()
	defer snap.Close()

	if err := s.CreateVertexAttrIndex("name"); err != nil {
		t.Fatal(err)
	}
	ids, err := snap.VerticesByAttr("name", "marko")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("snapshot VerticesByAttr = %v, want [1]", ids)
	}
	ids, err = s.VerticesByAttr("name", "marko")
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("live VerticesByAttr = %v (%v), want [1]", ids, err)
	}
}

// TestSnapshotClosed verifies Close is idempotent, releases the pin, and
// makes subsequent reads fail loudly instead of reading at a
// garbage-collected version.
func TestSnapshotClosed(t *testing.T) {
	s := loadFigure2a(t, Options{})
	snap := s.Snapshot()
	snap.Close()
	snap.Close() // idempotent

	if _, err := snap.Query("g.V.count"); !errors.Is(err, ErrSnapshotClosed) {
		t.Errorf("Query after Close: err = %v, want ErrSnapshotClosed", err)
	}
	if _, err := snap.VertexAttrs(1); !errors.Is(err, ErrSnapshotClosed) {
		t.Errorf("VertexAttrs after Close: err = %v, want ErrSnapshotClosed", err)
	}
	if snap.VertexExists(1) {
		t.Error("VertexExists after Close should report false")
	}
	if got := snap.VertexIDs(); got != nil {
		t.Errorf("VertexIDs after Close = %v, want nil", got)
	}
	if pins := s.Catalog().PinnedVersions(); pins != 0 {
		t.Errorf("pins remain after Close: %v", pins)
	}
}

// TestSnapshotIsolationStress is the concurrency acceptance test: reader
// goroutines pin snapshots and assert frozen invariants (vertex count,
// edge count, degree sums, Gremlin counts) while a writer mutates the
// graph and runs Vacuum. Run with -race. The store must end Check-clean
// with no leaked pins.
func TestSnapshotIsolationStress(t *testing.T) {
	s := loadFigure2a(t, Options{})

	const (
		readers    = 4
		writerOps  = 120
		vacuumMod  = 30
		baseVertex = int64(1000)
	)
	if testing.Short() {
		t.Skip("concurrency stress test")
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, readers+1)

	// Writer: grow a fringe of vertices and edges, retire old ones, vacuum
	// periodically. Single goroutine — the store serializes writers anyway.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		var live []int64
		for i := 0; i < writerOps; i++ {
			id := baseVertex + int64(i)
			if err := s.AddVertex(id, map[string]any{"name": fmt.Sprintf("v%d", id), "i": int64(i)}); err != nil {
				errc <- fmt.Errorf("writer AddVertex(%d): %w", id, err)
				return
			}
			if err := s.AddEdge(10*baseVertex+int64(i), id, int64(1+i%4), "touch", nil); err != nil {
				errc <- fmt.Errorf("writer AddEdge: %w", err)
				return
			}
			live = append(live, id)
			if len(live) > 10 && rng.Intn(2) == 0 {
				victim := live[0]
				live = live[1:]
				if err := s.RemoveVertex(victim); err != nil {
					errc <- fmt.Errorf("writer RemoveVertex(%d): %w", victim, err)
					return
				}
			}
			if err := s.SetVertexAttr(1, "age", int64(29+i)); err != nil {
				errc <- fmt.Errorf("writer SetVertexAttr: %w", err)
				return
			}
			if i%vacuumMod == vacuumMod-1 {
				if _, err := s.Vacuum(); err != nil {
					errc <- fmt.Errorf("writer Vacuum: %w", err)
					return
				}
			}
		}
	}()

	// Readers: each loop pins a snapshot, checks internal consistency, and
	// re-reads to confirm the view is frozen while the writer races on.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				snap := s.Snapshot()
				vc, ec := snap.CountVertices(), snap.CountEdges()
				// Degree-sum invariant: every edge leaves exactly one live
				// vertex at any consistent version.
				deg := 0
				for _, v := range snap.VertexIDs() {
					out, err := snap.OutEdges(v)
					if err != nil {
						errc <- fmt.Errorf("reader %d: OutEdges(%d): %w", r, v, err)
						snap.Close()
						return
					}
					deg += len(out)
				}
				if deg != ec {
					errc <- fmt.Errorf("reader %d iter %d v%d: degree sum %d != edge count %d",
						r, iter, snap.Version(), deg, ec)
					snap.Close()
					return
				}
				// Frozen: re-reads and the Gremlin path agree with the pin.
				if vc2, ec2 := snap.CountVertices(), snap.CountEdges(); vc2 != vc || ec2 != ec {
					errc <- fmt.Errorf("reader %d iter %d: snapshot drifted %d/%d -> %d/%d",
						r, iter, vc, ec, vc2, ec2)
					snap.Close()
					return
				}
				res, err := snap.Query("g.V.count")
				if err != nil {
					errc <- fmt.Errorf("reader %d: Query: %w", r, err)
					snap.Close()
					return
				}
				if res.Count() != 1 || res.Values[0] != int64(vc) {
					errc <- fmt.Errorf("reader %d iter %d: g.V.count = %v, want %d", r, iter, res.Values, vc)
					snap.Close()
					return
				}
				snap.Close()
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if pins := s.Catalog().PinnedVersions(); pins != 0 {
		t.Errorf("leaked pins after stress: %v", pins)
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if vs := Check(s); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("fsck: %s", v.String())
		}
	}
	// A fresh snapshot of the final state agrees with the live store.
	snap := s.Snapshot()
	defer snap.Close()
	if snap.CountVertices() != s.CountVertices() || snap.CountEdges() != s.CountEdges() {
		t.Errorf("final snapshot %d/%d != live %d/%d",
			snap.CountVertices(), snap.CountEdges(), s.CountVertices(), s.CountEdges())
	}
	if snap.Version() != uint64(s.Catalog().CurrentVersion()) {
		t.Errorf("final snapshot version %d != current %d", snap.Version(), s.Catalog().CurrentVersion())
	}
}
