package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// viewReads calls every View method once over the Figure 2a graph, with
// arguments the writes of TestSnapshotFrozenView change the answer to.
// Each read returns what the tests compare: the value, or the error's
// text. closed is what the read gives on a closed snapshot.
var viewReads = []struct {
	name   string
	read   func(v *View) any
	closed any
}{
	{"VertexExists", func(v *View) any { return v.VertexExists(2) }, false},
	{"VertexAttrs", func(v *View) any { return result(v.VertexAttrs(1)) }, ErrSnapshotClosed.Error()},
	{"Edge", func(v *View) any { return result(v.Edge(7)) }, ErrSnapshotClosed.Error()},
	{"EdgeAttrs", func(v *View) any { return result(v.EdgeAttrs(8)) }, ErrSnapshotClosed.Error()},
	{"OutEdges", func(v *View) any { return result(v.OutEdges(1)) }, ErrSnapshotClosed.Error()},
	{"InEdges", func(v *View) any { return result(v.InEdges(3, "created")) }, ErrSnapshotClosed.Error()},
	{"OutEdgesWithAttrs", func(v *View) any {
		recs, attrs, err := v.OutEdgesWithAttrs(1, 0)
		return result([]any{recs, attrs}, err)
	}, ErrSnapshotClosed.Error()},
	{"VertexIDs", func(v *View) any { return v.VertexIDs() }, []int64(nil)},
	{"EdgeIDs", func(v *View) any { return v.EdgeIDs() }, []int64(nil)},
	{"VerticesByAttr", func(v *View) any { return result(v.VerticesByAttr("name", "peter")) }, ErrSnapshotClosed.Error()},
	{"CountVertices", func(v *View) any { return v.CountVertices() }, 0},
	{"CountEdges", func(v *View) any { return v.CountEdges() }, 0},
	{"Query", func(v *View) any { return queryResult(v.Query("g.V.has('name', 'marko').out.name")) }, ErrSnapshotClosed.Error()},
	{"Query (attribute at the version)", func(v *View) any { return queryResult(v.Query("g.V.has('age', 30).id")) }, ErrSnapshotClosed.Error()},
	// A closure reads attributes at the view's version too: 60/29 and 60/27
	// keep marko and vadas, not the re-aged marko alone.
	{"QueryTraced", func(v *View) any {
		return queryResult(v.QueryTraced("g.V.filter{60 / it.age >= 2}.id", TranslateOptions{ForceHashTables: true}, ""))
	}, ErrSnapshotClosed.Error()},
}

func result[T any](val T, err error) any {
	if err != nil {
		return err.Error()
	}
	return val
}

func queryResult(res *Result, err error) any {
	if err != nil {
		return err.Error()
	}
	return canonical(res.Values)
}

// TestSnapshotFrozenView pins a snapshot, mutates the store through every
// CRUD path, and calls every view method at the head, which must see the
// writes, and on the snapshot, which must answer exactly as the store did
// at pin time.
func TestSnapshotFrozenView(t *testing.T) {
	s := loadFigure2a(t, Options{})
	before := make([]any, len(viewReads))
	for i, c := range viewReads {
		before[i] = c.read(&s.View)
	}
	snap := s.Snapshot()
	defer snap.Close()

	// Mutate everything the store supports.
	for _, err := range []error{
		s.AddVertex(50, map[string]any{"name": "peter"}),
		s.AddVertex(51, nil),
		s.AddEdge(60, 50, 3, "created", map[string]any{"weight": 0.2}),
		s.AddEdge(61, 50, 51, "knows", nil),
		s.AddEdge(62, 51, 4, "knows", nil),
		s.SetVertexAttr(1, "age", int64(30)),
		s.SetEdgeAttr(8, "weight", 2.5),
		s.RemoveEdge(7),
		s.RemoveVertex(2),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}

	for i, c := range viewReads {
		if got := c.read(&snap.View); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("snapshot %s = %v, want %v as at the pin", c.name, got, before[i])
		}
		if got := c.read(&s.View); reflect.DeepEqual(got, before[i]) {
			t.Errorf("head %s = %v, unchanged by the writes", c.name, got)
		}
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
// makes every subsequent read fail loudly (or report nothing) instead of
// reading at a garbage-collected version.
func TestSnapshotClosed(t *testing.T) {
	s := loadFigure2a(t, Options{})
	snap := s.Snapshot()
	snap.Close()
	snap.Close() // idempotent

	for _, c := range viewReads {
		if got := c.read(&snap.View); !reflect.DeepEqual(got, c.closed) {
			t.Errorf("%s after Close = %#v, want %#v", c.name, got, c.closed)
		}
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
