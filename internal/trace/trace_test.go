package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBuilderSpanTreeShape(t *testing.T) {
	b := NewBuilder("", "query", "g.V().has('name','marko')")
	parse := b.Begin("parse")
	b.End(parse)
	tr := b.Begin("translate")
	b.End(tr)
	exec := b.Begin("execute")
	b.Child(exec, "scan", "VA index", 0, 1000, 10, 4)
	b.Child(exec, "join", "hash", 1000, 2000, 4, 4)
	b.End(exec)
	trc := b.Finish(nil)

	if trc.ID == "" || len(trc.ID) != 32 {
		t.Fatalf("trace id not minted: %q", trc.ID)
	}
	if trc.Kind != "query" || trc.Root == nil {
		t.Fatalf("bad trace: %+v", trc)
	}
	names := make([]string, 0, 3)
	for _, c := range trc.Root.Children {
		names = append(names, c.Name)
	}
	if got, want := strings.Join(names, ","), "parse,translate,execute"; got != want {
		t.Fatalf("stage spans = %s, want %s", got, want)
	}
	execSpan := trc.Root.Children[2]
	if len(execSpan.Children) != 2 {
		t.Fatalf("execute children = %d, want 2", len(execSpan.Children))
	}
	scan := execSpan.Children[0]
	if scan.Name != "scan" || scan.DurNs != 1000 || scan.RowsIn != 10 || scan.RowsOut != 4 {
		t.Fatalf("scan span = %+v", scan)
	}
	if scan.StartNs < execSpan.StartNs {
		t.Fatalf("child starts before parent: %d < %d", scan.StartNs, execSpan.StartNs)
	}
	if trc.DurNs <= 0 {
		t.Fatalf("trace duration not set")
	}
	for _, c := range trc.Root.Children {
		if c.DurNs < 0 || c.DurNs > trc.DurNs {
			t.Fatalf("span %s dur %d outside trace dur %d", c.Name, c.DurNs, trc.DurNs)
		}
	}
}

func TestBuilderSlabOverflow(t *testing.T) {
	b := NewBuilder("", "query", "deep")
	exec := b.Begin("execute")
	spans := make([]*Span, 0, 3*spanChunk)
	for i := 0; i < 3*spanChunk; i++ {
		spans = append(spans, b.Child(exec, fmt.Sprintf("op%d", i), "", int64(i), 1, 0, 0))
	}
	b.End(exec)
	trc := b.Finish(nil)
	if len(exec.Children) != 3*spanChunk {
		t.Fatalf("children = %d", len(exec.Children))
	}
	// Pointers handed out before the slab filled must still be the spans
	// wired into the tree.
	for i, sp := range spans {
		if exec.Children[i] != sp {
			t.Fatalf("span %d pointer invalidated by slab growth", i)
		}
	}
	if trc.Root.Children[0] != exec {
		t.Fatal("execute span detached")
	}
}

func TestBuilderFinishError(t *testing.T) {
	b := NewBuilder("abc", "query", "bad")
	b.Begin("parse") // left open: Finish must close it
	trc := b.Finish(fmt.Errorf("syntax error"))
	if trc.ID != "abc" {
		t.Fatalf("id = %q", trc.ID)
	}
	if trc.Err != "syntax error" {
		t.Fatalf("err = %q", trc.Err)
	}
	if trc.Root.Children[0].DurNs <= 0 {
		t.Fatal("open span not closed by Finish")
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 6; i++ {
		r.Add(&Trace{ID: fmt.Sprintf("t%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, want := range []string{"t6", "t5", "t4", "t3"} {
		if got[i].ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s (newest first)", i, got[i].ID, want)
		}
	}
	if r.Get("t1") != nil || r.Get("t2") != nil {
		t.Fatal("evicted traces still retrievable")
	}
	if tr := r.Get("t5"); tr == nil || tr.ID != "t5" {
		t.Fatalf("Get(t5) = %+v", tr)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(&Trace{ID: fmt.Sprintf("w%d-%d", w, i)})
				r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Snapshot(); len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	}
}

func TestRecorderRoutingAndSlow(t *testing.T) {
	r := NewRecorder(4, 10*time.Millisecond)
	fast := &Trace{ID: "q1", Kind: "query", DurNs: int64(time.Millisecond)}
	slow := &Trace{ID: "q2", Kind: "query", DurNs: int64(50 * time.Millisecond)}
	wr := &Trace{ID: "w1", Kind: "write", DurNs: int64(time.Millisecond)}
	r.Record(fast)
	r.Record(slow)
	r.Record(wr)

	if got := r.Queries(); len(got) != 2 {
		t.Fatalf("queries = %d, want 2", len(got))
	}
	if got := r.Writes(); len(got) != 1 || got[0].ID != "w1" {
		t.Fatalf("writes = %+v", got)
	}
	sl := r.Slow()
	if len(sl) != 1 || sl[0].ID != "q2" || !sl[0].Slow {
		t.Fatalf("slow = %+v", sl)
	}
	if r.SlowCount() != 1 {
		t.Fatalf("slow count = %d", r.SlowCount())
	}
	if tr := r.Get("w1"); tr == nil || tr.Kind != "write" {
		t.Fatalf("Get(w1) = %+v", tr)
	}
	if r.Get("nope") != nil {
		t.Fatal("Get of unknown id should be nil")
	}

	// Negative threshold disables slow capture.
	r.SetSlowThreshold(-1)
	r.Record(&Trace{ID: "q3", Kind: "query", DurNs: int64(time.Second)})
	if r.SlowCount() != 1 {
		t.Fatal("slow capture not disabled")
	}
}

func TestRecorderWriteStats(t *testing.T) {
	r := NewRecorder(0, 0)
	r.ObserveWALAppend(time.Microsecond)
	r.ObserveWALFsync(2 * time.Millisecond)
	r.ObserveWALFsync(3 * time.Millisecond)
	r.ObserveCheckpoint(time.Millisecond, 10*time.Microsecond, nil)
	r.ObserveCheckpoint(time.Millisecond, 5*time.Microsecond, errors.New("disk full"))
	r.ObserveVacuum(time.Millisecond)
	ws := r.WriteStats()
	if ws.WALAppends != 1 || ws.WALFsyncs != 2 || ws.Checkpoints != 2 || ws.Vacuums != 1 {
		t.Fatalf("counters = %+v", ws)
	}
	if ws.CheckpointNs != int64(2*time.Millisecond) || ws.CheckpointExclusiveNs != int64(15*time.Microsecond) || ws.CheckpointErrors != 1 {
		t.Fatalf("checkpoint counters = %+v", ws)
	}
	if ws.WALFsyncNs != int64(5*time.Millisecond) {
		t.Fatalf("fsync ns = %d", ws.WALFsyncNs)
	}
}

func TestParseTraceparent(t *testing.T) {
	id := "4bf92f3577b34da6a3ce929d0e0e4736"
	cases := []struct {
		in   string
		want string
	}{
		{"00-" + id + "-00f067aa0ba902b7-01", id},
		{" 00-" + id + "-00f067aa0ba902b7-00 ", id},
		{"ff-" + id + "-00f067aa0ba902b7-01", ""},                      // forbidden version
		{"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", ""}, // zero trace-id
		{"00-" + id + "-00f067aa0ba902b7", ""},                         // missing flags
		{"00-" + strings.ToUpper(id) + "-00f067aa0ba902b7-01", ""},     // uppercase hex invalid
		{"garbage", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := ParseTraceparent(c.in); got != c.want {
			t.Errorf("ParseTraceparent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewID()
	h := Traceparent(id)
	if got := ParseTraceparent(h); got != id {
		t.Fatalf("round trip: %q -> %q", h, got)
	}
	if id2 := NewID(); id2 == id {
		t.Fatal("NewID returned duplicate")
	}
}

func TestTextRendering(t *testing.T) {
	b := NewBuilder("deadbeefdeadbeefdeadbeefdeadbeef", "query", "g.V().out()")
	b.SetStatement("SELECT * FROM VA WHERE VID = ?1", func() (string, []string) { return "SELECT * FROM VA", []string{"7"} })
	exec := b.Begin("execute")
	b.Child(exec, "scan", "VA full", 0, 1500, 100, 40)
	b.End(exec)
	trc := b.Finish(nil)
	text := trc.Text()
	for _, want := range []string{
		"trace deadbeefdeadbeefdeadbeefdeadbeef query",
		"sql: SELECT * FROM VA",
		"execute",
		"  scan [VA full] rows=100/40",
		"time=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
}

func TestTraceJSONShape(t *testing.T) {
	b := NewBuilder("", "query", "q")
	exec := b.Begin("execute")
	b.Child(exec, "scan", "d", 0, 10, 1, 1)
	b.End(exec)
	trc := b.Finish(nil)
	raw, err := json.Marshal(trc)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"id", "kind", "root", "dur_ns"} {
		if _, ok := m[k]; !ok {
			t.Errorf("trace JSON missing %q: %s", k, raw)
		}
	}
}
