package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sqlgraph/internal/btree"
	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/sqljson"
	"sqlgraph/internal/translate"
	"sqlgraph/internal/wal"
)

// The probes time the public functions of the layers below the engine on
// this workload's own data, one goroutine, after the timed window. Each
// returns a mean per call: the calls are far below the clock's
// resolution one at a time.

// perCall runs fn n times and returns the mean in nanoseconds.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// allocsPerCall returns the mean number of heap allocations of fn.
func allocsPerCall(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func indexNamed(t *rel.Table, name string) *rel.Index {
	for _, ix := range t.Indexes() {
		if ix.Name() == name {
			return ix
		}
	}
	return nil
}

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink int

// probeRel times index probes on the three tables every traversal
// touches, a full scan of VA, and key encoding.
func probeRel(e *env, vals map[string]float64) error {
	cat := e.store.Catalog()
	vids := e.graph.VertexIDs()
	eids := e.graph.EdgeIDs()
	if len(vids) == 0 || len(eids) == 0 {
		return fmt.Errorf("probe: empty graph")
	}
	ver := cat.CurrentVersion()
	type target struct {
		table, index string
		ids          []int64
	}
	var probeNs []float64
	for _, tg := range []target{{core.TableVA, core.IndexVAPK, vids}, {core.TableOPA, core.IndexOPAVID, vids}, {core.TableEA, core.IndexEAPK, eids}} {
		t, ok := cat.Table(tg.table)
		ix := (*rel.Index)(nil)
		if ok {
			ix = indexNamed(t, tg.index)
		}
		if ix == nil {
			return fmt.Errorf("probe: no index %s on %s", tg.index, tg.table)
		}
		n := min(len(tg.ids), 20000)
		stride := len(tg.ids) / n
		t.RLock()
		probeNs = append(probeNs, perCall(n, func(i int) {
			t.ProbeAt(ix, []rel.Value{rel.NewInt(tg.ids[i*stride])}, ver, func(rel.RowID, []rel.Value) bool {
				sink++
				return true
			})
		}))
		t.RUnlock()
	}
	vals["rel.probe_us"] = mean(probeNs) / 1e3

	va, _ := cat.Table(core.TableVA)
	rows := 0
	va.RLock()
	t0 := time.Now()
	va.ScanAt(ver, func(rel.RowID, []rel.Value) bool { rows++; return true })
	scanNs := time.Since(t0).Nanoseconds()
	va.RUnlock()
	vals["rel.scan_ns_per_row"] = float64(scanNs) / float64(max(rows, 1))

	key := []rel.Value{rel.NewInt(0), rel.NewString(lbLabels[0])}
	vals["rel.encode_key_ns"] = perCall(200000, func(i int) {
		key[0] = rel.NewInt(vids[i%len(vids)])
		sink += len(rel.EncodeKey(key))
	})
	vals["rel.gc_backlog"] = float64(e.store.GCStats().Backlog)
	return nil
}

// probeBtree times the tree under rel's indexes at the size of this
// store's largest index, with keys encoded as rel encodes them.
func probeBtree(e *env, vals map[string]float64) {
	largest := 0
	for _, name := range e.store.Catalog().Tables() {
		if t, ok := e.store.Catalog().Table(name); ok {
			for _, ix := range t.Indexes() {
				largest = max(largest, ix.Len())
			}
		}
	}
	largest = max(largest, 1024)
	keys := make([]string, largest)
	for i := range keys {
		// Multiplying by an odd constant visits ids out of order, as
		// inserts arrive.
		keys[i] = rel.EncodeKey([]rel.Value{rel.NewInt(int64(uint32(i) * 2654435761 % uint32(largest)))})
	}
	tree := btree.New[string, int64](strings.Compare)
	vals["btree.set_ns"] = perCall(len(keys), func(i int) { tree.Set(keys[i], int64(i)) })
	vals["btree.get_ns"] = perCall(len(keys), func(i int) {
		if v, ok := tree.Get(keys[(i*7919)%len(keys)]); ok {
			sink += int(v)
		}
	})
	const width = 64
	ranges := max(tree.Len()/width/4, 1)
	seen := 0
	ns := perCall(ranges, func(i int) {
		lo := int64(i * width * 4 % largest)
		tree.AscendRange(rel.EncodeKey([]rel.Value{rel.NewInt(lo)}), rel.EncodeKey([]rel.Value{rel.NewInt(lo + width)}), func(string, int64) bool {
			seen++
			return true
		})
	})
	vals["btree.ascend_range_ns_per_key"] = ns * float64(ranges) / float64(max(seen, 1))
}

// probeSqljson times document parsing and JSON_VAL path extraction over
// the dataset's own vertex documents.
func probeSqljson(e *env, vals map[string]float64) error {
	vids := e.graph.VertexIDs()
	n := min(len(vids), 5000)
	texts := make([]string, n)
	docs := make([]*sqljson.Doc, n)
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		attrs, err := e.graph.VertexAttrs(vids[i*(len(vids)/n)])
		if err != nil {
			return err
		}
		docs[i] = sqljson.FromMap(attrs)
		texts[i] = docs[i].String()
		if ks := docs[i].Keys(); len(ks) > 0 {
			keys[i] = ks[len(ks)/2]
		}
	}
	var perr error
	vals["sqljson.parse_ns"] = perCall(n, func(i int) {
		if _, err := sqljson.Parse(texts[i]); err != nil {
			perr = err
		}
	})
	vals["sqljson.val_ns"] = perCall(20*n, func(i int) {
		if v, err := docs[i%n].Val(keys[i%n]); err == nil && v != nil {
			sink++
		}
	})
	return perr
}

// probeWAL times a bare log: open in its own directory, then append and
// commit this dataset's vertices one record at a time, as a synchronous
// store commits them.
func probeWAL(e *env, tmpRoot string, vals map[string]float64) error {
	dir, err := os.MkdirTemp(tmpRoot, "walprobe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir)
	if err != nil {
		return err
	}
	vids := e.graph.VertexIDs()
	n := min(len(vids), 1000)
	recs := make([]wal.Record, n)
	for i := range recs {
		attrs, err := e.graph.VertexAttrs(vids[i])
		if err != nil {
			l.Close()
			return err
		}
		recs[i] = core.BatchAddVertex(vids[i], attrs)
	}
	var werr error
	ns := perCall(n, func(i int) {
		lsn, err := l.Append(recs[i])
		if err == nil {
			_, err = l.Commit(lsn)
		}
		if err != nil {
			werr = err
		}
	})
	vals["wal.append_commit_us"] = ns / 1e3
	if err := l.Close(); err != nil {
		return err
	}
	return werr
}

// probeCore times point reads over sampled ids and each mutation
// procedure on scratch elements that it creates and removes again. On an
// in-memory store the mutations run without a log, so the WAL shares
// read 0 there.
func probeCore(e *env, vals map[string]float64) error {
	s := e.store
	vids := e.graph.VertexIDs()
	n := min(len(vids), 2000)
	stride := len(vids) / n
	var rerr error
	readNs := perCall(2*n, func(i int) {
		sn := s.Snapshot()
		id := vids[(i/2)*stride]
		var err error
		if i%2 == 0 {
			_, err = sn.VertexAttrs(id)
		} else {
			_, err = sn.OutEdges(id)
		}
		sn.Close()
		if err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return fmt.Errorf("probe: point read: %w", rerr)
	}
	vals["core.point_read_us"] = readNs / 1e3

	const base = int64(900_000_000)
	const rounds = 150
	attrs := map[string]any{"type": int64(1), "version": int64(1), "data": strings.Repeat("x", 32)}
	before := s.Tracer().WriteStats()
	var werr error
	step := func(err error) {
		if err != nil && werr == nil {
			werr = err
		}
	}
	t0 := time.Now()
	for i := int64(0); i < rounds; i++ {
		a, b := base+2*i, base+2*i+1
		step(s.AddVertex(a, attrs))
		step(s.AddVertex(b, attrs))
		step(s.AddEdge(base+i, a, b, lbLabels[0], attrs))
		step(s.SetVertexAttr(a, "data", "y"))
		step(s.SetEdgeAttr(base+i, "data", "y"))
		step(s.RemoveEdge(base + i))
		step(s.RemoveVertex(a))
		step(s.RemoveVertex(b))
	}
	total := float64(time.Since(t0).Nanoseconds())
	if werr != nil {
		return fmt.Errorf("probe: mutation: %w", werr)
	}
	after := s.Tracer().WriteStats()
	const muts = rounds * 8
	writeUs := total / muts / 1e3
	// A checkpoint the probe happens to trigger is not part of a
	// mutation's own cost.
	writeUs -= float64(after.CheckpointNs-before.CheckpointNs) / muts / 1e3
	appendUs := float64(after.WALAppendNs-before.WALAppendNs) / muts / 1e3
	commitUs := float64(after.WALFsyncNs-before.WALFsyncNs) / muts / 1e3
	vals["core.write_us"] = writeUs
	vals["core.write_self_us"] = writeUs - appendUs - commitUs
	vals["wal.append_share_pct"] = 100 * appendUs / writeUs
	vals["wal.commit_wait_share_pct"] = 100 * commitUs / writeUs
	return nil
}

// probeFrontEnd counts the allocations of the three front-end stages
// over the sample's distinct texts (the timings come from the traced
// pass).
func probeFrontEnd(e *env, texts []string, vals map[string]float64) error {
	if len(texts) == 0 {
		return nil
	}
	qs := make([]*gremlin.Query, len(texts))
	sqls := make([]string, len(texts))
	var err error
	vals["gremlin.parse_allocs"] = allocsPerCall(len(texts), func(i int) {
		var perr error
		if qs[i], perr = gremlin.Parse(texts[i]); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}
	vals["translate.translate_allocs"] = allocsPerCall(len(texts), func(i int) {
		tr, _, terr := translate.TranslateWithTail(qs[i], e.store, translate.Options{})
		if terr != nil {
			err = terr
			return
		}
		sqls[i] = tr.SQL
	})
	if err != nil {
		return err
	}
	vals["sql.parse_allocs"] = allocsPerCall(len(texts), func(i int) {
		if _, perr := sql.Parse(sqls[i]); perr != nil {
			err = perr
		}
	})
	return err
}
