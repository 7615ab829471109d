package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sqlgraph/internal/bench/linkbench"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/wal"
)

// linkbenchInst is linkbench_rw: the LinkBench-shaped graph in a durable
// store, two closed-loop clients issuing the paper's Table-6 mix over
// HTTP, a crash and a recovery.
//
// The generator's MemGraph doubles as the model of acknowledged writes.
// Client c mutates only vertices of id class c (id mod clients), edges
// whose source is in class c, and elements it created itself, and reads
// only those, so what the model holds for an element is exactly what the
// server must answer, whatever the other client is doing.
type linkbenchInst struct {
	*env
	sc      scale
	objects int
	nextEID int64 // first edge id the generator did not use

	clients []*lbClient
	mu      sync.Mutex
	touchV  map[int64]bool // every element an acknowledged write touched
	touchE  map[int64]bool
	refused bool // the model refused a write the server acknowledged

	snapshotBytes int64
}

const lbClients = 2

var lbLabels = []string{"friend", "like", "post", "comment", "follow"}

// setupLinkbench generates the graph, bulk-loads it into a fresh durable
// directory under tmpRoot (which checkpoints it), boots the server, runs
// a fixed number of warm-up operations per client and checkpoints again,
// so that the timed window starts at the beginning of a checkpoint cycle.
func setupLinkbench(_ string, sc scale, spans *spanLog, tmpRoot string) (instance, error) {
	g := blueprints.NewMemGraph()
	if _, err := linkbench.Generate(linkbench.Config{Objects: sc.lbObjects, Seed: sc.seed}, g); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "store-*")
	if err != nil {
		return nil, err
	}
	in := &linkbenchInst{
		env:     &env{graph: g, dir: dir, spans: spans},
		sc:      sc,
		objects: sc.lbObjects,
		nextEID: int64(g.CountEdges()),
		touchV:  map[int64]bool{},
		touchE:  map[int64]bool{},
	}
	t0 := time.Now()
	// Synchronous commit and the default checkpoint cadence (4096
	// records), as sqlgraphd runs without -group-commit.
	if in.store, err = core.Load(g, core.Options{Dir: dir}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in.loadS = time.Since(t0).Seconds()
	in.boot(lbClients)

	owned := make([][]int64, lbClients)
	for _, id := range g.EdgeIDs() {
		rec, err := g.Edge(id)
		if err != nil {
			in.close()
			return nil, err
		}
		c := rec.Out % lbClients
		owned[c] = append(owned[c], id)
	}
	for c := 0; c < lbClients; c++ {
		in.clients = append(in.clients, in.newClient(c, lbClients, sc.seedFor(20+c), sc.seedFor(25+c),
			int64(in.objects)+int64(c), in.nextEID+int64(c), lbClients, owned[c]))
	}
	if err := in.warm(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *linkbenchInst) warm() error {
	var wg sync.WaitGroup
	errs := make([]error, len(in.clients))
	for i, cl := range in.clients {
		wg.Add(1)
		go func(i int, cl *lbClient) {
			defer wg.Done()
			c := &caller{e: in.env}
			for k := 0; k < in.sc.warmOps; k++ {
				o := cl.next()
				if _, _, err := c.do(&o, -1); err != nil {
					errs[i] = fmt.Errorf("warm-up %s %s %s: %w", o.kind, o.method, o.path, err)
					return
				}
				if o.ack != nil {
					o.ack()
				}
			}
		}(i, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return in.store.Checkpoint()
}

func (in *linkbenchInst) base() *env { return in.env }

func (in *linkbenchInst) prepare() error {
	if st, err := os.Stat(filepath.Join(in.dir, "snapshot.db")); err == nil {
		in.snapshotBytes = st.Size()
	}
	return nil
}

func (in *linkbenchInst) sources() []source {
	out := make([]source, len(in.clients))
	for i, c := range in.clients {
		out[i] = c
	}
	return out
}

// boundary ends the window when a checkpoint completes: the window then
// holds a whole number of checkpoint cycles (4096 mutations and one
// snapshot each).
func (in *linkbenchInst) boundary() (func(client, done int) bool, func() bool) {
	var at uint64
	var armed bool
	return nil, func() bool {
		n := in.store.Tracer().WriteStats().Checkpoints
		if !armed {
			at, armed = n, true
			return false
		}
		return n > at
	}
}

func (in *linkbenchInst) verify() (int, int, error) { return 0, 0, nil }

func (in *linkbenchInst) traceOps() int { return in.sc.tracedOps }

// traceSource is a client of its own per level: it reads any initial
// vertex (the store is quiescent during the traced pass) and mutates
// only elements it creates in an id range no other client or level uses.
// Both levels draw the same operation sequence, so op i is the same
// operation on each level's own scratch elements.
func (in *linkbenchInst) traceSource(level int) source {
	base := int64(100_000_000) * int64(level+1)
	return in.newClient(0, 1, in.sc.seedFor(30), in.sc.seedFor(40+level), base, base, 1, nil)
}

// ---- one client ----------------------------------------------------------

type lbClient struct {
	in       *linkbenchInst
	class    int64 // own initial vertices are those with id % stride == class
	stride   int64
	rng      *rand.Rand // operation choice and write targets
	queryRng *rand.Rand // ids of Gremlin texts (kept apart so traced levels never share a text)
	cum      []float64

	nextV, nextE, step int64
	fresh              []int64 // live vertices this client added
	edges              []int64 // live edges this client may delete or update
}

func (in *linkbenchInst) newClient(class, stride int, seed, querySeed, firstV, firstE int64, step int, owned []int64) *lbClient {
	c := &lbClient{
		in: in, class: int64(class), stride: int64(stride),
		rng: rand.New(rand.NewSource(seed)), queryRng: rand.New(rand.NewSource(querySeed)),
		nextV: firstV, nextE: firstE, step: int64(step),
		edges: append([]int64(nil), owned...),
	}
	total := 0.0
	for _, m := range linkbench.PaperMix {
		total += m.Share
		c.cum = append(c.cum, total)
	}
	return c
}

func (c *lbClient) ownVertex(r *rand.Rand) int64 {
	n := (int64(c.in.objects) - c.class + c.stride - 1) / c.stride
	return r.Int63n(n)*c.stride + c.class
}

func (c *lbClient) payload() string {
	b := make([]byte, 32)
	for i := range b {
		b[i] = byte('a' + c.rng.Intn(26))
	}
	return string(b)
}

// next draws the next operation of the Table-6 mix. An operation whose
// precondition this client cannot meet yet (deleting a node before it
// added one) becomes the matching add, so no operation ever fails.
func (c *lbClient) next() op {
	r := c.rng.Float64() * c.cum[len(c.cum)-1]
	kind := linkbench.PaperMix[len(c.cum)-1].Op
	for i, edge := range c.cum {
		if r < edge {
			kind = linkbench.PaperMix[i].Op
			break
		}
	}
	switch kind {
	case linkbench.OpDeleteNode:
		if len(c.fresh) == 0 {
			kind = linkbench.OpAddNode
		}
	case linkbench.OpDeleteLink, linkbench.OpUpdateLink:
		if len(c.edges) == 0 {
			kind = linkbench.OpAddLink
		}
	}
	g := c.in.graph
	switch kind {
	case linkbench.OpGetNode:
		id := c.ownVertex(c.rng)
		if len(c.fresh) > 0 && c.rng.Intn(8) == 0 {
			id = c.fresh[c.rng.Intn(len(c.fresh))]
		}
		return op{kind: kind, method: http.MethodGet, path: fmt.Sprintf("/vertex/%d", id),
			core: func(s *core.Store) error {
				sn := s.Snapshot() // the handler reads on a snapshot pinned for the request
				defer sn.Close()
				_, err := sn.VertexAttrs(id)
				return err
			},
			check: func(status int, body []byte) error { return checkVertex(g, id, status, body) }}
	case linkbench.OpGetLinkList, linkbench.OpMultigetLink:
		id := c.ownVertex(c.rng)
		path := fmt.Sprintf("/vertex/%d/out", id)
		var labels []string
		if kind == linkbench.OpMultigetLink {
			labels = []string{lbLabels[c.rng.Intn(len(lbLabels))]}
			path += "?label=" + labels[0]
		}
		return op{kind: kind, method: http.MethodGet, path: path,
			core: func(s *core.Store) error {
				sn := s.Snapshot()
				defer sn.Close()
				_, err := sn.OutEdges(id, labels...)
				return err
			},
			check: func(status int, body []byte) error { return checkEdgeList(g, id, labels, status, body) }}
	case linkbench.OpCountLink:
		id := c.ownVertex(c.queryRng)
		label := lbLabels[c.queryRng.Intn(len(lbLabels))]
		o := c.countLink(id, label)
		// The stage level replays with a text no level has sent, as
		// count_link texts in the timed window are mostly new.
		o.again = func() op {
			return c.countLink(c.ownVertex(c.queryRng), lbLabels[c.queryRng.Intn(len(lbLabels))])
		}
		return o
	case linkbench.OpAddNode:
		id := c.nextV
		c.nextV += c.step
		attrs := map[string]any{"type": int64(c.rng.Intn(8)), "version": int64(1),
			"time": int64(1700000000 + c.rng.Intn(100000000)), "data": c.payload()}
		body, _ := json.Marshal(map[string]any{"id": id, "attrs": attrs}) // plain scalars always marshal
		return op{kind: kind, write: true, method: http.MethodPost, path: "/vertex", body: string(body),
			userBytes: int(attrBytes(attrs)),
			core:      func(s *core.Store) error { return s.AddVertex(id, attrs) },
			check:     wantStatus(http.StatusCreated),
			ack: func() {
				c.in.acked(g.AddVertex(id, attrs), id, -1)
				c.fresh = append(c.fresh, id)
			}}
	case linkbench.OpUpdateNode:
		id := c.ownVertex(c.rng)
		data := c.payload()
		return op{kind: kind, write: true, method: http.MethodPatch, path: fmt.Sprintf("/vertex/%d/attrs", id),
			body: fmt.Sprintf(`{"set":{"data":%q}}`, data), userBytes: len(data) + len(`"data":""`),
			core:  func(s *core.Store) error { return s.SetVertexAttr(id, "data", data) },
			check: wantStatus(http.StatusOK),
			ack:   func() { c.in.acked(g.SetVertexAttr(id, "data", data), id, -1) }}
	case linkbench.OpDeleteNode:
		i := c.rng.Intn(len(c.fresh))
		id := c.fresh[i]
		return op{kind: kind, write: true, method: http.MethodDelete, path: fmt.Sprintf("/vertex/%d", id),
			userBytes: 8,
			core:      func(s *core.Store) error { return s.RemoveVertex(id) },
			check:     wantStatus(http.StatusOK),
			ack: func() {
				c.in.acked(g.RemoveVertex(id), id, -1)
				c.fresh[i] = c.fresh[len(c.fresh)-1]
				c.fresh = c.fresh[:len(c.fresh)-1]
			}}
	case linkbench.OpAddLink:
		// Links run from an own initial vertex to any initial vertex.
		// Initial vertices are never deleted, so no client's deletion can
		// remove another client's link.
		id := c.nextE
		c.nextE += c.step
		from, to := c.ownVertex(c.rng), c.rng.Int63n(int64(c.in.objects))
		label := lbLabels[c.rng.Intn(len(lbLabels))]
		attrs := map[string]any{"visibility": int64(1),
			"timestamp": int64(1700000000 + c.rng.Intn(100000000)), "data": c.payload()}
		body, _ := json.Marshal(map[string]any{"id": id, "from": from, "to": to, "label": label, "attrs": attrs})
		return op{kind: kind, write: true, method: http.MethodPost, path: "/edge", body: string(body),
			userBytes: int(attrBytes(attrs)) + edgeTripleBytes + len(label),
			core:      func(s *core.Store) error { return s.AddEdge(id, from, to, label, attrs) },
			check:     wantStatus(http.StatusCreated),
			ack: func() {
				c.in.acked(g.AddEdge(id, from, to, label, attrs), -1, id)
				c.edges = append(c.edges, id)
			}}
	case linkbench.OpDeleteLink:
		i := c.rng.Intn(len(c.edges))
		id := c.edges[i]
		return op{kind: kind, write: true, method: http.MethodDelete, path: fmt.Sprintf("/edge/%d", id),
			userBytes: 8,
			core:      func(s *core.Store) error { return s.RemoveEdge(id) },
			check:     wantStatus(http.StatusOK),
			ack: func() {
				c.in.acked(g.RemoveEdge(id), -1, id)
				c.edges[i] = c.edges[len(c.edges)-1]
				c.edges = c.edges[:len(c.edges)-1]
			}}
	default: // update_link
		id := c.edges[c.rng.Intn(len(c.edges))]
		data := c.payload()
		return op{kind: linkbench.OpUpdateLink, write: true, method: http.MethodPatch, path: fmt.Sprintf("/edge/%d/attrs", id),
			body: fmt.Sprintf(`{"set":{"data":%q}}`, data), userBytes: len(data) + len(`"data":""`),
			core:  func(s *core.Store) error { return s.SetEdgeAttr(id, "data", data) },
			check: wantStatus(http.StatusOK),
			ack:   func() { c.in.acked(g.SetEdgeAttr(id, "data", data), -1, id) }}
	}
}

func (c *lbClient) countLink(id int64, label string) op {
	g := c.in.graph
	text := fmt.Sprintf("g.V(%d).outE('%s').count()", id, label)
	return queryOp(linkbench.OpCountLink, text, func(status int, body []byte) error {
		recs, err := g.OutEdges(id, label)
		if err != nil {
			return err
		}
		want, _ := answerOf([]any{int64(len(recs))}) // an int always marshals
		return expectAnswer(want)(status, body)
	})
}

// acked records an acknowledged write. The model accepting it is part of
// the contract: a server that acknowledges what the model refuses has
// answered wrongly, which the next read of that element would show, so a
// refusal is kept as a failure of the final comparison.
func (in *linkbenchInst) acked(modelErr error, vertex, edge int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if vertex >= 0 {
		in.touchV[vertex] = true
	}
	if edge >= 0 {
		in.touchE[edge] = true
	}
	if modelErr != nil {
		in.refused = true
	}
}

func wantStatus(want int) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != want {
			return fmt.Errorf("status %d, want %d: %s", status, want, truncate(body))
		}
		return nil
	}
}

// checkVertex compares GET /vertex/{id} with the model.
func checkVertex(g *blueprints.MemGraph, id int64, status int, body []byte) error {
	want, err := g.VertexAttrs(id)
	if errors.Is(err, blueprints.ErrNotFound) {
		return wantStatus(http.StatusNotFound)(status, body)
	}
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, truncate(body))
	}
	var got struct {
		ID    int64           `json:"id"`
		Attrs json.RawMessage `json:"attrs"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if got.ID != id || !bytes.Equal(got.Attrs, wantJSON) {
		return fmt.Errorf("vertex %d: got %s, want %s", id, truncate(got.Attrs), truncate(wantJSON))
	}
	return nil
}

type edgeJSON struct {
	ID    int64  `json:"id"`
	From  int64  `json:"from"`
	To    int64  `json:"to"`
	Label string `json:"label"`
}

// checkEdgeList compares GET /vertex/{id}/out with the model, as sets.
func checkEdgeList(g *blueprints.MemGraph, id int64, labels []string, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, truncate(body))
	}
	want, err := g.OutEdges(id, labels...)
	if err != nil {
		return err
	}
	var got struct {
		Count int        `json:"count"`
		Edges []edgeJSON `json:"edges"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Count != len(want) || len(got.Edges) != len(want) {
		return fmt.Errorf("vertex %d: %d out-edges, want %d", id, len(got.Edges), len(want))
	}
	sort.Slice(got.Edges, func(i, j int) bool { return got.Edges[i].ID < got.Edges[j].ID })
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	for i, w := range want {
		if got.Edges[i] != (edgeJSON{w.ID, w.Out, w.In, w.Label}) {
			return fmt.Errorf("vertex %d: out-edge %+v, want %+v", id, got.Edges[i], w)
		}
	}
	return nil
}

// ---- crash and recovery --------------------------------------------------

// finish is the durability check: the online invariant check must be
// clean, then the log is killed and the store abandoned without Close,
// the directory is opened again, and every element an acknowledged write
// touched must read as the model says and the invariant check of the
// recovered store must be clean.
func (in *linkbenchInst) finish(rep *report) error {
	fail := func(format string, args ...any) {
		rep.failed++
		if rep.firstErr == nil {
			rep.firstErr = fmt.Errorf(format, args...)
		}
	}
	c := &caller{e: in.env}
	o := op{kind: "check", method: http.MethodGet, path: "/check", check: func(status int, body []byte) error {
		var resp struct {
			Healthy    bool     `json:"healthy"`
			Violations []string `json:"violations"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, truncate(body))
		}
		if !resp.Healthy {
			return fmt.Errorf("%d violations, first: %s", len(resp.Violations), resp.Violations[0])
		}
		return nil
	}}
	if _, _, err := c.do(&o, -1); err != nil {
		fail("GET /check: %v", err)
	}
	if err := in.stopServer(); err != nil {
		fail("drain: %v", err)
	}
	logSize := int64(0)
	if st, err := os.Stat(filepath.Join(in.dir, "wal.log")); err == nil {
		logSize = st.Size()
	}
	if frames, err := wal.ScanFrames(filepath.Join(in.dir, "wal.log")); err == nil && len(frames) > 0 {
		rep.Detail["wal_frame_bytes_mean"] = float64(logSize) / float64(len(frames))
	}

	// The crash. Commits are synchronous, so every acknowledged write has
	// been fsynced; whatever the log still buffers is dropped with it.
	in.store.WAL().Kill(errors.New("benchmark: simulated crash"))
	in.store = nil

	t0 := time.Now()
	st, err := core.Open(core.Options{Dir: in.dir})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	in.store = st
	if _, err := st.Query("g.V(0).out.count()"); err != nil {
		fail("first query after recovery: %v", err)
	}
	rep.Detail["recovery_s"] = time.Since(t0).Seconds()
	rep.Detail["recovered_rows"] = float64(st.CountVertices() + st.CountEdges())
	rep.Detail["snapshot_bytes"] = float64(in.snapshotBytes)

	g := in.graph
	if in.refused {
		fail("the model refused a write the server acknowledged")
	}
	if got, want := st.CountVertices(), g.CountVertices(); got != want {
		fail("after recovery: %d vertices, model has %d", got, want)
	}
	if got, want := st.CountEdges(), g.CountEdges(); got != want {
		fail("after recovery: %d edges, model has %d", got, want)
	}
	for id := range in.touchV {
		want, werr := g.VertexAttrs(id)
		got, gerr := st.VertexAttrs(id)
		if !sameAttrs(want, werr, got, gerr) {
			fail("after recovery: vertex %d reads %v (%v), model has %v (%v)", id, got, gerr, want, werr)
		}
	}
	for id := range in.touchE {
		want, werr := g.EdgeAttrs(id)
		got, gerr := st.EdgeAttrs(id)
		if !sameAttrs(want, werr, got, gerr) {
			fail("after recovery: edge %d reads %v (%v), model has %v (%v)", id, got, gerr, want, werr)
		}
		wrec, _ := g.Edge(id)
		grec, _ := st.Edge(id)
		if werr == nil && wrec != grec {
			fail("after recovery: edge %d is %+v, model has %+v", id, grec, wrec)
		}
	}
	rep.checked += len(in.touchV) + len(in.touchE)
	// core.Fsck(dir) is this check preceded by a second recovery of the
	// same bytes; the recovered store is at hand, so check it directly.
	if vs := core.Check(st); len(vs) > 0 {
		fail("fsck of the recovered store: %d violations, first: %s", len(vs), vs[0])
	}
	var uerr error
	if in.userBytes, uerr = userBytesOf(g); uerr != nil {
		return uerr
	}
	return nil
}

func sameAttrs(want map[string]any, werr error, got map[string]any, gerr error) bool {
	if werr != nil || gerr != nil {
		return errors.Is(werr, blueprints.ErrNotFound) && errors.Is(gerr, blueprints.ErrNotFound)
	}
	a, err1 := json.Marshal(want)
	b, err2 := json.Marshal(got)
	return err1 == nil && err2 == nil && bytes.Equal(a, b)
}
