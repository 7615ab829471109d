// Social network example: the paper's LinkBench scenario (Section 5.2)
// end-to-end over HTTP. The social graph comes from the LinkBench
// generator (power-law out-degrees, typed objects and associations) and
// is loaded through POST /batch — many operations per request, one
// writer transaction and one durability wait each — then queried
// with Gremlin via POST /query and updated by concurrent clients
// issuing batches against the same durable store.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"sqlgraph/internal/bench/linkbench"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/server"
)

const (
	objects   = 2000
	batchSize = 256
)

// batchClient satisfies blueprints.Graph for the LinkBench generator but
// ships every AddVertex/AddEdge over HTTP: operations buffer locally and
// flush as POST /batch requests of batchSize ops. The embedded MemGraph
// only fills out the read side of the interface, which the generator
// never touches.
type batchClient struct {
	*blueprints.MemGraph
	base    string
	ops     []map[string]any
	batches int
}

func (c *batchClient) AddVertex(id blueprints.ID, attrs map[string]any) error {
	c.ops = append(c.ops, map[string]any{"op": "add_vertex", "id": id, "attrs": attrs})
	return c.maybeFlush()
}

func (c *batchClient) AddEdge(id, out, in blueprints.ID, label string, attrs map[string]any) error {
	c.ops = append(c.ops, map[string]any{
		"op": "add_edge", "id": id, "from": out, "to": in, "label": label, "attrs": attrs,
	})
	return c.maybeFlush()
}

func (c *batchClient) maybeFlush() error {
	if len(c.ops) < batchSize {
		return nil
	}
	return c.Flush()
}

func (c *batchClient) Flush() error {
	if len(c.ops) == 0 {
		return nil
	}
	if err := postBatch(c.base, c.ops); err != nil {
		return err
	}
	c.batches++
	c.ops = c.ops[:0]
	return nil
}

// postBatch sends one POST /batch request and fails on any non-2xx.
func postBatch(base string, ops []map[string]any) error {
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /batch: %d %s", resp.StatusCode, raw)
	}
	return nil
}

func main() {
	dir, err := os.MkdirTemp("", "socialnetwork-")
	check(err)
	defer os.RemoveAll(dir)

	// A durable store served over HTTP — the same serving layer sqlgraphd
	// boots.
	store, err := core.Open(core.Options{Dir: dir})
	check(err)
	srv := server.New(store, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Generate the LinkBench social graph straight through POST /batch.
	client := &batchClient{base: ts.URL}
	_, err = linkbench.Generate(linkbench.Config{Objects: objects, Seed: 7}, client)
	check(err)
	check(client.Flush())
	fmt.Printf("loaded %d vertices, %d edges via %d POST /batch requests\n\n",
		store.CountVertices(), store.CountEdges(), client.batches)

	// Feed-style queries over the association graph.
	show := func(title, q string) {
		body, _ := json.Marshal(map[string]any{"gremlin": q})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		check(err)
		var out struct {
			Count  int   `json:"count"`
			Values []any `json:"values"`
		}
		check(json.NewDecoder(resp.Body).Decode(&out))
		resp.Body.Close()
		if out.Count == 1 {
			fmt.Printf("%-44s %v\n", title, out.Values[0])
		} else {
			fmt.Printf("%-44s %d results\n", title, out.Count)
		}
	}
	show("friends of object 42:", "g.V(42).out('friend').count()")
	show("friends-of-friends (distinct):", "g.V(42).out('friend').out('friend').dedup().count()")
	show("posts/likes fanning out of object 42:", "g.V(42).out.count()")
	show("followers two hops from object 7:", "g.V(7).in('follow').in('follow').dedup().count()")

	// Concurrent update burst: 8 clients each push batches of friend
	// edges; the server applies every batch as one writer transaction and
	// batches that commit while an fsync runs share the next one.
	var nextEdge atomic.Int64
	nextEdge.Store(10_000_000)
	before := store.Tracer().WriteStats()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < 16; b++ {
				ops := make([]map[string]any, 0, 8)
				for i := 0; i < 8; i++ {
					ops = append(ops, map[string]any{
						"op": "add_edge", "id": nextEdge.Add(1),
						"from": int64(rng.Intn(objects)), "to": int64(rng.Intn(objects)),
						"label": "friend", "attrs": map[string]any{"since": int64(2020 + rng.Intn(6))},
					})
				}
				if err := postBatch(ts.URL, ops); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	after := store.Tracer().WriteStats()
	muts := after.WALAppends - before.WALAppends
	fsyncs := after.WALFsyncs - before.WALFsyncs
	fmt.Printf("\nconcurrent burst: %d mutations durable in %d fsyncs (%.3f fsyncs/mutation)\n",
		muts, fsyncs, float64(fsyncs)/float64(muts))
	show("after concurrent burst:", "g.E.count()")

	// The flush-batch histogram from /metrics shows how many records each
	// fsync covered.
	resp, err := http.Get(ts.URL + "/metrics")
	check(err)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nWAL flush-batch histogram (/metrics):")
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "sqlgraphd_wal_flush_records") {
			fmt.Println("  " + line)
		}
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
