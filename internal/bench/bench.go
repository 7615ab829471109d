// Package bench provides the shared experiment harness: timed query
// execution with timeouts, mean/stddev aggregation, fixed-width result
// tables, and the memory-constrained buffer-pool models of the paper's
// memory-sweep experiment (Figure 8c).
package bench

import (
	"container/list"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
	"sqlgraph/internal/rel"
)

// System is one store under test, exposed through a Gremlin runner that
// returns the result cardinality.
type System struct {
	Name string
	Run  func(query string) (int, error)
}

// InterpSystem wraps a Blueprints store with the pipe-at-a-time Gremlin
// interpreter (how the baseline stores execute queries).
func InterpSystem(name string, g blueprints.Graph) System {
	return System{
		Name: name,
		Run: func(query string) (int, error) {
			q, err := gremlin.Parse(query)
			if err != nil {
				return 0, err
			}
			r, err := interp.Eval(g, q)
			if err != nil {
				return 0, err
			}
			return r.Count(), nil
		},
	}
}

// Timing is one timed query execution.
type Timing struct {
	Duration time.Duration
	Count    int
	Err      error
	TimedOut bool
}

// RunTimed executes the query under a wall-clock timeout. A timed-out
// query's goroutine is abandoned (queries are not cancellable), so
// timeouts should be rare and generous.
func RunTimed(sys System, query string, timeout time.Duration) Timing {
	type outcome struct {
		n   int
		err error
		dt  time.Duration
	}
	ch := make(chan outcome, 1)
	go func() {
		t0 := time.Now()
		n, err := sys.Run(query)
		ch <- outcome{n: n, err: err, dt: time.Since(t0)}
	}()
	if timeout <= 0 {
		o := <-ch
		return Timing{Duration: o.dt, Count: o.n, Err: o.err}
	}
	select {
	case o := <-ch:
		return Timing{Duration: o.dt, Count: o.n, Err: o.err}
	case <-time.After(timeout):
		return Timing{Duration: timeout, TimedOut: true}
	}
}

// Repeat runs the query `runs` times, discards the first run (warm-cache
// methodology, Section 3.2: "we always discarded the first run"), and
// returns the remaining timings.
func Repeat(sys System, query string, runs int, timeout time.Duration) []Timing {
	if runs < 2 {
		runs = 2
	}
	out := make([]Timing, 0, runs-1)
	for i := 0; i < runs; i++ {
		t := RunTimed(sys, query, timeout)
		if t.TimedOut || t.Err != nil {
			// No point repeating a failing/timing-out query.
			if i == 0 {
				return []Timing{t}
			}
			out = append(out, t)
			return out
		}
		if i > 0 {
			out = append(out, t)
		}
	}
	return out
}

// MeanStd aggregates durations.
func MeanStd(ts []Timing) (mean, std time.Duration) {
	if len(ts) == 0 {
		return 0, 0
	}
	var sum float64
	for _, t := range ts {
		sum += float64(t.Duration)
	}
	m := sum / float64(len(ts))
	var varsum float64
	for _, t := range ts {
		d := float64(t.Duration) - m
		varsum += d * d
	}
	return time.Duration(m), time.Duration(math.Sqrt(varsum / float64(len(ts))))
}

// Table renders fixed-width result tables.
type Table struct {
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatDuration renders durations compactly for tables.
func FormatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// lruPool is the bounded LRU both buffer-pool models of Figure 8c's
// memory sweep keep their resident keys in: a key touched outside it is a
// miss, and evicts the least recently touched.
type lruPool struct {
	mu      sync.Mutex
	lru     *list.List // front = most recent
	resides map[any]*list.Element
	cap     int
	misses  int64
}

func newLRUPool(capacity int) lruPool {
	return lruPool{lru: list.New(), resides: map[any]*list.Element{}, cap: capacity}
}

// Misses reports the cumulative miss count.
func (c *lruPool) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// touch makes key the most recent and reports whether it was resident.
func (c *lruPool) touch(key any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.resides[key]; ok {
		c.lru.MoveToFront(el)
		return true
	}
	c.misses++
	if c.lru.Len() >= c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.resides, back.Value)
	}
	c.resides[key] = c.lru.PushFront(key)
	return false
}

// CacheSimGraph decorates a Blueprints store with a bounded element cache:
// element accesses outside the cache pay a miss penalty, modeling a
// memory-limited buffer pool (Figure 8c's memory sweep for the baseline
// stores; SQLGraph is given an IOSim instead).
type CacheSimGraph struct {
	blueprints.Graph
	lruPool
	penalty time.Duration
}

// NewCacheSimGraph wraps g with a cache of the given element capacity.
func NewCacheSimGraph(g blueprints.Graph, capacity int, penalty time.Duration) *CacheSimGraph {
	return &CacheSimGraph{Graph: g, lruPool: newLRUPool(capacity), penalty: penalty}
}

func (c *CacheSimGraph) touch(key string) {
	if !c.lruPool.touch(key) && c.penalty > 0 {
		time.Sleep(c.penalty)
	}
}

// IOSim models a bounded buffer pool for the SQLGraph engine
// (engine.PageModel): row accesses map to pages of pageRows rows, and
// each miss on the LRU is charged a fixed penalty at the end of the
// query. This substitutes for varying the memory given to the commercial
// engine in the paper's memory-sweep experiment.
type IOSim struct {
	lruPool
	pageRows int
	penalty  time.Duration
}

type pageKey struct {
	table string
	page  int64
}

// NewIOSim creates a simulator with the given pool capacity in pages.
func NewIOSim(capacity, pageRows int, missPenalty time.Duration) *IOSim {
	return &IOSim{lruPool: newLRUPool(capacity), pageRows: pageRows, penalty: missPenalty}
}

// Access touches the row's page and reports whether it was resident.
func (s *IOSim) Access(table string, rid rel.RowID) bool {
	return s.touch(pageKey{table: table, page: int64(rid) / int64(s.pageRows)})
}

// MissPenalty is the time charged per miss.
func (s *IOSim) MissPenalty() time.Duration { return s.penalty }

// VertexAttrs implements blueprints.Graph with cache accounting.
func (c *CacheSimGraph) VertexAttrs(id int64) (map[string]any, error) {
	c.touch(fmt.Sprintf("v%d", id))
	return c.Graph.VertexAttrs(id)
}

// OutEdges implements blueprints.Graph with cache accounting.
func (c *CacheSimGraph) OutEdges(v int64, labels ...string) ([]blueprints.EdgeRec, error) {
	c.touch(fmt.Sprintf("o%d", v))
	return c.Graph.OutEdges(v, labels...)
}

// InEdges implements blueprints.Graph with cache accounting.
func (c *CacheSimGraph) InEdges(v int64, labels ...string) ([]blueprints.EdgeRec, error) {
	c.touch(fmt.Sprintf("i%d", v))
	return c.Graph.InEdges(v, labels...)
}

// Edge implements blueprints.Graph with cache accounting.
func (c *CacheSimGraph) Edge(id int64) (blueprints.EdgeRec, error) {
	c.touch(fmt.Sprintf("e%d", id))
	return c.Graph.Edge(id)
}

// EdgeAttrs implements blueprints.Graph with cache accounting.
func (c *CacheSimGraph) EdgeAttrs(id int64) (map[string]any, error) {
	c.touch(fmt.Sprintf("e%d", id))
	return c.Graph.EdgeAttrs(id)
}
