// Package trace is a stdlib-only, low-overhead query-tracing subsystem:
// each request builds a span tree (parse → translate → plan → execute,
// with execute fanning out into one timed span per operator), a
// lock-free ring buffer retains the last N traces for /debug/queries,
// and a threshold-triggered slow-query log captures outliers.
//
// The design keeps the per-row path allocation-free: operators
// accumulate timings into the executor's existing stat structs (two
// clock reads per operator, nothing per row), and the span tree is
// materialized once per request from a few slabs of spans.
package trace

import (
	"encoding/json"
	"sync"
	"time"
)

// Span is one timed node in a trace's tree. Offsets are relative to the
// trace start so a rendered tree never needs wall-clock anchoring.
type Span struct {
	Name     string  `json:"name"`
	Detail   string  `json:"detail,omitempty"`
	StartNs  int64   `json:"start_ns"`
	DurNs    int64   `json:"dur_ns"`
	RowsIn   int64   `json:"rows_in,omitempty"`
	RowsOut  int64   `json:"rows_out,omitempty"`
	Children []*Span `json:"children,omitempty"`

	start time.Time // set while the span is open
}

// Trace is one recorded request: a query (kind "query") or a graph
// mutation / maintenance operation (kind "write").
//
// A query's trace carries the statement it ran as the shared template and
// a way to write this request's arguments into it; the literal statement
// and the rendered arguments are written when the trace is read
// (Statement, Text, MarshalJSON), not on the request's path. SQL and Args
// are set on a trace decoded from JSON.
type Trace struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Name     string    `json:"name"`
	SQL      string    `json:"sql,omitempty"`
	Template string    `json:"template,omitempty"`
	Args     []string  `json:"args,omitempty"`
	Start    time.Time `json:"start"`
	DurNs    int64     `json:"dur_ns"`
	Err      string    `json:"error,omitempty"`
	Slow     bool      `json:"slow,omitempty"`
	Root     *Span     `json:"root"`

	stmt *lazyStatement
}

// lazyStatement renders a trace's literal SQL and arguments once, on the
// first read.
type lazyStatement struct {
	once   sync.Once
	render func() (sql string, args []string)
	sql    string
	args   []string
}

// Statement returns the literal SQL the request ran and its arguments as
// SQL text.
func (t *Trace) Statement() (sql string, args []string) {
	l := t.stmt
	if l == nil {
		return t.SQL, t.Args
	}
	l.once.Do(func() {
		l.sql, l.args = l.render()
		l.render = nil
	})
	return l.sql, l.args
}

// MarshalJSON encodes the trace with its statement rendered.
func (t *Trace) MarshalJSON() ([]byte, error) {
	type plain Trace // the fields without the method
	p := plain(*t)
	p.SQL, p.Args = t.Statement()
	return json.Marshal(&p)
}

// Duration returns the trace's total wall time.
func (t *Trace) Duration() time.Duration { return time.Duration(t.DurNs) }

// spanChunk is the size of a request's first slab of spans: its stage
// spans and a few operators'. A full slab is followed by one twice its
// size, so a 100-operator plan takes four slabs and a short query holds
// little more than the spans it uses.
const spanChunk = 8

// Builder assembles one trace. It is not safe for concurrent use: one
// request builds its trace from a single goroutine (operator timings
// from parallel workers arrive via the executor's stat structs, not via
// the builder).
type Builder struct {
	tr   *Trace
	t0   time.Time
	slab []Span
	open []*Span // stack of open spans; open[0] is the root
}

// NewBuilder starts a trace. An empty id gets a fresh one minted.
func NewBuilder(id, kind, name string) *Builder {
	if id == "" {
		id = NewID()
	}
	b := &Builder{}
	b.t0 = time.Now()
	root := b.alloc()
	root.Name = kind
	root.start = b.t0
	b.tr = &Trace{ID: id, Kind: kind, Name: name, Start: b.t0, Root: root}
	b.open = append(b.open, root)
	return b
}

// alloc hands out a span from the current slab, starting a new one once
// it is full (a slab never regrows, so previously returned pointers stay
// valid).
func (b *Builder) alloc() *Span {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Span, 0, max(2*cap(b.slab), spanChunk))
	}
	b.slab = b.slab[:len(b.slab)+1]
	return &b.slab[len(b.slab)-1]
}

// Begin opens a child span of the innermost open span.
func (b *Builder) Begin(name string) *Span {
	sp := b.alloc()
	sp.Name = name
	sp.start = time.Now()
	sp.StartNs = sp.start.Sub(b.t0).Nanoseconds()
	parent := b.open[len(b.open)-1]
	parent.Children = append(parent.Children, sp)
	b.open = append(b.open, sp)
	return sp
}

// End closes the given span (and anything opened after it).
func (b *Builder) End(sp *Span) {
	sp.DurNs = time.Since(sp.start).Nanoseconds()
	for i := len(b.open) - 1; i > 0; i-- {
		cur := b.open[i]
		b.open = b.open[:i]
		if cur == sp {
			break
		}
	}
}

// Child attaches an already-measured span (e.g. an operator timing
// lifted from executor stats) under parent. startNs is relative to the
// parent's start.
func (b *Builder) Child(parent *Span, name, detail string, startNs, durNs, rowsIn, rowsOut int64) *Span {
	sp := b.alloc()
	sp.Name = name
	sp.Detail = detail
	sp.StartNs = parent.StartNs + startNs
	sp.DurNs = durNs
	sp.RowsIn = rowsIn
	sp.RowsOut = rowsOut
	parent.Children = append(parent.Children, sp)
	return sp
}

// Observe attaches an already-measured span under the innermost open
// span, anchored by its absolute start time (e.g. a WAL fsync timed for
// the metrics counters anyway).
func (b *Builder) Observe(name, detail string, start time.Time, d time.Duration) *Span {
	sp := b.alloc()
	sp.Name = name
	sp.Detail = detail
	sp.StartNs = start.Sub(b.t0).Nanoseconds()
	sp.DurNs = d.Nanoseconds()
	parent := b.open[len(b.open)-1]
	parent.Children = append(parent.Children, sp)
	return sp
}

// Span returns the trace's root span (for attaching detail mid-build).
func (b *Builder) Span() *Span { return b.tr.Root }

// SetStatement records the statement the request runs: its template, and
// how to write the literal SQL and the rendered arguments when the trace
// is read. render runs at most once, possibly long after the request; it
// must only read what stays unchanged.
func (b *Builder) SetStatement(template string, render func() (sql string, args []string)) {
	b.tr.Template, b.tr.stmt = template, &lazyStatement{render: render}
}

// Finish closes every open span and seals the trace.
func (b *Builder) Finish(err error) *Trace {
	for i := len(b.open) - 1; i >= 0; i-- {
		sp := b.open[i]
		sp.DurNs = time.Since(sp.start).Nanoseconds()
	}
	b.open = b.open[:0]
	b.tr.DurNs = time.Since(b.t0).Nanoseconds()
	if err != nil {
		b.tr.Err = err.Error()
	}
	return b.tr
}
