package engine

import (
	"errors"
	"sync"
	"time"

	"sqlgraph/internal/rel"
)

// Operators push rows into a sink instead of returning them (DESIGN.md
// §8). A SELECT core appends its joins, filters and projection as stages
// to the relation it reads; nothing runs until a terminal is attached,
// and only the terminal stores rows. A CTE with one consumer is handed
// over un-run, so a whole Table-8 hop runs per driving row into the
// DISTINCT set of the CTE that ends it.

// sink receives an operator's output one row at a time. A row pushed by a
// stage that assembles its output in a scratch buffer (pipe.scratch) is
// valid only until push returns: a sink that keeps it copies it.
type sink interface {
	push(row []rel.Value) error
}

// counter is a sink that counts: done folds what this instance counted
// into the query's statistics. The driver calls it once, on the
// dispatching goroutine, after the workers have joined.
type counter interface{ done() }

// stage is one operator of a pipeline. open returns a worker's private
// instance — compiled expressions, scratch row, counters — that pushes
// into next.
type stage interface {
	open(next sink) (sink, error)
}

// stageFunc is a stage that needs no state beyond what it closes over.
type stageFunc func(next sink) (sink, error)

func (f stageFunc) open(next sink) (sink, error) { return f(next) }

// pipe is a pipeline that has not run: stored rows and the stages each of
// them passes through, in order.
type pipe struct {
	head    [][]rel.Value
	stages  []stage
	joins   []int // ExecStats.Joins indices of the join stages, in order
	scratch bool  // rows leaving the last stage live in a stage's scratch buffer
	serial  bool  // a stage evaluates a subquery: one worker only
	fans    bool  // a stage may emit fewer or more rows than it is pushed
}

// stageKind says what a stage does to the rows it is pushed.
type stageKind uint8

const (
	emitsScratch stageKind = 1 << iota // assembles its output in a buffer of its own rather than passing its input on
	serialOnly                         // evaluates a subquery: must not run on workers
	oneToOne                           // emits exactly one row per row
)

// pipes hands over the pipelines whose output, in order, is r: its own
// while r is pending (r gives them up — a pending relation has one
// reader), else its stored rows with no stage. A second reader of a taken
// relation — one the reader count (cteReaders) missed — gets a pipeline
// that fails when it runs.
func (r *relation) pipes() []*pipe {
	switch {
	case r.src != nil:
		src := r.src
		r.src, r.taken = nil, true
		return src
	case r.taken:
		return []*pipe{{stages: []stage{stageFunc(func(sink) (sink, error) { return nil, errTaken })}}}
	}
	return []*pipe{{head: r.rows}}
}

var errTaken = errors.New("engine: internal error: a pipelined relation was read twice")

// as returns r under other column names.
func (r *relation) as(cols []colInfo) *relation {
	if r.src == nil && !r.taken {
		return &relation{cols: cols, rows: r.rows, ordered: r.ordered}
	}
	return &relation{cols: cols, src: r.pipes(), ordered: r.ordered}
}

// then returns the pending relation of r's rows passed through st.
func (r *relation) then(cols []colInfo, st stage, kind stageKind) *relation {
	out := &relation{cols: cols, src: r.pipes(), ordered: r.ordered}
	for _, p := range out.src {
		p.stages = append(p.stages, st)
		p.scratch = p.scratch || kind&emitsScratch != 0
		p.serial = p.serial || kind&serialOnly != 0
		p.fans = p.fans || kind&oneToOne == 0
		if j, ok := st.(interface{ joinStat() int }); ok {
			p.joins = append(p.joins, j.joinStat())
		}
	}
	return out
}

// terminal is the sink a run ends in. Rows reach it in order: pushed one
// by one when the pipe runs on one worker, or absorbed a morsel's buffer
// at a time, in morsel order, when it ran on several.
type terminal interface {
	sink
	// absorb takes one morsel's buffer: rows that stay valid.
	absorb(m morselBuf) error
}

// morselBuf is what a worker's partial kept of one morsel, and how many
// rows it was pushed to get there. Under DISTINCT it may be ids instead
// of rows: the morsel's one-integer rows, in first-occurrence order.
type morselBuf struct {
	rows [][]rel.Value
	ids  []int64
	in   int
}

// collect stores the rows it receives: the terminal of every
// materialisation and, with seen set, of DISTINCT. Under DISTINCT a row
// that is one integer — every frontier of the translation — is kept as
// its id in the set until finish builds the rows, all at once: ascending
// when the input carries no order (ascending set), in first-occurrence
// order otherwise (the set lists them). The first row that is not one
// integer builds the ids kept so far into rows, and rows are kept as
// they arrive from then on.
type collect struct {
	rows      [][]rel.Value
	arena     *rowArena
	seen      *deduper // nil keeps duplicates
	in        int      // rows received
	copy      bool     // pushed rows are scratch
	ascending bool     // under DISTINCT: the input is order-free, so ids come out ascending
	transit   bool     // a morsel buffer on the way to a terminal that stores nothing
}

func newCollect(width int, seen *deduper) *collect {
	return &collect{arena: newRowArena(width, 0), seen: seen}
}

func (c *collect) push(row []rel.Value) error {
	c.in++
	if c.seen != nil {
		c.offer(row, c.copy)
		return nil
	}
	if c.copy && len(row) > 0 {
		row = c.clone(row)
	}
	c.rows = append(c.rows, row)
	return nil
}

func (c *collect) clone(row []rel.Value) []rel.Value {
	kept := c.arena.alloc()
	copy(kept, row)
	return kept
}

// offer keeps row under DISTINCT unless it was seen before; scratch says
// row is valid only until offer returns.
func (c *collect) offer(row []rel.Value, scratch bool) {
	if id, ok := c.seen.intRow(row); ok {
		c.addID(id)
		return
	}
	if c.seen.strs == nil {
		c.settle(false) // the ids go ahead of the rows that follow them
	}
	if c.seen.seen(row) {
		return
	}
	if scratch && len(row) > 0 {
		row = c.clone(row)
	}
	c.rows = append(c.rows, row)
}

// addID offers the row {id} while the set holds ids.
func (c *collect) addID(id int64) {
	if c.seen.ints.add(id) && !c.ascending {
		c.seen.ids = append(c.seen.ids, id)
	}
}

// settle appends the rows of the ids accepted so far: the set's, sorted,
// under an ascending DISTINCT, else those it listed, in order. At the
// final settle the set's table, no longer needed, is the sort's scratch.
func (c *collect) settle(final bool) {
	ids := c.seen.ids
	if c.ascending {
		ids = c.seen.ints.appendTo(make([]int64, 0, c.seen.ints.len()))
		var scratch []int64
		if final {
			scratch = c.seen.ints.slots
		}
		sortIDs(ids, scratch)
	}
	if len(ids) > 0 {
		c.rows = appendIntRows(c.rows, ids)
	}
	c.seen.ids = nil
}

// finish ends a DISTINCT: it builds the rows of the ids still kept and
// reports whether the result came out in ascending order, which it does
// when the input was order-free and every row was one integer.
func (c *collect) finish() (ascending bool) {
	if c.seen == nil {
		return false
	}
	ascending = c.ascending && len(c.rows) == 0
	c.settle(true)
	return ascending
}

func (c *collect) absorb(m morselBuf) error {
	c.in += m.in
	if c.seen == nil {
		c.rows = append(c.rows, m.rows...)
		return nil
	}
	for _, id := range m.ids {
		if c.seen.strs == nil {
			c.addID(id)
		} else {
			row := c.arena.alloc()
			row[0] = rel.NewInt(id)
			c.offer(row, false)
		}
	}
	for _, row := range m.rows {
		c.offer(row, false)
	}
	return nil
}

// takeMorsel returns what was collected since the last call and starts
// the next morsel's buffer. Under DISTINCT the morsel's set is emptied
// and kept for the next.
func (c *collect) takeMorsel() morselBuf {
	m := morselBuf{rows: c.rows, in: c.in}
	c.rows, c.in = make([][]rel.Value, 0, len(m.rows)), 0
	if c.seen != nil {
		m.ids = c.seen.ids
		c.seen.reset()
		c.seen.ids = make([]int64, 0, len(m.ids))
	}
	return m
}

// chain is one worker's instance of a pipe's stages.
type chain struct {
	head  sink
	sinks []sink
	tail  *collect // the worker's morsel buffer; nil when the chain ends in the terminal
}

func (p *pipe) open(tail sink) (*chain, error) {
	c := &chain{head: tail, sinks: make([]sink, len(p.stages))}
	for i := len(p.stages) - 1; i >= 0; i-- {
		s, err := p.stages[i].open(c.head)
		if err != nil {
			return nil, err
		}
		c.sinks[i], c.head = s, s
	}
	return c, nil
}

// run pushes r's rows, in order, into term. Each pipe runs morsel-parallel
// over its stored head when that is large enough (morselPlan): every
// worker has a chain of its own ending in a per-morsel buffer, and the
// buffers reach term in morsel order, so what term sees is what a serial
// run would have pushed. A pipe's wall time is charged to its first join,
// or, when it has none, to the operator stat op (-1: to nothing): stages
// are not timed one by one.
func (e *Engine) run(q *queryState, r *relation, term terminal, op int) error {
	runT := time.Now()
	ps := PipelineStat{Op: op, StartNs: q.sinceStart(runT)}
	for _, p := range r.pipes() {
		pipeT := time.Now()
		morsels, workers, err := e.runPipe(q, p, len(r.cols), term)
		if err != nil {
			return err
		}
		d := time.Since(pipeT).Nanoseconds()
		ps.RowsIn += len(p.head)
		for i, j := range p.joins {
			js := &q.stats.Joins[j]
			if js.Workers == 0 {
				ps.Joins = append(ps.Joins, j)
				if js.Nanos == 0 { // else a hash join, timed from its build
					js.StartNs = q.sinceStart(pipeT)
				}
			}
			js.Morsels += morsels
			js.Workers = max(js.Workers, workers)
			if i == 0 {
				js.Nanos += d
			}
		}
		if len(p.joins) == 0 && op >= 0 {
			q.stats.Ops[op].Nanos += d
		}
	}
	ps.Nanos = time.Since(runT).Nanoseconds()
	q.stats.Pipelines = append(q.stats.Pipelines, ps)
	return nil
}

func (e *Engine) runPipe(q *queryState, p *pipe, width int, term terminal) (morsels, workers int, err error) {
	n := len(p.head)
	stores, _ := term.(*collect) // nil: term keeps no rows, morsel buffers are transit
	par := q.par
	if p.serial || stores == nil && len(p.stages) == 0 {
		par = 1 // a subquery stage; or no stage at all, and workers would only buffer the head for term to replay
	}
	_, workers = morselPlan(n, par)
	var bufs []morselBuf
	if workers > 1 {
		bufs = make([]morselBuf, (n+morselRows-1)/morselRows)
	} else if stores != nil {
		stores.copy = p.scratch
	}
	var mu sync.Mutex
	var chains []*chain
	newWorker := func() (*chain, error) {
		var tail *collect
		var end sink = term
		if bufs != nil {
			// Under DISTINCT a morsel's buffer drops the morsel's own
			// duplicates before the ordered merge sees them.
			tail = &collect{arena: newRowArena(width, 0), copy: p.scratch, transit: stores == nil}
			if stores != nil && stores.seen != nil {
				tail.seen = &deduper{}
			}
			end = tail
		}
		c, err := p.open(end)
		if err != nil {
			return nil, err
		}
		c.tail = tail
		mu.Lock()
		chains = append(chains, c)
		mu.Unlock()
		return c, nil
	}
	morsels, workers, err = runMorsels(n, par, newWorker, func(c *chain, m, lo, hi int) error {
		for _, row := range p.head[lo:hi] {
			if err := c.head.push(row); err != nil {
				return err
			}
		}
		if c.tail != nil {
			bufs[m] = c.tail.takeMorsel()
		}
		return nil
	})
	if err != nil {
		return morsels, workers, err
	}
	for _, c := range chains {
		for _, s := range c.sinks {
			if s, ok := s.(counter); ok {
				s.done()
			}
		}
	}
	for _, b := range bufs {
		if err := term.absorb(b); err != nil {
			return morsels, workers, err
		}
	}
	return morsels, workers, nil
}

// materialize runs a pending relation into stored rows. A head no stage
// touches is shared as it stands (the immutability rule of DESIGN.md §8).
func (e *Engine) materialize(q *queryState, r *relation) error {
	if r.taken {
		return errTaken
	}
	if r.src == nil {
		return nil
	}
	if len(r.src) == 1 && len(r.src[0].stages) == 0 {
		r.rows, r.src = r.src[0].head, nil
		return nil
	}
	c := newCollect(len(r.cols), nil)
	// A result with as many rows as the heads have is sized once.
	n := 0
	for _, p := range r.src {
		if n += len(p.head); p.fans {
			n = 0
			break
		}
	}
	if n > 0 {
		c.rows, c.arena.next = make([][]rel.Value, 0, n), n
	}
	if err := e.run(q, r, c, -1); err != nil {
		return err
	}
	r.rows, r.taken = c.rows, false
	q.stats.MaterializedRows += len(c.rows)
	return nil
}

// cteMark returns the stage that sits where a pending CTE's stages end
// and its reader's begin: it counts the rows the CTE produced and notes
// whether they were stored after all (its reader materialised them) or
// flowed on. stat indexes ExecStats.CTEs.
func cteMark(q *queryState, stat int) stage {
	return stageFunc(func(next sink) (sink, error) {
		c, stored := next.(*collect)
		return &cteMarkSink{q: q, stat: stat, next: next, stored: stored && c.seen == nil && !c.transit}, nil
	})
}

type cteMarkSink struct {
	q      *queryState
	stat   int
	next   sink
	n      int
	stored bool
}

func (s *cteMarkSink) push(row []rel.Value) error {
	s.n++
	return s.next.push(row)
}

func (s *cteMarkSink) done() {
	st := &s.q.stats.CTEs[s.stat]
	st.Rows += s.n
	st.Fused = !s.stored
}

// where returns r's rows that satisfy the conjuncts, which it marks
// applied.
func (e *Engine) where(q *queryState, r *relation, sc *scope, conjs []*conjunct) *relation {
	markApplied(conjs)
	return r.then(r.cols, stageFunc(func(next sink) (sink, error) {
		pass, err := e.compilePredicates(q, sc, conjs)
		return &filterSink{pass: pass, next: next}, err
	}), serialIf(!parallelSafeConjuncts(conjs)))
}

func serialIf(serial bool) stageKind {
	if serial {
		return serialOnly
	}
	return 0
}

type filterSink struct {
	pass func(row []rel.Value) (bool, error)
	next sink
}

func (s *filterSink) push(row []rel.Value) error {
	ok, err := s.pass(row)
	if err != nil || !ok {
		return err
	}
	return s.next.push(row)
}
