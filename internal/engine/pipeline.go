package engine

import (
	"errors"
	"slices"
	"sync"
	"time"

	"sqlgraph/internal/rel"
)

// Operators push rows into a sink instead of returning them (DESIGN.md
// §8). A SELECT core appends its joins, filters and projection as stages
// to the relation it reads; nothing runs until a terminal is attached,
// and only the terminal stores rows. A CTE with one consumer is handed
// over un-run, so a whole Table-8 hop runs per driving row into the
// DISTINCT set of the CTE that ends it. A full table scan is a pipe's
// head like stored rows are (DESIGN.md §22): its workers filter the rows
// they scan and push them on, so a scan is stored only where its reader
// needs stored rows.

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

// pipe is a pipeline that has not run: its head — stored rows, or a
// table scan — and the stages each row of it passes through, in order.
type pipe struct {
	head    [][]rel.Value
	scan    *scanSource // non-nil: the rows come from a full scan, head is unused
	stages  []stage
	joins   []int // ExecStats.Joins indices of the join stages, in order
	scratch bool  // rows leaving the last stage live in a stage's scratch buffer
	serial  bool  // a stage (or the scan's filter) evaluates a subquery: one worker only
	fans    bool  // a stage or the scan's filter may emit fewer or more rows than it is pushed
}

// size returns the rows the pipe's morsels are cut from — stored rows or
// table slots — and how many of them are rows, which is what decides
// whether the pipe fans out: a scan's slots include deleted rows.
func (p *pipe) size() (n, rows int) {
	if p.scan != nil {
		return p.scan.t.Slots(), p.scan.t.LiveLocked()
	}
	return len(p.head), len(p.head)
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
// by one when the pipe runs on one worker. On several, each worker's
// chain ends in a part of the terminal's making, and what the parts kept
// of each morsel reaches the terminal in morsel order.
type terminal interface {
	sink
	// part returns a new worker's end of the chain. scratch says the rows
	// pushed into it are valid only until push returns.
	part(width int, scratch bool) (part, error)
	// absorb takes what the parts kept of each morsel, in morsel order.
	absorb(ms []morselBuf) error
	// replays reports whether its parts keep the rows they are pushed, for
	// absorb to push again: a pipe from stored rows with no stage then runs
	// on one worker, since its workers would have nothing else to do.
	replays() bool
}

// part is one worker's end of a parallel run: it keeps what its terminal
// needs of the morsel the worker is running and hands it over when the
// morsel ends.
type part interface {
	sink
	takeMorsel() morselBuf
}

// morselBuf is what a part kept of one morsel, and how many rows it was
// pushed to get there: rows that stay valid; under DISTINCT perhaps ids
// instead, the morsel's one-integer rows in first-occurrence order; under
// an aggregate whose calls merge exactly, the morsel's groups.
type morselBuf struct {
	rows   [][]rel.Value
	ids    []int64
	groups []*aggGroup
	in     int
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

// part returns a morsel buffer for c: under DISTINCT one that drops the
// morsel's own duplicates before the ordered merge sees them.
func (c *collect) part(width int, scratch bool) (part, error) {
	p := &collect{arena: newRowArena(width, 0), copy: scratch}
	if c.seen != nil {
		p.seen = &deduper{}
	}
	return p, nil
}

func (c *collect) replays() bool { return c.seen == nil }

func (c *collect) absorb(ms []morselBuf) error {
	if c.seen == nil {
		n := 0
		for _, m := range ms {
			n += len(m.rows)
		}
		c.rows = slices.Grow(c.rows, n)
		for _, m := range ms {
			c.in += m.in
			c.rows = append(c.rows, m.rows...)
		}
		return nil
	}
	for _, m := range ms {
		c.in += m.in
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

// chain is one worker's instance of a pipe: its scan, when the pipe
// starts at one, and its stages.
type chain struct {
	scan  *scanWorker
	head  sink
	sinks []sink
	tail  part // the worker's end of a parallel run; nil when the chain ends in the terminal
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
	if p.scan != nil {
		var err error
		if c.scan, err = p.scan.open(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// run pushes r's rows, in order, into term. Each pipe runs morsel-parallel
// over its head — stored rows or a table's slots — when that holds enough
// rows (morselPlan): every worker has a chain of its own ending in a part
// of term's, and the parts' morsels reach term in morsel order, so what
// term sees is what a serial run would have pushed. Stages are not timed
// one by one: a pipe's wall time is charged to its scan, or else to its
// first join, or, when it has neither, to the operator stat op (-1: to
// nothing).
func (e *Engine) run(q *queryState, r *relation, term terminal, op int) error {
	runT := time.Now()
	ps := PipelineStat{Op: op, Scan: -1, StartNs: q.sinceStart(runT)}
	for _, p := range r.pipes() {
		pipeT := time.Now()
		morsels, workers, err := e.runPipe(q, p, len(r.cols), term)
		if err != nil {
			return err
		}
		d := time.Since(pipeT).Nanoseconds()
		timed := false
		if p.scan != nil {
			sc := &q.stats.Scans[p.scan.stat]
			sc.Morsels, sc.Workers = morsels, workers
			sc.StartNs, sc.Nanos = q.sinceStart(pipeT), d
			ps.Scan, ps.RowsIn, timed = p.scan.stat, ps.RowsIn+sc.RowsIn, true
		} else {
			ps.RowsIn += len(p.head)
		}
		for _, j := range p.joins {
			js := &q.stats.Joins[j]
			if js.Workers == 0 {
				ps.Joins = append(ps.Joins, j)
				if js.Nanos == 0 { // else a hash join, timed from its build
					js.StartNs = q.sinceStart(pipeT)
				}
			}
			js.Morsels += morsels
			js.Workers = max(js.Workers, workers)
			if !timed {
				js.Nanos += d
				timed = true
			}
		}
		if !timed && op >= 0 {
			q.stats.Ops[op].Nanos += d
		}
	}
	ps.Nanos = time.Since(runT).Nanoseconds()
	q.stats.Pipelines = append(q.stats.Pipelines, ps)
	return nil
}

func (e *Engine) runPipe(q *queryState, p *pipe, width int, term terminal) (morsels, workers int, err error) {
	n, rows := p.size()
	par := q.par
	switch {
	case p.serial:
		par = 1 // a subquery stage
	case rows < parallelMinRows:
		par = 1 // too few rows to be worth the fan-out, however many slots they lie in
	case p.scan == nil && len(p.stages) == 0 && term.replays():
		par = 1 // workers would only buffer the head for term to replay
	}
	_, workers = morselPlan(n, par)
	var bufs []morselBuf
	if workers > 1 {
		bufs = make([]morselBuf, (n+morselRows-1)/morselRows)
	} else if c, ok := term.(*collect); ok {
		c.copy = p.scratch
	}
	var mu sync.Mutex
	var chains []*chain
	newWorker := func() (*chain, error) {
		var tail part
		var end sink = term
		if bufs != nil {
			var err error
			if tail, err = term.part(width, p.scratch); err != nil {
				return nil, err
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
		if c.scan != nil {
			if err := c.scan.run(lo, hi, c.head); err != nil {
				return err
			}
		} else {
			for _, row := range p.head[lo:hi] {
				if err := c.head.push(row); err != nil {
					return err
				}
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
		if c.scan != nil {
			c.scan.done()
		}
		for _, s := range c.sinks {
			if s, ok := s.(counter); ok {
				s.done()
			}
		}
	}
	if bufs != nil {
		err = term.absorb(bufs)
	}
	return morsels, workers, err
}

// materialize runs a pending relation into stored rows. A stored head no
// stage touches is shared as it stands (the immutability rule of
// DESIGN.md §8). When every pipe is a bare scan the rows collected are
// the table's row images, which are not counted as stored, as a stored
// scan's were not.
func (e *Engine) materialize(q *queryState, r *relation) error {
	if r.taken {
		return errTaken
	}
	if r.src == nil {
		return nil
	}
	if len(r.src) == 1 && len(r.src[0].stages) == 0 && r.src[0].scan == nil {
		r.rows, r.src = r.src[0].head, nil
		return nil
	}
	c := newCollect(len(r.cols), nil)
	// A result with as many rows as the heads have is sized once.
	n := 0
	for _, p := range r.src {
		_, rows := p.size()
		if n += rows; p.fans {
			n = 0
			break
		}
	}
	if n > 0 {
		c.rows, c.arena.next = make([][]rel.Value, 0, n), n
	}
	bare := !slices.ContainsFunc(r.src, func(p *pipe) bool { return p.scan == nil || len(p.stages) > 0 })
	if err := e.run(q, r, c, -1); err != nil {
		return err
	}
	r.rows, r.taken = c.rows, false
	if !bare {
		q.stats.MaterializedRows += len(c.rows)
	}
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
