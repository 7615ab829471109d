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

// pipe is a pipeline that has not run: its head — stored rows, stored
// ids, or a table scan — and the stages each row of it passes through, in
// order.
type pipe struct {
	head    [][]rel.Value
	ids     []int64     // non-nil: the head is these ids, each pushed as a one-value row; head is unused
	scan    *scanSource // non-nil: the rows come from a full scan, head is unused
	stages  []stage
	joins   []int // ExecStats.Joins indices of the join stages, in order
	scratch bool  // rows leaving the last stage live in a stage's scratch buffer
	serial  bool  // a stage (or the scan's filter) evaluates a subquery: one worker only
	fans    bool  // a stage or the scan's filter may emit fewer or more rows than it is pushed
}

// size returns the rows the pipe's morsels are cut from — stored rows,
// ids or table slots — and how many of them are rows: a scan's slots
// include deleted rows.
func (p *pipe) size() (n, rows int) {
	if p.scan != nil {
		return p.scan.size()
	}
	n = len(p.head) + len(p.ids)
	return n, n
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
	// A one-value row built from an id is the pushing worker's scratch.
	return []*pipe{{head: r.rows, ids: r.ids, scratch: r.ids != nil}}
}

var errTaken = errors.New("engine: internal error: a pipelined relation was read twice")

// as returns r under other column names.
func (r *relation) as(cols []colInfo) *relation {
	if r.src == nil && !r.taken {
		return &relation{cols: cols, rows: r.rows, ids: r.ids, ordered: r.ordered}
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
	// received returns the rows pushed into it so far, its parts' included
	// once absorbed: what a run measures its fan-out by.
	received() int
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
// its id in the set, and while every row is, the result is the ids
// (finish): ascending when the input carries no order (ascending set),
// in first-occurrence order otherwise (the set lists them). The first row
// that is not one integer builds the ids kept so far into rows, and rows
// are kept as they arrive from then on.
type collect struct {
	rows      [][]rel.Value
	ids       []int64 // under DISTINCT, once finished: the result, when every row was one integer
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
		// The ids go ahead of the rows that follow them.
		c.rows = appendIntRows(c.rows, c.takeIDs(false))
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

// takeIDs returns the ids accepted so far: the set's, sorted, under an
// ascending DISTINCT, else those it listed, in order. At the final take
// the set's table, no longer needed, is the sort's scratch.
func (c *collect) takeIDs(final bool) []int64 {
	ids := c.seen.ids
	if c.ascending {
		ids = c.seen.ints.appendTo(make([]int64, 0, c.seen.ints.len()))
		var scratch []int64
		if final {
			scratch = c.seen.ints.slots
		}
		sortIDs(ids, scratch)
	}
	c.seen.ids = nil
	return ids
}

// finish ends a DISTINCT: while every row was one integer its result is
// the ids, which it reports came out in ascending order when the input
// was order-free.
func (c *collect) finish() (ascending bool) {
	if c.seen == nil || c.seen.strs != nil {
		return false
	}
	c.ids = c.takeIDs(true)
	return c.ascending
}

// part returns a morsel buffer for c: under DISTINCT one that drops the
// morsel's own duplicates before the ordered merge sees them.
func (c *collect) part(width int, scratch bool) (part, error) {
	p := &collect{arena: newRowArena(width, 0), copy: scratch}
	if c.seen != nil {
		p.seen = &deduper{ints: intSet{stock: c.seen.ints.stock}}
	}
	return p, nil
}

func (c *collect) replays() bool { return c.seen == nil }

func (c *collect) received() int { return c.in }

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
// the next morsel's buffer. Under DISTINCT the set is kept as it stands:
// a worker claims morsels in ascending order, so what it kept of an
// earlier morsel is ahead of this one in the merge, and it need not be
// kept again.
func (c *collect) takeMorsel() morselBuf {
	m := morselBuf{rows: c.rows, in: c.in}
	c.rows, c.in = make([][]rel.Value, 0, len(m.rows)), 0
	if c.seen != nil {
		m.ids = c.seen.ids
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
	tail  part        // the worker's end of a parallel run; nil when the chain ends in the terminal
	idRow []rel.Value // under an id head: the one-value row each id is pushed in
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
	if p.ids != nil {
		c.idRow = make([]rel.Value, 1)
	}
	return c, nil
}

// pushHead pushes the stored head rows [lo, hi) of p into the chain.
func (c *chain) pushHead(p *pipe, lo, hi int) error {
	if p.ids != nil {
		for _, id := range p.ids[lo:hi] {
			c.idRow[0] = rel.NewInt(id)
			if err := c.head.push(c.idRow); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range p.head[lo:hi] {
		if err := c.head.push(row); err != nil {
			return err
		}
	}
	return nil
}

// morselCut is how a pipe ran: morsels of rows head rows (a scan's:
// slots) each, on workers workers.
type morselCut struct{ morsels, rows, workers int }

// run pushes r's rows, in order, into term. Each pipe runs morsel-parallel
// when that is worth it (runPipe): every worker has a chain of its own
// ending in a part of term's, and the parts' morsels reach term in morsel
// order, so what term sees is what a serial run would have pushed. Stages
// are not timed one by one: a pipe's wall time is charged to its scan, or
// else to its first join, or, when it has neither, to the operator stat
// op (-1: to nothing).
func (e *Engine) run(q *queryState, r *relation, term terminal, op int) error {
	runT := time.Now()
	ps := PipelineStat{Op: op, Scan: -1, StartNs: q.sinceStart(runT)}
	for _, p := range r.pipes() {
		pipeT := time.Now()
		cut, err := e.runPipe(q, p, len(r.cols), term)
		if err != nil {
			return err
		}
		d := time.Since(pipeT).Nanoseconds()
		ps.Morsels += cut.morsels
		ps.MorselRows = cut.rows
		ps.Workers = max(ps.Workers, cut.workers)
		timed := false
		if p.scan != nil {
			sc := &q.stats.Scans[p.scan.stat]
			sc.Morsels, sc.Workers = cut.morsels, cut.workers
			sc.StartNs, sc.Nanos = q.sinceStart(pipeT), d
			ps.Scan, ps.RowsIn, timed = p.scan.stat, ps.RowsIn+sc.RowsIn, true
		} else {
			n, _ := p.size()
			ps.RowsIn += n
		}
		for _, j := range p.joins {
			js := &q.stats.Joins[j]
			if js.Workers == 0 {
				ps.Joins = append(ps.Joins, j)
				if js.Nanos == 0 { // else a hash join, timed from its build
					js.StartNs = q.sinceStart(pipeT)
				}
			}
			js.Morsels += cut.morsels
			js.MorselRows = cut.rows
			js.Workers = max(js.Workers, cut.workers)
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

// runPipe runs one pipe into term. A scan's slots are cut into morsels of
// the target size, and fan out when the table has gate live rows (plan).
// A pipe from stored rows decides late (DESIGN.md §8): it pushes a first
// morsel of at most probeRows head rows straight into term, on this
// goroutine, and measures its work per head row — the head row itself
// and the rows that reached term for it. It fans out only when the whole
// head is expected to come to gate rows of work, and then cuts the rest
// so that each morsel does about the target: a hop from a few hundred
// frontier ids that each fan out a hundredfold is worth the workers of a
// scan of as many rows, and is cut into morsels of ten ids.
func (e *Engine) runPipe(q *queryState, p *pipe, width int, term terminal) (cut morselCut, err error) {
	n, live := p.size()
	par := budget(q.par)
	switch {
	case p.serial:
		par = 1 // a subquery stage
	case p.scan == nil && len(p.stages) == 0 && term.replays():
		par = 1 // workers would only buffer the head for term to replay
	}
	if c, ok := term.(*collect); ok {
		c.copy = p.scratch
	}
	var mu sync.Mutex
	var chains []*chain
	open := func(end sink) (*chain, error) {
		c, err := p.open(end)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		chains = append(chains, c)
		mu.Unlock()
		return c, nil
	}
	z := q.morsels()
	from, size := 0, z.target
	if p.scan != nil {
		cut.morsels, cut.workers = z.plan(n, live, par)
		cut.rows = min(size, n)
	} else {
		c, err := open(term)
		if err != nil {
			return cut, err
		}
		from = n
		before := term.received()
		if par > 1 {
			// The probe ends early once a quarter of a morsel's rows has
			// reached term: a hop that fans out a hundredfold knows after a
			// few head rows.
			from = min(n, probeRows, size)
			for i := 0; i < from; i++ {
				if err := c.pushHead(p, i, i+1); err != nil {
					return cut, err
				}
				if term.received()-before >= z.target/4 {
					from = i + 1
				}
			}
		} else if err := c.pushHead(p, 0, from); err != nil {
			return cut, err
		}
		cut = morselCut{morsels: 1, rows: n, workers: 1}
		// Every head row is work, whether or not it reaches term: a probe
		// that finds nothing has still probed.
		if work := from + term.received() - before; from < n && work*n >= z.gate*from {
			size = max(z.target*from/work, 1)
			if morsels := (n - from + size - 1) / size; morsels > 1 {
				cut = morselCut{morsels: 1 + morsels, rows: size, workers: min(par, morsels)}
			}
		}
		if cut.workers == 1 {
			if err := c.pushHead(p, from, n); err != nil {
				return cut, err
			}
			from = n
		}
	}
	var bufs []morselBuf
	if p.scan != nil || from < n {
		if cut.workers > 1 {
			bufs = make([]morselBuf, (n-from+size-1)/size)
		}
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
			c, err := open(end)
			if err != nil {
				return nil, err
			}
			c.tail = tail
			return c, nil
		}
		_, err = runMorsels(n-from, size, cut.workers, newWorker, func(c *chain, m, lo, hi int) error {
			var err error
			if c.scan != nil {
				err = c.scan.run(lo, hi, c.head)
			} else {
				err = c.pushHead(p, from+lo, from+hi)
			}
			if err == nil && c.tail != nil {
				bufs[m] = c.tail.takeMorsel()
			}
			return err
		})
		if err != nil {
			return cut, err
		}
	}
	for _, c := range chains {
		if c.scan != nil {
			c.scan.done()
		}
		if t, ok := c.tail.(*collect); ok && t.seen != nil {
			t.seen.ints.release()
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
	return cut, err
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
		r.rows, r.ids, r.src = r.src[0].head, r.src[0].ids, nil
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
