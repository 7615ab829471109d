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
// DISTINCT set of the CTE that ends it. A table access — a full scan or
// index probes — is a pipe's head like stored rows are (DESIGN.md §22):
// its workers filter the rows they read and push them on, so a table is
// stored only where its reader needs stored rows.

// sink receives an operator's output one row at a time. A row pushed by a
// stage that assembles its output in a scratch buffer (pipe.scratch) is
// valid only until push returns: a sink that keeps it copies it. A push
// cannot fail: every expression a sink evaluates is total (compiledExpr),
// and whatever can fail a statement fails when its stages open.
type sink interface {
	push(row []rel.Value)
}

// counter is a sink that counts: done folds what this instance counted
// into the query's statistics. The driver calls it once, on the
// dispatching goroutine, after the workers have joined.
type counter interface{ done() }

// stage is one operator of a pipeline. open returns a worker's private
// instance — scratch row, counters — that pushes into next, evaluating
// the prepared plan's expressions.
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
	set     *idSet      // non-nil: the head is this set's ids, ascending, pushed as ids are; head is unused
	scan    *scanSource // non-nil: the rows come from a table access, head is unused
	stages  []stage
	joins   []int // ExecStats.Joins indices of the join stages, in order
	scratch bool  // rows leaving the last stage live in a stage's scratch buffer
	serial  bool  // a stage (or the scan's filter) holds a subquery: one worker only
	fans    bool  // a stage may emit fewer or more rows than it is pushed
}

// size returns the rows the pipe's morsels are cut from — stored rows,
// ids or table slots — and how many of them are rows: a scan's slots
// include deleted rows.
func (p *pipe) size() (n, rows int) {
	if p.scan != nil {
		return p.scan.size()
	}
	n = len(p.head) + len(p.ids) + p.set.len()
	return n, n
}

// stageKind says what a stage does to the rows it is pushed.
type stageKind uint8

const (
	emitsScratch stageKind = 1 << iota // assembles its output in a buffer of its own rather than passing its input on
	serialOnly                         // holds a subquery: must not run on workers
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
	return []*pipe{{head: r.rows, ids: r.ids, set: r.set, scratch: r.ids != nil || r.set != nil}}
}

var errTaken = errors.New("engine: internal error: a pipelined relation was read twice")

// as returns r under other column names.
func (r *relation) as(cols []colInfo) *relation {
	if r.src == nil && !r.taken {
		return &relation{cols: cols, rows: r.rows, ids: r.ids, set: r.set, ordered: r.ordered}
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
	part(width int, scratch bool) part
	// absorb takes what the parts kept of each morsel, in morsel order.
	absorb(ms []morselBuf)
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
// pushed to get there: rows that stay valid, ahead of them the morsel's
// leading one-integer rows as ids (under an order-kept DISTINCT, the ids
// it saw first, in order); under an aggregate whose calls merge exactly,
// the morsel's groups.
type morselBuf struct {
	rows   [][]rel.Value
	ids    []int64
	groups []*aggGroup
	in     int
}

// collect stores the rows it receives: the terminal of every
// materialisation and, with seen set, of DISTINCT. A row that is one
// integer — every frontier of the translation, the ids of a g.V(ids) head
// — is kept as its id, and while every row is, the result is the ids; the
// first row that is not builds the ids kept so far into rows ahead of it,
// and rows are kept as they arrive from then on. An ascending DISTINCT
// keeps its ids in the set alone, whatever else arrives, and lists them
// in ascending order when it finishes.
type collect struct {
	rows    [][]rel.Value
	ids     []int64 // the rows kept while each was one integer, and rows is empty; under DISTINCT, once finished, the result
	arena   *rowArena
	seen    *deduper // nil keeps duplicates
	in      int      // rows received
	copy    bool     // pushed rows are scratch
	transit bool     // a morsel buffer on the way to a terminal that stores nothing
}

func newCollect(width int, seen *deduper) *collect {
	return &collect{arena: newRowArena(width, 0), seen: seen}
}

func (c *collect) push(row []rel.Value) {
	c.in++
	c.keep(row, c.copy)
}

// keep stores row, under DISTINCT unless it was seen before; scratch says
// row is valid only until keep returns.
func (c *collect) keep(row []rel.Value, scratch bool) {
	if d := c.seen; d == nil {
		if len(c.rows) == 0 && len(row) == 1 && row[0].Kind() == rel.KindInt {
			c.ids = append(c.ids, row[0].Int())
			return
		}
	} else if id, ok := d.intRow(row); ok {
		if d.ids.add(id) && !d.ascending {
			c.ids = append(c.ids, id)
		}
		return
	}
	if len(c.ids) > 0 {
		// The ids go ahead of the rows that follow them.
		c.rows, c.ids = appendIntRows(c.rows, c.ids), nil
	}
	if c.seen != nil && c.seen.seen(row) {
		return
	}
	if scratch && len(row) > 0 {
		row = append(c.arena.alloc()[:0], row...)
	}
	c.rows = append(c.rows, row)
}

// result returns what c stored: the ids while every row was one integer,
// else the rows.
func (c *collect) result() (rows [][]rel.Value, ids []int64) {
	if len(c.rows) > 0 {
		return c.rows, nil
	}
	return nil, c.ids
}

// finish ends a DISTINCT and returns the order of its result (OpStat.Order).
// While every row was one integer an ascending one's result is its set
// (seen.ids). Otherwise it lists its ids ahead of the other rows, which
// keep their first-occurrence order, but for an integral DOUBLE equal to
// a listed id, which is that id.
func (c *collect) finish() string {
	d := c.seen
	switch {
	case !d.ascending || d.ids.len() == 0 && len(c.rows) > 0:
		return OrderFirstOccurrence
	case len(c.rows) == 0:
		return OrderAscending
	}
	rows := appendIntRows(nil, d.ids.appendRange(nil, 0, d.ids.len()))
	for _, row := range c.rows {
		if len(row) == 1 {
			if id, ok := valueID(row[0]); ok && d.ids.has(id) {
				continue
			}
		}
		rows = append(rows, row)
	}
	c.rows = rows
	return OrderAscendingThenFirst
}

// part returns a morsel buffer for c: under DISTINCT one that drops the
// morsel's own duplicates before the merge sees them.
func (c *collect) part(width int, scratch bool) part {
	p := &collect{arena: newRowArena(width, 0), copy: scratch}
	if c.seen != nil {
		p.seen = &deduper{ascending: c.seen.ascending}
	}
	return p
}

func (c *collect) replays() bool { return c.seen == nil }

func (c *collect) received() int { return c.in }

// absorb takes the morsels in order. Under an ascending DISTINCT they
// hold only the rows that are not one integer: the workers kept their ids
// in sets of their own, which runPipe has merged into c's by OR.
func (c *collect) absorb(ms []morselBuf) {
	if c.seen == nil {
		n, k := 0, 0
		for _, m := range ms {
			n, k = n+len(m.rows), k+len(m.ids)
		}
		c.rows, c.ids = slices.Grow(c.rows, n), slices.Grow(c.ids, k)
	}
	idRow := make([]rel.Value, 1)
	for _, m := range ms {
		c.in += m.in
		if c.seen == nil && len(c.rows) == 0 {
			c.ids = append(c.ids, m.ids...)
		} else {
			for _, id := range m.ids {
				idRow[0] = rel.NewInt(id)
				c.keep(idRow, true)
			}
		}
		for _, r := range m.rows {
			c.keep(r, false)
		}
	}
}

// takeMorsel returns what was collected since the last call and starts
// the next morsel's buffer. Under DISTINCT the set is kept as it stands:
// a worker claims morsels in ascending order, so what it kept of an
// earlier morsel is ahead of this one in the merge, and it need not be
// kept again.
func (c *collect) takeMorsel() morselBuf {
	m := morselBuf{rows: c.rows, ids: c.ids, in: c.in}
	c.rows, c.ids, c.in = make([][]rel.Value, 0, len(m.rows)), make([]int64, 0, len(m.ids)), 0
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
	buf   []int64     // under a set head: the ids at positions bufAt on
	bufAt int
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
	if p.ids != nil || p.set != nil {
		c.idRow, c.buf = make([]rel.Value, 1), make([]int64, 0, min(setChunk, p.set.len()))
	}
	return c, nil
}

// setChunk is how many of a set head's ids a chain reads out at a time.
const setChunk = 256

// pushHead pushes the stored head rows [lo, hi) of p into the chain. A
// set head's ids are read out a chunk at a time into the chain's buffer,
// from which the next call goes on: a probe pushes one id per call.
func (c *chain) pushHead(p *pipe, lo, hi int) {
	switch {
	case p.set != nil:
		for lo < hi {
			if lo < c.bufAt || lo >= c.bufAt+len(c.buf) {
				c.bufAt, c.buf = lo, p.set.appendRange(c.buf[:0], lo, lo+setChunk)
			}
			end := min(hi, c.bufAt+len(c.buf))
			c.pushIDs(c.buf[lo-c.bufAt : end-c.bufAt])
			lo = end
		}
	case p.ids != nil:
		c.pushIDs(p.ids[lo:hi])
	default:
		for _, row := range p.head[lo:hi] {
			c.head.push(row)
		}
	}
}

func (c *chain) pushIDs(ids []int64) {
	for _, id := range ids {
		c.idRow[0] = rel.NewInt(id)
		c.head.push(c.idRow)
	}
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
				c.pushHead(p, i, i+1)
				if term.received()-before >= z.target/4 {
					from = i + 1
				}
			}
		} else {
			c.pushHead(p, 0, from)
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
			c.pushHead(p, from, n)
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
				tail = term.part(width, p.scratch)
				end = tail
			}
			c, err := open(end)
			if err == nil {
				c.tail = tail
			}
			return c, err
		}
		_, err = runMorsels(n-from, size, cut.workers, newWorker, func(c *chain, m, lo, hi int) error {
			if c.scan != nil {
				c.scan.run(lo, hi, c.head)
			} else {
				c.pushHead(p, from+lo, from+hi)
			}
			if c.tail != nil {
				bufs[m] = c.tail.takeMorsel()
			}
			return nil
		})
		if err != nil {
			return cut, err
		}
	}
	for _, c := range chains {
		if c.scan != nil {
			c.scan.done()
		}
		if t, ok := c.tail.(*collect); ok && t.seen != nil && t.seen.ascending {
			term.(*collect).seen.ids.or(&t.seen.ids)
		}
		for _, s := range c.sinks {
			if s, ok := s.(counter); ok {
				s.done()
			}
		}
	}
	if bufs != nil {
		term.absorb(bufs)
	}
	return cut, nil
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
		r.rows, r.ids, r.set, r.src = r.src[0].head, r.src[0].ids, r.src[0].set, nil
		return nil
	}
	c := newCollect(len(r.cols), nil)
	// A result with as many rows as the heads have is sized once, as is one
	// whose scans expect how many rows they pass on (scanSource.expect).
	n := 0
	for _, p := range r.src {
		_, rows := p.size()
		if p.scan != nil {
			rows = p.scan.expect()
		}
		if n += rows; p.fans {
			n = 0
			break
		}
	}
	if c.arena.next = n; n > 0 && len(r.cols) == 1 {
		c.ids = make([]int64, 0, n)
	} else if n > 0 {
		c.rows = make([][]rel.Value, 0, n)
	}
	bare := !slices.ContainsFunc(r.src, func(p *pipe) bool { return p.scan == nil || len(p.stages) > 0 })
	if err := e.run(q, r, c, -1); err != nil {
		return err
	}
	r.rows, r.ids = c.result()
	r.taken = false
	if !bare {
		q.stats.MaterializedRows += r.count()
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

func (s *cteMarkSink) push(row []rel.Value) {
	s.n++
	s.next.push(row)
}

func (s *cteMarkSink) done() {
	st := &s.q.stats.CTEs[s.stat]
	st.Rows += s.n
	st.Fused = !s.stored
}

// where returns r's rows that pass a prepared filter.
func (f *frame) where(r *relation, fp *filterPlan) *relation {
	return r.then(r.cols, stageFunc(func(next sink) (sink, error) {
		return &filterSink{f: f, pass: fp.pass, next: next}, f.bind(fp.subs)
	}), serialIf(fp.subs))
}

// serialIf is the kind of a stage holding subs: a subquery runs when its
// stage opens, on the dispatching goroutine, so the stage has no workers.
func serialIf(subs []subSlot) stageKind {
	if len(subs) > 0 {
		return serialOnly
	}
	return 0
}

type filterSink struct {
	f    *frame
	pass predicate
	next sink
}

func (s *filterSink) push(row []rel.Value) {
	if s.pass(s.f, row) {
		s.next.push(row)
	}
}
