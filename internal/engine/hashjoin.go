package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// hashJoinArgs bundles the precomputed state for hashJoin.
type hashJoinArgs struct {
	shape       *joinShape
	curScope    *scope
	joinEqLeft  []sql.Expr // per equi-join term: expression over cur
	joinEqRight []int      // per equi-join term: right column position
	rightName   string     // right-side alias, for stats
	simTable    string     // synthetic IOSim table for this join's hash table
}

// hashJoin performs an equi-join of two stored inputs by hashing the
// smaller one on the equi-join columns and probing from the larger one.
// Output order is the serial nested-loop order — for each left row in
// input order, matching right rows in input order — regardless of which
// side was built or how many workers probed, so results are
// deterministic. LEFT joins emit unmatched left rows null-extended; rows
// whose key contains NULL never match.
//
// Both sides are pipeline breakers: the build side because it is hashed
// whole, and cur because which side that is depends on how many rows it
// really has. With the right side built, the probe is a stage over cur
// and its output flows on; with cur built, matches are regrouped per
// left row and stored.
//
// A single BIGINT key column — every id-to-id join of the translation —
// hashes as int64; anything else as canonical Value.Key() strings.
func (e *Engine) hashJoin(q *queryState, cur, right *relation, kind string, a hashJoinArgs) (*relation, error) {
	if e.ioSim() != nil {
		a.simTable = fmt.Sprintf("#hash%d", len(q.stats.Joins))
	}
	if len(a.joinEqRight) == 1 {
		if out, done, err := hashJoinKeyed(e, q, cur, right, kind, a, intJoinKey); done || err != nil {
			return out, err
		}
	}
	out, _, err := hashJoinKeyed(e, q, cur, right, kind, a, stringJoinKey)
	return out, err
}

// intJoinKey hashes a single BIGINT key column as itself, and an integral
// DOUBLE as the BIGINT it equals (Value.Key gives the two one key). ok is
// false for anything else: on the build side that sends the whole join to
// string keys, on the probe side it means the row matches nothing.
func intJoinKey(vals []rel.Value) (int64, bool) {
	switch v := vals[0]; v.Kind() {
	case rel.KindInt:
		return v.Int(), true
	case rel.KindFloat:
		if f := v.Float(); f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return int64(f), true
		}
	}
	return 0, false
}

// stringJoinKey renders the key columns as one canonical string.
func stringJoinKey(vals []rel.Value) (string, bool) {
	if len(vals) == 1 {
		return vals[0].Key(), true
	}
	var kb strings.Builder
	for _, v := range vals {
		kb.WriteString(v.Key())
		kb.WriteByte(0xFF)
	}
	return kb.String(), true
}

// joinKeys holds the build side's join keys. null marks rows whose key
// contains a SQL NULL: they match nothing (and for LEFT joins emit the
// null-extended row), exactly like the index nested-loop join's null-key
// handling.
type joinKeys[K comparable] struct {
	keys []K
	null []bool
}

// joinKeyFn evaluates the equi-join key columns of one row into dst and
// reports whether one of them is NULL.
type joinKeyFn func(row, dst []rel.Value) (null bool, err error)

// leftKeyFn compiles the key function of cur's rows.
func (a *hashJoinArgs) leftKeyFn(e *Engine, q *queryState) (joinKeyFn, error) {
	fns := make([]compiledExpr, len(a.joinEqLeft))
	for i, lx := range a.joinEqLeft {
		fn, err := e.compile(q, a.curScope, lx)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return func(row, dst []rel.Value) (null bool, err error) {
		for i, fn := range fns {
			if dst[i], err = fn(row); err != nil {
				return false, err
			}
			null = null || dst[i].IsNull()
		}
		return null, nil
	}, nil
}

// rightKey is the key function of the right side's rows.
func (a *hashJoinArgs) rightKey(row, dst []rel.Value) (null bool, err error) {
	for i, pos := range a.joinEqRight {
		dst[i] = row[pos]
		null = null || dst[i].IsNull()
	}
	return null, nil
}

// joinKeysOf evaluates and encodes the join key of every build-side row,
// morsel-parallel under the given budget. ok is false when enc could not
// hold some key; the caller then retries with an encoding that can.
func joinKeysOf[K comparable](q *queryState, rows [][]rel.Value, width, par int, newKeyFn func() (joinKeyFn, error), enc func([]rel.Value) (K, bool)) (joinKeys[K], bool, error) {
	jk := joinKeys[K]{keys: make([]K, len(rows)), null: make([]bool, len(rows))}
	var misfit atomic.Bool
	type worker struct {
		key joinKeyFn
		dst []rel.Value
	}
	newWorker := func() (*worker, error) {
		key, err := newKeyFn()
		return &worker{key: key, dst: make([]rel.Value, width)}, err
	}
	z := q.morsels()
	_, workers := z.plan(len(rows), len(rows), par)
	_, err := runMorsels(len(rows), z.target, workers, newWorker, func(w *worker, m, lo, hi int) (err error) {
		for i := lo; i < hi && !misfit.Load(); i++ {
			if jk.null[i], err = w.key(rows[i], w.dst); err != nil {
				return err
			}
			if jk.null[i] {
				continue
			}
			k, ok := enc(w.dst)
			if !ok {
				misfit.Store(true)
			}
			jk.keys[i] = k
		}
		return nil
	})
	return jk, !misfit.Load(), err
}

// hashJoinKeyed runs the join with keys of type K, building on the
// smaller input. done is false when enc cannot represent the build keys.
func hashJoinKeyed[K comparable](e *Engine, q *queryState, cur, right *relation, kind string, a hashJoinArgs, enc func([]rel.Value) (K, bool)) (out *relation, done bool, err error) {
	opT := time.Now()
	width := len(a.joinEqRight)
	serial := !parallelSafeExprs(a.joinEqLeft) || !parallelSafeConjuncts(a.shape.residual)
	if right.count() <= cur.count() {
		rows := right.rowsOf()
		keys, ok, err := joinKeysOf(q, rows, width, q.par, func() (joinKeyFn, error) { return a.rightKey, nil }, enc)
		if err != nil || !ok {
			return nil, false, err
		}
		st := &hashProbeStage[K]{e: e, q: q, a: a, kind: kind, enc: enc, right: rows, table: buildTable(e, q, keys, a.simTable)}
		// The build is timed here; the runs the probe is first join of add theirs.
		st.stat = q.newJoinStat(JoinStat{Strategy: StrategyHash, Table: a.rightName, BuildSide: "right", BuildRows: len(rows),
			StartNs: q.sinceStart(opT), Nanos: time.Since(opT).Nanoseconds()})
		return cur.then(a.shape.cols, st, emitsScratch|serialIf(serial)), true, nil
	}
	par := q.par
	if serial {
		par = 1
	}
	keys, ok, err := joinKeysOf(q, cur.rowsOf(), width, par, func() (joinKeyFn, error) { return a.leftKeyFn(e, q) }, enc)
	if err != nil || !ok {
		return nil, false, err
	}
	out, err = hashJoinBuildLeft(e, q, cur, right, buildTable(e, q, keys, a.simTable), par, kind, a, enc, opT)
	return out, true, err
}

// hashTable maps a key to the input rows bearing it, in input order, as
// chains through one shared next array: two allocations however many
// distinct keys there are.
type hashTable[K comparable] struct {
	span map[K][2]int32 // key -> first and last row bearing it
	next []int32        // row -> next row with the same key, -1 at the end
}

// buildTable hashes one side. Rows with NULL-containing keys are
// excluded. Each insert is charged to the buffer-pool model: a build side
// larger than the pool spills, like the paper's memory sweep.
func buildTable[K comparable](e *Engine, q *queryState, jk joinKeys[K], simTable string) hashTable[K] {
	ht := hashTable[K]{span: make(map[K][2]int32, len(jk.keys)), next: make([]int32, len(jk.keys))}
	for i, k := range jk.keys {
		if jk.null[i] {
			continue
		}
		ht.next[i] = -1
		if sp, ok := ht.span[k]; ok {
			ht.next[sp[1]] = int32(i)
			ht.span[k] = [2]int32{sp[0], int32(i)}
		} else {
			ht.span[k] = [2]int32{int32(i), int32(i)}
		}
		e.hashAccess(q, simTable, i)
	}
	return ht
}

// first returns the first row bearing the key, or -1.
func (ht hashTable[K]) first(k K) int32 {
	if sp, ok := ht.span[k]; ok {
		return sp[0]
	}
	return -1
}

// hashProbeStage is the common case: the right side is hashed, and every
// left row pushed into the stage probes it and pushes its matches on.
type hashProbeStage[K comparable] struct {
	e     *Engine
	q     *queryState
	a     hashJoinArgs
	kind  string
	enc   func([]rel.Value) (K, bool)
	right [][]rel.Value
	table hashTable[K]
	stat  int // index into ExecStats.Joins
}

func (s *hashProbeStage[K]) joinStat() int { return s.stat }

type hashProbeWorker[K comparable] struct {
	*hashProbeStage[K]
	key    joinKeyFn
	dst    []rel.Value
	emit   *joinEmitter
	probed int
}

func (s *hashProbeStage[K]) open(next sink) (sink, error) {
	key, err := s.a.leftKeyFn(s.e, s.q)
	if err != nil {
		return nil, err
	}
	emit, err := s.e.newJoinEmitter(s.q, s.a.shape, next)
	return &hashProbeWorker[K]{hashProbeStage: s, key: key, dst: make([]rel.Value, len(s.a.joinEqRight)), emit: emit}, err
}

func (w *hashProbeWorker[K]) push(lrow []rel.Value) error {
	w.probed++
	null, err := w.key(lrow, w.dst)
	if err != nil {
		return err
	}
	matched := false
	if k, ok := w.enc(w.dst); ok && !null {
		for ri := w.table.first(k); ri >= 0; ri = w.table.next[ri] {
			w.e.hashAccess(w.q, w.a.simTable, int(ri))
			ok, err := w.emit.emit(lrow, w.right[ri])
			if err != nil {
				return err
			}
			matched = matched || ok
		}
	}
	if !matched && w.kind == "LEFT" {
		return w.emit.emitUnmatched(lrow)
	}
	return nil
}

func (w *hashProbeWorker[K]) done() {
	st := &w.q.stats.Joins[w.stat]
	st.ProbeRows += w.probed
	st.OutRows += w.emit.n
}

// hashJoinBuildLeft probes the hashed (smaller) left side with right
// rows. Matches are collected per left row and stored in left-row order,
// so the output is identical to the probe stage's.
func hashJoinBuildLeft[K comparable](e *Engine, q *queryState, cur, right *relation, build hashTable[K], par int, kind string, a hashJoinArgs, enc func([]rel.Value) (K, bool), opT time.Time) (*relation, error) {
	n := len(right.rowsOf())
	z := q.morsels()
	morsels, workers := z.plan(n, n, par)

	type match struct {
		left int32
		row  []rel.Value
	}
	chunks := make([][]match, morsels)
	type worker struct {
		emit  *joinEmitter
		arena *rowArena
		dst   []rel.Value
	}
	newWorker := func() (*worker, error) {
		emit, err := e.newJoinEmitter(q, a.shape, nil)
		return &worker{emit: emit, arena: newRowArena(len(a.shape.cols), 0), dst: make([]rel.Value, len(a.joinEqRight))}, err
	}
	_, err := runMorsels(n, z.target, workers, newWorker, func(wk *worker, m, lo, hi int) error {
		var buf []match
		for _, rrow := range right.rows[lo:hi] {
			null, _ := a.rightKey(rrow, wk.dst)
			k, ok := enc(wk.dst)
			if null || !ok {
				continue
			}
			for li := build.first(k); li >= 0; li = build.next[li] {
				e.hashAccess(q, a.simTable, int(li))
				joined, ok, err := wk.emit.pair(cur.rows[li], rrow)
				if err != nil {
					return err
				}
				if ok {
					kept := wk.arena.alloc()
					copy(kept, joined)
					buf = append(buf, match{left: li, row: kept})
				}
			}
		}
		chunks[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Regroup matches per left row: a counting sort on the left row index.
	// Visiting chunks in morsel order keeps each left row's matches in
	// right-row order, and laying the groups out in left-row order restores
	// the canonical left-major order.
	start := make([]int, len(cur.rows)+1)
	for _, c := range chunks {
		for _, mt := range c {
			start[mt.left+1]++
		}
	}
	unmatched := 0
	for i := range cur.rows {
		if start[i+1] == 0 && kind == "LEFT" {
			start[i+1] = 1
			unmatched++
		}
		start[i+1] += start[i]
	}
	rows := make([][]rel.Value, start[len(cur.rows)])
	fill := append([]int(nil), start[:len(cur.rows)]...)
	for _, c := range chunks {
		for _, mt := range c {
			rows[fill[mt.left]] = mt.row
			fill[mt.left]++
		}
	}
	if unmatched > 0 {
		arena := newRowArena(len(a.shape.cols), unmatched)
		for i, lrow := range cur.rows {
			if fill[i] == start[i] {
				rows[start[i]] = arena.alloc()
				for c, p := range a.shape.leftSrc {
					rows[start[i]][c] = lrow[p]
				}
			}
		}
	}
	q.stats.MaterializedRows += len(rows)
	q.newJoinStat(JoinStat{Strategy: StrategyHash, Table: a.rightName, BuildSide: "left", BuildRows: len(cur.rows), ProbeRows: n,
		OutRows: len(rows), Morsels: morsels, MorselRows: z.target, Workers: workers, StartNs: q.sinceStart(opT), Nanos: time.Since(opT).Nanoseconds()})
	return &relation{cols: a.shape.cols, rows: rows}, nil
}

// hashAccess charges a hash-table build insert or probe hit to the
// buffer-pool simulation: the table is modeled as pages of PageRows
// entries under a synthetic per-join table name, so a build side that
// exceeds the pool's capacity incurs misses the way an external hash
// join would (keeps the Figure 8c memory sweep honest now that hash
// joins are the default non-indexed strategy).
func (e *Engine) hashAccess(q *queryState, simTable string, entry int) {
	if simTable == "" {
		return
	}
	sim := e.ioSim()
	if sim == nil {
		return
	}
	if !sim.access(simTable, rel.RowID(entry)) {
		q.addIOMiss()
	}
}
