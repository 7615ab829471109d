package engine

import (
	"fmt"
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
	estRows     int64      // planner's output estimate, -1 unknown
}

// hashJoin performs an equi-join by hashing the smaller input on the
// equi-join columns and probing from the larger one. Output order is the
// serial nested-loop order — for each left row in input order, matching
// right rows in input order — regardless of which side was built or how
// many workers probed, so results are deterministic. LEFT joins emit
// unmatched left rows null-extended; rows whose key contains NULL never
// match.
//
// A single BIGINT key column — every id-to-id join of the translation —
// hashes as int64; anything else as canonical Value.Key() strings.
func (e *Engine) hashJoin(q *queryState, cur, right *relation, kind string, a hashJoinArgs) (*relation, error) {
	opT := time.Now()
	if e.ioSim() != nil {
		a.simTable = fmt.Sprintf("#hash%d", len(q.stats.Joins))
	}
	stat := JoinStat{Strategy: StrategyHash, Table: a.rightName, Morsels: 1, Workers: 1, EstRows: -1, EstCost: -1, AltCost: -1}
	var out *relation
	var err error
	done := false
	if len(a.joinEqRight) == 1 {
		out, done, err = hashJoinKeyed(e, q, cur, right, kind, a, &stat, intJoinKey)
	}
	if err == nil && !done {
		out, _, err = hashJoinKeyed(e, q, cur, right, kind, a, &stat, stringJoinKey)
	}
	if err != nil {
		return nil, err
	}
	stat.OutRows = len(out.rows)
	stat.StartNs = q.sinceStart(opT)
	stat.Nanos = time.Since(opT).Nanoseconds()
	q.stats.Joins = append(q.stats.Joins, stat)
	return out, nil
}

// intJoinKey hashes a single BIGINT key column as itself; ok is false for
// any other kind, which sends the whole join to string keys.
func intJoinKey(vals []rel.Value) (int64, bool) {
	return vals[0].Int(), vals[0].Kind() == rel.KindInt
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

// joinKeys holds one side's join keys. null marks rows whose key contains
// a SQL NULL: they match nothing (and for LEFT joins emit the
// null-extended row), exactly like the index nested-loop join's null-key
// handling.
type joinKeys[K comparable] struct {
	keys []K
	null []bool
}

// joinKeyFn evaluates the equi-join key columns of one row into dst.
type joinKeyFn func(row, dst []rel.Value) error

// joinKeysOf evaluates and encodes the join key of every row, morsel-
// parallel under the given budget. ok is false when enc could not hold
// some key; the caller then retries with an encoding that can.
func joinKeysOf[K comparable](rows [][]rel.Value, width, par int, newKeyFn func() (joinKeyFn, error), enc func([]rel.Value) (K, bool)) (joinKeys[K], bool, error) {
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
	_, _, err := runMorsels(len(rows), par, newWorker, func(w *worker, m, lo, hi int) error {
		for i := lo; i < hi && !misfit.Load(); i++ {
			if err := w.key(rows[i], w.dst); err != nil {
				return err
			}
			for _, v := range w.dst {
				if v.IsNull() {
					jk.null[i] = true
				}
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
// smaller input. done is false when enc cannot represent the keys.
func hashJoinKeyed[K comparable](e *Engine, q *queryState, cur, right *relation, kind string, a hashJoinArgs, stat *JoinStat, enc func([]rel.Value) (K, bool)) (out *relation, done bool, err error) {
	width := len(a.joinEqRight)
	par := q.par
	if !parallelSafeExprs(a.joinEqLeft) {
		par = 1
	}
	leftKeys, ok, err := joinKeysOf(cur.rows, width, par, func() (joinKeyFn, error) {
		fns := make([]compiledExpr, width)
		for i, lx := range a.joinEqLeft {
			fn, err := e.compile(q, a.curScope, lx)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		return func(row, dst []rel.Value) (err error) {
			for i, fn := range fns {
				if dst[i], err = fn(row); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}, enc)
	if err != nil || !ok {
		return nil, false, err
	}
	rightKeys, ok, err := joinKeysOf(right.rows, width, q.par, func() (joinKeyFn, error) {
		return func(row, dst []rel.Value) error {
			for i, pos := range a.joinEqRight {
				dst[i] = row[pos]
			}
			return nil
		}, nil
	}, enc)
	if err != nil || !ok {
		return nil, false, err
	}

	if len(right.rows) <= len(cur.rows) {
		stat.BuildSide, stat.BuildRows, stat.ProbeRows = "right", len(right.rows), len(cur.rows)
		out, stat.Morsels, stat.Workers, err = hashJoinBuildRight(e, q, cur, right, leftKeys, rightKeys, kind, a)
	} else {
		stat.BuildSide, stat.BuildRows, stat.ProbeRows = "left", len(cur.rows), len(right.rows)
		out, stat.Morsels, stat.Workers, err = hashJoinBuildLeft(e, q, cur, right, leftKeys, rightKeys, kind, a)
	}
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

// hashJoinBuildRight is the common case: hash the right side, probe with
// left rows morsel-parallel, merging per-morsel outputs in order.
func hashJoinBuildRight[K comparable](e *Engine, q *queryState, cur, right *relation, leftKeys, rightKeys joinKeys[K], kind string, a hashJoinArgs) (*relation, int, int, error) {
	build := buildTable(e, q, rightKeys, a.simTable)
	n := len(cur.rows)
	par := q.par
	if !parallelSafeConjuncts(a.shape.residual) {
		par = 1
	}
	morsels, _ := morselPlan(n, par)
	chunks := make([][][]rel.Value, morsels)

	newWorker := func() (*joinEmitter, error) {
		return e.newJoinEmitter(q, a.shape, rowsHint(a.estRows, n, 0, min(n, morselRows)))
	}
	m, w, err := runMorsels(n, par, newWorker, func(je *joinEmitter, m, lo, hi int) error {
		buf := make([][]rel.Value, 0, rowsHint(a.estRows, n, lo, hi))
		for i := lo; i < hi; i++ {
			lrow := cur.rows[i]
			matched := false
			if !leftKeys.null[i] {
				for ri := build.first(leftKeys.keys[i]); ri >= 0; ri = build.next[ri] {
					e.hashAccess(q, a.simTable, int(ri))
					joined, ok, err := je.pair(lrow, right.rows[ri])
					if err != nil {
						return err
					}
					if ok {
						matched = true
						buf = append(buf, joined)
					}
				}
			}
			if !matched && kind == "LEFT" {
				buf = append(buf, je.unmatched(lrow))
			}
		}
		chunks[m] = buf
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return &relation{cols: a.shape.cols, rows: mergeMorsels(chunks)}, m, w, nil
}

// hashJoinBuildLeft hashes the (smaller) left side and probes with right
// rows. Matches are collected per left row and emitted in left-row order
// so the output is identical to hashJoinBuildRight's.
func hashJoinBuildLeft[K comparable](e *Engine, q *queryState, cur, right *relation, leftKeys, rightKeys joinKeys[K], kind string, a hashJoinArgs) (*relation, int, int, error) {
	build := buildTable(e, q, leftKeys, a.simTable)
	n := len(right.rows)
	par := q.par
	if !parallelSafeConjuncts(a.shape.residual) {
		par = 1
	}
	morsels, _ := morselPlan(n, par)

	type match struct {
		left int32
		row  []rel.Value
	}
	chunks := make([][]match, morsels)

	newWorker := func() (*joinEmitter, error) {
		return e.newJoinEmitter(q, a.shape, rowsHint(a.estRows, n, 0, min(n, morselRows)))
	}
	m, w, err := runMorsels(n, par, newWorker, func(je *joinEmitter, m, lo, hi int) error {
		var buf []match
		for i := lo; i < hi; i++ {
			if rightKeys.null[i] {
				continue
			}
			rrow := right.rows[i]
			for li := build.first(rightKeys.keys[i]); li >= 0; li = build.next[li] {
				e.hashAccess(q, a.simTable, int(li))
				joined, ok, err := je.pair(cur.rows[li], rrow)
				if err != nil {
					return err
				}
				if ok {
					buf = append(buf, match{left: li, row: joined})
				}
			}
		}
		chunks[m] = buf
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
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
		je := &joinEmitter{shape: a.shape, arena: newRowArena(len(a.shape.cols), unmatched)}
		for i, lrow := range cur.rows {
			if fill[i] == start[i] {
				rows[start[i]] = je.unmatched(lrow)
			}
		}
	}
	return &relation{cols: a.shape.cols, rows: rows}, m, w, nil
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
