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

// hashJoin performs an equi-join by hashing the stored right input on
// its equi-join columns and returning cur with the probe appended as a
// stage: every left row pushed into it probes the table and pushes its
// matches on, in right-row order, so the output is the serial
// nested-loop order whatever the worker count. cur stays as it was —
// pending or stored — and only the right input is a pipeline breaker.
// LEFT joins emit unmatched left rows null-extended; rows whose key
// contains NULL never match.
//
// A single BIGINT key column — every id-to-id join of the translation —
// hashes as int64; anything else as canonical Value.Key() strings.
func (e *Engine) hashJoin(q *queryState, cur, right *relation, kind string, a hashJoinArgs) *relation {
	if e.ioSim() != nil {
		a.simTable = fmt.Sprintf("#hash%d", len(q.stats.Joins))
	}
	if len(a.joinEqRight) == 1 {
		if out := hashJoinKeyed(e, q, cur, right, kind, a, intJoinKey); out != nil {
			return out
		}
	}
	return hashJoinKeyed(e, q, cur, right, kind, a, stringJoinKey)
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
type joinKeyFn func(row, dst []rel.Value) (null bool)

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
	return func(row, dst []rel.Value) (null bool) {
		for i, fn := range fns {
			dst[i] = fn(row)
			null = null || dst[i].IsNull()
		}
		return null
	}, nil
}

// rightKey is the key function of the right side's rows.
func (a *hashJoinArgs) rightKey(row, dst []rel.Value) (null bool) {
	for i, pos := range a.joinEqRight {
		dst[i] = row[pos]
		null = null || dst[i].IsNull()
	}
	return null
}

// rightKeys encodes the join key of every right row, morsel-parallel. ok
// is false when enc could not hold some key; the caller then retries with
// an encoding that can.
func rightKeys[K comparable](q *queryState, rows [][]rel.Value, a *hashJoinArgs, enc func([]rel.Value) (K, bool)) (joinKeys[K], bool) {
	jk := joinKeys[K]{keys: make([]K, len(rows)), null: make([]bool, len(rows))}
	var misfit atomic.Bool
	newWorker := func() ([]rel.Value, error) { return make([]rel.Value, len(a.joinEqRight)), nil }
	z := q.morsels()
	_, workers := z.plan(len(rows), len(rows), q.par)
	runMorsels(len(rows), z.target, workers, newWorker, func(dst []rel.Value, m, lo, hi int) error {
		for i := lo; i < hi && !misfit.Load(); i++ {
			if jk.null[i] = a.rightKey(rows[i], dst); jk.null[i] {
				continue
			}
			k, ok := enc(dst)
			if !ok {
				misfit.Store(true)
			}
			jk.keys[i] = k
		}
		return nil
	})
	return jk, !misfit.Load()
}

// hashJoinKeyed runs the join with keys of type K. It returns nil when
// enc cannot represent the right side's keys.
func hashJoinKeyed[K comparable](e *Engine, q *queryState, cur, right *relation, kind string, a hashJoinArgs, enc func([]rel.Value) (K, bool)) *relation {
	opT := time.Now()
	rows := right.rowsOf()
	keys, ok := rightKeys(q, rows, &a, enc)
	if !ok {
		return nil
	}
	st := &hashProbeStage[K]{e: e, q: q, a: a, kind: kind, enc: enc, right: rows, table: buildTable(e, q, keys, a.simTable)}
	// The build is timed here; the runs the probe is first join of add theirs.
	st.stat = q.newJoinStat(JoinStat{Strategy: StrategyHash, Table: a.rightName, BuildRows: len(rows),
		StartNs: q.sinceStart(opT), Nanos: time.Since(opT).Nanoseconds()})
	serial := !parallelSafeExprs(a.joinEqLeft) || !parallelSafeConjuncts(a.shape.residual)
	return cur.then(a.shape.cols, st, emitsScratch|serialIf(serial))
}

// hashTable maps a key to the input rows bearing it, in input order, as
// chains through one shared next array: two allocations however many
// distinct keys there are.
type hashTable[K comparable] struct {
	span map[K][2]int32 // key -> first and last row bearing it
	next []int32        // row -> next row with the same key, -1 at the end
}

// buildTable hashes the right side. Rows with NULL-containing keys are
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

// hashProbeStage is the probe: every left row pushed into it probes the
// hashed right side and pushes its matches on.
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

func (w *hashProbeWorker[K]) push(lrow []rel.Value) {
	w.probed++
	null := w.key(lrow, w.dst)
	matched := false
	if k, ok := w.enc(w.dst); ok && !null {
		for ri := w.table.first(k); ri >= 0; ri = w.table.next[ri] {
			w.e.hashAccess(w.q, w.a.simTable, int(ri))
			matched = w.emit.emit(lrow, w.right[ri]) || matched
		}
	}
	if !matched && w.kind == "LEFT" {
		w.emit.emitUnmatched(lrow)
	}
}

func (w *hashProbeWorker[K]) done() {
	st := &w.q.stats.Joins[w.stat]
	st.ProbeRows += w.probed
	st.OutRows += w.emit.n
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
