package engine

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"sqlgraph/internal/rel"
)

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
func (e *Engine) hashJoin(f *frame, cur, right *relation, j *joinPlan) *relation {
	simTable := "" // the buffer-pool model's table for this join's hash table
	if e.ioSim() != nil {
		simTable = fmt.Sprintf("#hash%d", len(f.q.stats.Joins))
	}
	if len(j.eqRight) == 1 {
		if out := hashJoinKeyed(f, cur, right, j, simTable, intJoinKey); out != nil {
			return out
		}
	}
	return hashJoinKeyed(f, cur, right, j, simTable, stringJoinKey)
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

// rightKey evaluates the equi-join key columns of a right row into dst
// and reports whether one of them is NULL.
func rightKey(eqRight []int, row, dst []rel.Value) (null bool) {
	for i, pos := range eqRight {
		dst[i] = row[pos]
		null = null || dst[i].IsNull()
	}
	return null
}

// rightKeys encodes the join key of every right row, morsel-parallel. ok
// is false when enc could not hold some key; the caller then retries with
// an encoding that can.
func rightKeys[K comparable](q *queryState, rows [][]rel.Value, eqRight []int, enc func([]rel.Value) (K, bool)) (joinKeys[K], bool) {
	jk := joinKeys[K]{keys: make([]K, len(rows)), null: make([]bool, len(rows))}
	var misfit atomic.Bool
	newWorker := func() ([]rel.Value, error) { return make([]rel.Value, len(eqRight)), nil }
	z := q.morsels()
	_, workers := z.plan(len(rows), len(rows), q.par)
	runMorsels(len(rows), z.target, workers, newWorker, func(dst []rel.Value, m, lo, hi int) error {
		for i := lo; i < hi && !misfit.Load(); i++ {
			if jk.null[i] = rightKey(eqRight, rows[i], dst); jk.null[i] {
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
func hashJoinKeyed[K comparable](f *frame, cur, right *relation, j *joinPlan, simTable string, enc func([]rel.Value) (K, bool)) *relation {
	q := f.q
	opT := time.Now()
	rows := right.rowsOf()
	keys, ok := rightKeys(q, rows, j.eqRight, enc)
	if !ok {
		return nil
	}
	st := &hashProbeStage[K]{f: f, j: j, simTable: simTable, enc: enc, right: rows, table: buildTable(f, keys, simTable)}
	// The build is timed here; the runs the probe is first join of add theirs.
	js := j.stat
	js.BuildRows, js.StartNs, js.Nanos = len(rows), q.sinceStart(opT), time.Since(opT).Nanoseconds()
	st.stat = q.newJoinStat(js)
	return cur.then(j.out, st, emitsScratch|serialIf(j.subs))
}

// hashTable maps a key to the input rows bearing it, in input order, as
// chains through one shared next array: two allocations however many
// distinct keys there are.
type hashTable[K comparable] struct {
	span map[K][2]int32 // key -> first and last row bearing it
	next []int32        // row -> next row with the same key, -1 at the end
}

// buildTable hashes the right side. Rows with NULL-containing keys are
// excluded. Each insert, like each probe hit, is charged to the
// buffer-pool model under a table of the join's own: a build side larger
// than the pool spills, like the paper's memory sweep.
func buildTable[K comparable](f *frame, jk joinKeys[K], simTable string) hashTable[K] {
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
		f.pageAccess(simTable, rel.RowID(i))
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
	f        *frame
	j        *joinPlan
	simTable string
	enc      func([]rel.Value) (K, bool)
	right    [][]rel.Value
	table    hashTable[K]
	stat     int // index into ExecStats.Joins
}

func (s *hashProbeStage[K]) joinStat() int { return s.stat }

type hashProbeWorker[K comparable] struct {
	*hashProbeStage[K]
	dst    []rel.Value
	emit   *joinEmitter
	probed int
}

func (s *hashProbeStage[K]) open(next sink) (sink, error) {
	return &hashProbeWorker[K]{hashProbeStage: s, dst: make([]rel.Value, len(s.j.keys)), emit: newJoinEmitter(s.f, s.j.shape, next)},
		s.f.bind(s.j.subs)
}

func (w *hashProbeWorker[K]) push(lrow []rel.Value) {
	w.probed++
	null := false
	for i, fn := range w.j.keys {
		w.dst[i] = fn(w.f, lrow)
		null = null || w.dst[i].IsNull()
	}
	matched := false
	if k, ok := w.enc(w.dst); ok && !null {
		for ri := w.table.first(k); ri >= 0; ri = w.table.next[ri] {
			w.f.pageAccess(w.simTable, rel.RowID(ri))
			matched = w.emit.emit(lrow, w.right[ri]) || matched
		}
	}
	if !matched && w.j.kind == "LEFT" {
		w.emit.emitUnmatched(lrow)
	}
}

func (w *hashProbeWorker[K]) done() {
	st := &w.f.q.stats.Joins[w.stat]
	st.ProbeRows += w.probed
	st.OutRows += w.emit.n
}
