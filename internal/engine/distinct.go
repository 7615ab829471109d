package engine

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"sqlgraph/internal/rel"
)

// DISTINCT decides membership with a deduper
// (DESIGN.md §8, §21). The translation's DISTINCT is over one column of
// element ids, so one-integer rows live in an intSet; anything else falls
// back to canonical string keys.

// intSet is a set of int64: open addressing with linear probing over one
// flat slice, Fibonacci hashing, at most 3/4 full. No element is a heap
// object, and reset empties the set without giving its table back. A
// zero slot is free; the id 0 itself is a flag.
type intSet struct {
	slots []int64
	shift uint        // 64 - log2(len(slots))
	n     int         // ids in slots
	zero  bool        // 0 is in the set
	stock *tableStock // where the set takes its tables from and gives them back to; nil: the heap
}

// tableStock holds the tables a query's sets have outgrown or finished
// with, for the next set that needs a table of that size: a chain of
// DISTINCTs, and each worker's per-morsel sets, allocate each size about
// once per query rather than once per set. Workers share it. When the
// query ends its tables go to spareTables, where the next query's stock
// finds them unless a garbage collection has dropped them first.
type tableStock struct {
	mu   sync.Mutex
	free [][]int64
}

// spareTables holds, per power-of-two size, tables whose query has ended.
var spareTables [64]sync.Pool

// take returns an empty table of size slots.
func (st *tableStock) take(size int) []int64 {
	if st == nil {
		return make([]int64, size)
	}
	st.mu.Lock()
	for i := len(st.free) - 1; i >= 0; i-- {
		if t := st.free[i]; len(t) == size {
			st.free = slices.Delete(st.free, i, i+1)
			st.mu.Unlock()
			clear(t)
			return t
		}
	}
	st.mu.Unlock()
	if t, ok := spareTables[bits.TrailingZeros(uint(size))].Get().(*[]int64); ok {
		clear(*t)
		return *t
	}
	return make([]int64, size)
}

// drain hands the stock's tables on to the next queries.
func (st *tableStock) drain() {
	for _, t := range st.free {
		spareTables[bits.TrailingZeros(uint(len(t)))].Put(&t)
	}
	st.free = nil
}

// give takes back a table no set uses any more.
func (st *tableStock) give(t []int64) {
	if st != nil && len(t) > 0 {
		st.mu.Lock()
		st.free = append(st.free, t)
		st.mu.Unlock()
	}
}

// intSetMinSlots is the table a set starts with.
const intSetMinSlots = 16

// home is an id's first slot: Fibonacci hashing spreads sequential ids
// over the whole table.
func (s *intSet) home(id int64) int { return int((uint64(id) * 0x9E3779B97F4A7C15) >> s.shift) }

// add inserts id and reports whether it was not in the set.
func (s *intSet) add(id int64) bool {
	if id == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	if (s.n+1)*4 > len(s.slots)*3 {
		s.resize(max(2*len(s.slots), intSetMinSlots))
	}
	mask := len(s.slots) - 1
	for i := s.home(id); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case id:
			return false
		case 0:
			s.slots[i] = id
			s.n++
			return true
		}
	}
}

// has reports whether id is in the set.
func (s *intSet) has(id int64) bool {
	if id == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.home(id); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case id:
			return true
		case 0:
			return false
		}
	}
}

// reserve makes room for n ids in all without growing.
func (s *intSet) reserve(n int) {
	size := intSetMinSlots
	for size*3 < n*4 {
		size *= 2
	}
	if size > len(s.slots) {
		s.resize(size)
	}
}

// resize moves the set to a table of size slots, a power of two.
func (s *intSet) resize(size int) {
	old := s.slots
	defer s.stock.give(old)
	s.slots = s.stock.take(size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, id := range old {
		if id != 0 {
			i := s.home(id)
			for s.slots[i] != 0 {
				i = (i + 1) & mask
			}
			s.slots[i] = id
		}
	}
}

// len returns the number of ids in the set.
func (s *intSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// reset empties the set and keeps its table.
func (s *intSet) reset() {
	clear(s.slots)
	s.n, s.zero = 0, false
}

// release empties the set and gives its table back to the stock.
func (s *intSet) release() {
	s.stock.give(s.slots)
	*s = intSet{stock: s.stock}
}

// appendTo appends the set's ids to dst, in no particular order.
func (s *intSet) appendTo(dst []int64) []int64 {
	if s.zero {
		dst = append(dst, 0)
	}
	for _, id := range s.slots {
		if id != 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// radixMinIDs is the length below which sortIDs compares instead: a
// radix pass costs a 256-entry histogram however few ids it moves.
const radixMinIDs = 256

// sortIDs sorts ids ascending: a least-significant-digit radix sort of
// each id's offset from the smallest, one pass per byte of the range, so
// ids below 2^24 take three passes over the slice where a comparison
// sort takes log2(n). scratch is the passes' second buffer when it is
// long enough, and is overwritten.
func sortIDs(ids, scratch []int64) {
	if len(ids) < radixMinIDs {
		slices.Sort(ids)
		return
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo, hi = min(lo, id), max(hi, id)
	}
	if len(scratch) < len(ids) {
		scratch = make([]int64, len(ids))
	}
	span := uint64(hi) - uint64(lo)
	src, dst := ids, scratch[:len(ids)]
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var at [256]int
		for _, id := range src {
			at[byte((uint64(id)-uint64(lo))>>shift)]++
		}
		n := 0
		for d, c := range at {
			at[d], n = n, n+c
		}
		for _, id := range src {
			d := byte((uint64(id) - uint64(lo)) >> shift)
			dst[at[d]] = id
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// appendIntRows appends one-column rows holding ids to rows, all backed
// by one array.
func appendIntRows(rows [][]rel.Value, ids []int64) [][]rel.Value {
	vals := make([]rel.Value, len(ids))
	rows = slices.Grow(rows, len(ids))
	for i, id := range ids {
		vals[i] = rel.NewInt(id)
		rows = append(rows, vals[i:i+1:i+1])
	}
	return rows
}

func rowKey(row []rel.Value) string {
	var sb strings.Builder
	for _, v := range row {
		k := v.Key()
		sb.WriteString(k)
		sb.WriteByte(0xFF)
	}
	return sb.String()
}

// deduper tracks seen rows. While every row has been a single integer it
// holds them in an intSet; the first row that is anything else moves the
// set to canonical string keys, where it stays until reset.
type deduper struct {
	ints intSet
	strs map[string]struct{} // non-nil once the set holds string keys
	// ids lists, for a collect that keeps first occurrences, the ids it
	// added and has not yet built into rows, in the order it added them.
	ids []int64
}

// intRow returns the id of a row the intSet holds: a single integer, while
// the set has not moved to string keys.
func (d *deduper) intRow(row []rel.Value) (int64, bool) {
	if d.strs == nil && len(row) == 1 && row[0].Kind() == rel.KindInt {
		return row[0].Int(), true
	}
	return 0, false
}

// toStrings moves the set to canonical string keys, once.
func (d *deduper) toStrings() {
	if d.strs != nil {
		return
	}
	d.strs = make(map[string]struct{}, d.ints.len())
	for _, id := range d.ints.appendTo(nil) {
		d.strs[rowKey([]rel.Value{rel.NewInt(id)})] = struct{}{}
	}
	d.ints.reset()
}

// seen records the row and reports whether it was already present.
func (d *deduper) seen(row []rel.Value) bool {
	if id, ok := d.intRow(row); ok {
		return !d.ints.add(id)
	}
	d.toStrings()
	k := rowKey(row)
	if _, ok := d.strs[k]; ok {
		return true
	}
	d.strs[k] = struct{}{}
	return false
}
