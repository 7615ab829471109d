package rel

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// hashIndex is the hashed organisation of an Index: a multimap from the
// word of a row's leading key column (keyWord) to the rows filed under
// it. Everything lives in flat, pointer-free slices, so an entry is no
// heap object and the collector never scans the index.
//
// Keys are open-addressed with linear probing: slot i holds a word and
// tail[i], one more than the index of the key's last entry (0: the slot
// is empty). An entry is one (key, row) pair, as in the ordered
// organisation: its row id and, in rest, the words of the key's later
// columns (width of them; none for a one-column index). A key's entries
// form a circular list through next in ascending row-id order, entered
// at the tail, so that the common insert — row ids are handed out
// ascending — appends in O(1) and a probe reads tail → head → … → tail.
// Freed entries are chained through next from free and reused.
type hashIndex struct {
	words []uint64
	tail  []int32
	shift uint // 64 - log2(len(words)/hashBlock)
	keys  int  // occupied slots

	width int      // key columns after the leading one
	rids  []RowID  // per entry
	rest  []uint64 // per entry, width words
	next  []int32  // per entry
	free  int32    // first freed entry, -1 = none
	n     int      // live entries
}

func newHashIndex(width int) *hashIndex { return &hashIndex{width: width, free: -1} }

// maxHashedColumns bounds a hashed index's key so that its words fit a
// stack buffer on every insert, probe and staleness check.
const maxHashedColumns = 4

// keyWord is the word a hashed index files a key value under. An integer
// is its own word, and so is a DOUBLE holding an integer below 2^53 —
// the values Compare and Value.Key equate with it, so a probe finds what
// a hash join on the same column would. Any other value hashes its key
// encoding, which can collide with an integer; probe results are
// candidates that callers re-verify, as with the ordered organisation.
// The integer case is inlined at every call.
func keyWord(v Value) uint64 {
	if v.kind == KindInt {
		return v.n
	}
	return otherKeyWord(v)
}

func otherKeyWord(v Value) uint64 {
	if f := math.Float64frombits(v.n); v.kind == KindFloat && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return uint64(int64(f))
	}
	var b [keyBufLen]byte
	h := uint64(14695981039346656037)
	for _, c := range appendEncodedValue(b[:0], v) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// keyWords appends the words of a row image's key columns to ws.
func (ix *Index) keyWords(ws []uint64, vals []Value) []uint64 {
	for _, o := range ix.colOrds {
		ws = append(ws, keyWord(vals[o]))
	}
	return ws
}

// probeWords appends the words of a probe key's components to ws.
func probeWords(ws []uint64, key []Value) []uint64 {
	for _, v := range key {
		ws = append(ws, keyWord(v))
	}
	return ws
}

// ownsEntry reports whether a row image files under entry e of the key
// w: the staleness check of a hashed probe, one integer comparison per
// key column for the integer columns hashed indexes are declared on.
func (ix *Index) ownsEntry(vals []Value, w uint64, e int32) bool {
	if keyWord(vals[ix.colOrds[0]]) != w {
		return false
	}
	rest := ix.hash.restOf(e)
	for j, o := range ix.colOrds[1:] {
		if keyWord(vals[o]) != rest[j] {
			return false
		}
	}
	return true
}

// appendWords appends words as the 8-byte-per-column key part of a
// hashed index's entry strings (see Index.appendKey); entryWords reads
// them back.
func appendWords(b []byte, ws []uint64) []byte {
	for _, w := range ws {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return b
}

func entryWords(ws []uint64, entry string) []uint64 {
	for i := 0; i+ridLen < len(entry); i += 8 {
		var w uint64
		for _, c := range []byte(entry[i : i+8]) {
			w = w<<8 | uint64(c)
		}
		ws = append(ws, w)
	}
	return ws
}

// hashBlock is the number of consecutive words that file into one run of
// consecutive slots: 8 words are one cache line of the slot table.
const hashBlock = 8

// home is a word's first slot. Each aligned run of hashBlock words goes
// to hashBlock consecutive slots, and Fibonacci hashing of the run's
// number spreads the runs over the whole table: the sequential ids every
// graph table is keyed on still scatter, so an absent key's probe stays
// short, but an ascending frontier reads one slot line per hashBlock ids
// instead of one random line per id.
func (h *hashIndex) home(w uint64) int {
	return int(((w/hashBlock)*0x9E3779B97F4A7C15)>>h.shift)*hashBlock | int(w%hashBlock)
}

// find returns the slot holding w, or the empty slot where it would go
// (ok false; -1 when the table has no slots yet).
func (h *hashIndex) find(w uint64) (slot int, ok bool) {
	if len(h.words) == 0 {
		return -1, false
	}
	mask := len(h.words) - 1
	for i := h.home(w); ; i = (i + 1) & mask {
		if h.tail[i] == 0 {
			return i, false
		}
		if h.words[i] == w {
			return i, true
		}
	}
}

func (h *hashIndex) restOf(e int32) []uint64 {
	return h.rest[int(e)*h.width : int(e+1)*h.width]
}

// hasPrefix reports whether entry e's later columns start with the words
// of a prefix probe's later components.
func (h *hashIndex) hasPrefix(e int32, ws []uint64) bool {
	return len(ws) <= h.width && slices.Equal(h.restOf(e)[:len(ws)], ws)
}

// each calls fn with the entries filed under w, in ascending row-id
// order, until fn returns false.
func (h *hashIndex) each(w uint64, fn func(e int32) bool) {
	i, ok := h.find(w)
	if !ok {
		return
	}
	last := h.tail[i] - 1
	for e := h.next[last]; fn(e) && e != last; e = h.next[e] {
	}
}

// add files the entry (ws, rid): ws holds the leading word and then
// width more. Adding an entry that is already there does nothing: like
// the ordered organisation's tree, the index is a set of (key, row)
// entries, which MVCC relies on when a row moves back to a key whose
// stale entry is still held for a snapshot.
func (h *hashIndex) add(ws []uint64, rid RowID) {
	i, ok := h.find(ws[0])
	if !ok {
		if (h.keys+1)*4 > len(h.words)*3 {
			h.grow()
			i, _ = h.find(ws[0])
		}
		e := h.alloc(ws[1:], rid)
		h.next[e] = e
		h.words[i], h.tail[i] = ws[0], e+1
		h.keys++
		return
	}
	last := h.tail[i] - 1
	if rid > h.rids[last] {
		e := h.alloc(ws[1:], rid)
		h.next[e], h.next[last] = h.next[last], e
		h.tail[i] = e + 1
		return
	}
	// Out of order (an undo, or a row returning to a key it held before):
	// walk to the row's entries, which last bounds, and past them unless
	// one is this one.
	prev := last
	for e := h.next[last]; h.rids[e] < rid; e = h.next[e] {
		prev = e
	}
	for e := h.next[prev]; h.rids[e] == rid; e = h.next[e] {
		if slices.Equal(h.restOf(e), ws[1:]) {
			return
		}
		if prev = e; e == last {
			break
		}
	}
	e := h.alloc(ws[1:], rid)
	h.next[e], h.next[prev] = h.next[prev], e
	if prev == last && rid == h.rids[last] {
		h.tail[i] = e + 1 // after the last row's other entries
	}
}

// remove deletes the entry (ws, rid) if it is there.
func (h *hashIndex) remove(ws []uint64, rid RowID) {
	i, ok := h.find(ws[0])
	if !ok {
		return
	}
	last := h.tail[i] - 1
	prev, e := last, h.next[last]
	for h.rids[e] != rid || !slices.Equal(h.restOf(e), ws[1:]) {
		if e == last || h.rids[e] > rid {
			return
		}
		prev, e = e, h.next[e]
	}
	switch {
	case e == prev: // the key's only entry
		h.deleteSlot(i)
	case e == last:
		h.next[prev] = h.next[e]
		h.tail[i] = prev + 1
	default:
		h.next[prev] = h.next[e]
	}
	h.next[e], h.free = h.free, e
	h.n--
}

func (h *hashIndex) alloc(rest []uint64, rid RowID) int32 {
	h.n++
	e := h.free
	if e >= 0 {
		h.free = h.next[e]
		h.rids[e] = rid
	} else {
		e = int32(len(h.rids))
		h.rids = append(h.rids, rid)
		h.next = append(h.next, 0)
		for range h.width {
			h.rest = append(h.rest, 0)
		}
	}
	copy(h.restOf(e), rest)
	return e
}

// deleteSlot empties slot i, shifting later members of its probe run
// back so that every lookup still finds its key without tombstones.
func (h *hashIndex) deleteSlot(i int) {
	mask := len(h.words) - 1
	for j := (i + 1) & mask; h.tail[j] != 0; j = (j + 1) & mask {
		// A key whose home lies cyclically in (i, j] stays put; any other
		// would be cut off from its home by the hole and moves into it.
		if k := h.home(h.words[j]); (j-k)&mask < (j-i)&mask {
			continue
		}
		h.words[i], h.tail[i] = h.words[j], h.tail[j]
		i = j
	}
	h.words[i], h.tail[i] = 0, 0
	h.keys--
}

// grow doubles the slot table (16 slots at first) and re-files every key;
// the entries do not move.
func (h *hashIndex) grow() {
	words, tail := h.words, h.tail
	n := max(2*len(words), 16)
	h.words, h.tail = make([]uint64, n), make([]int32, n)
	h.shift = uint(64 - bits.TrailingZeros(uint(n/hashBlock)))
	for i, t := range tail {
		if t != 0 {
			j, _ := h.find(words[i])
			h.words[j], h.tail[j] = words[i], t
		}
	}
}
