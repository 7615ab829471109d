package rel

import (
	"strings"

	"sqlgraph/internal/btree"
)

// KeyFunc derives the indexed key values from a row. Expression indexes
// (e.g. over JSON_VAL(ATTR,'name')) supply one; plain column indexes read
// their ordinals straight off the row and need none.
type KeyFunc func(vals []Value) []Value

// Index is a secondary (or primary) index over a table, in one of two
// organisations.
//
// An ordered index is a B-tree of order-preserving encoded byte strings
// (see keyenc.go), one per (key, row) entry, so lookups are memcmp-fast
// and it answers equality, prefix, range and IS NOT NULL probes. The
// encoding merges the numeric domain (ints beyond 2^53 can collide).
//
// A hashed index (CreateHashIndex) keeps the same (key, row) entries as
// one 64-bit word per key column, filed under the leading column's word
// in flat arrays (hashindex.go): a probe is one hash lookup and integer
// comparisons per candidate, and an entry costs 12 bytes, 8 more per
// later key column, plus its key's share of a 12-byte slot — no heap
// object. It answers equality and prefix probes only (Ordered reports
// false). The adjacency tables' id indexes are hashed.
//
// Either way probe results are candidates: callers re-verify predicates
// against the fetched rows (the executor always does).
type Index struct {
	name    string
	table   string
	keyFn   KeyFunc // expression indexes only; nil for plain column indexes
	unique  bool
	colOrds []int // ordinals for plain column indexes; nil for expression indexes
	expr    string
	born    Version                       // version at which the index was created (see mvcc.go)
	tree    *btree.Tree[string, struct{}] // ordered organisation; nil when hashed
	hash    *hashIndex                    // hashed organisation; nil when ordered
}

// NewIndex creates an ordered index. For plain column indexes pass the
// ordinals; for expression indexes pass nil ordinals, a key function,
// and a normalized expression string used by the planner to match
// predicates.
func NewIndex(name, table string, unique bool, ordinals []int, expr string, keyFn KeyFunc) *Index {
	return &Index{
		name:    name,
		table:   table,
		keyFn:   keyFn,
		unique:  unique,
		colOrds: ordinals,
		expr:    expr,
		tree:    btree.New[string, struct{}](strings.Compare),
	}
}

// newHashedIndex creates a non-unique hashed index over plain columns.
func newHashedIndex(name, table string, ordinals []int) *Index {
	return &Index{name: name, table: table, colOrds: ordinals, hash: newHashIndex(len(ordinals) - 1)}
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table's name.
func (ix *Index) Table() string { return ix.table }

// Unique reports whether the index enforces key uniqueness.
func (ix *Index) Unique() bool { return ix.unique }

// ColumnOrdinals returns the indexed column ordinals for plain indexes, or
// nil for expression indexes.
func (ix *Index) ColumnOrdinals() []int { return ix.colOrds }

// Expr returns the normalized expression string for expression indexes.
func (ix *Index) Expr() string { return ix.expr }

// Ordered reports whether the index keeps its keys in order, i.e. can
// serve range and IS NOT NULL probes. Hashed indexes answer equality and
// prefix probes only.
func (ix *Index) Ordered() bool { return ix.hash == nil }

// Len returns the number of entries, including entries retained for
// superseded images awaiting garbage collection.
func (ix *Index) Len() int {
	if ix.hash != nil {
		return ix.hash.n
	}
	return ix.tree.Len()
}

// Born returns the version at which the index was created. Snapshots
// pinned before that version must not use it: historical images are not
// back-indexed (the planner enforces this).
func (ix *Index) Born() Version { return ix.born }

// insert adds an entry for the row image. Uniqueness is NOT checked here:
// the tree legitimately holds entries for superseded images and logically
// deleted rows, so only the table layer — which can see row liveness —
// can decide whether a key collision is real (Table.findDuplicateLocked).
func (ix *Index) insert(vals []Value, rid RowID) {
	if ix.hash != nil {
		var wb [maxHashedColumns]uint64
		ix.hash.add(ix.keyWords(wb[:0], vals), rid)
		return
	}
	ix.tree.Set(ix.entryFor(vals, rid), struct{}{})
}

func (ix *Index) remove(vals []Value, rid RowID) {
	if ix.hash != nil {
		var wb [maxHashedColumns]uint64
		ix.hash.remove(ix.keyWords(wb[:0], vals), rid)
		return
	}
	ix.tree.Delete(ix.entryFor(vals, rid))
}

// keyOf returns the indexed key values of a row image. It allocates, so
// it serves error messages and expression indexes only; the probe path
// encodes keys straight off the row (appendKey).
func (ix *Index) keyOf(vals []Value) []Value {
	if ix.keyFn != nil {
		return ix.keyFn(vals)
	}
	out := make([]Value, len(ix.colOrds))
	for i, o := range ix.colOrds {
		out[i] = vals[o]
	}
	return out
}

// appendKey appends the encoded key of a row image to b: every component
// for an ordered index, every column's word for a hashed one (what a
// hashed entry records, so the MVCC bookkeeping below — sameKey,
// entryFor, owns — compares exactly what the index holds).
func (ix *Index) appendKey(b []byte, vals []Value) []byte {
	if ix.hash != nil {
		var wb [maxHashedColumns]uint64
		return appendWords(b, ix.keyWords(wb[:0], vals))
	}
	if ix.keyFn != nil {
		return appendEncodedKey(b, ix.keyFn(vals))
	}
	for _, o := range ix.colOrds {
		b = appendEncodedValue(b, vals[o])
	}
	return b
}

// sameKey reports whether two row images index under the same key.
func (ix *Index) sameKey(a, b []Value) bool {
	var ab, bb [keyBufLen]byte
	return string(ix.appendKey(ab[:0], a)) == string(ix.appendKey(bb[:0], b))
}

// entryFor returns the exact tree entry an image of the row produces.
func (ix *Index) entryFor(vals []Value, rid RowID) string {
	var kb [keyBufLen]byte
	return string(appendRID(ix.appendKey(kb[:0], vals), rid))
}

// owns reports whether the row image produces the entry's key, i.e. the
// entry (which names that row) is not a stale one left behind for a
// superseded image. The image's key is encoded into a stack buffer and
// compared as bytes: on an ordered index the check runs once per probe
// candidate (a hashed probe compares words instead, ownsEntry).
func (ix *Index) owns(entry string, vals []Value) bool {
	var kb [keyBufLen]byte
	return entry[:len(entry)-ridLen] == string(ix.appendKey(kb[:0], vals))
}

// removeEntry deletes one exact entry (deferred cleanup path).
func (ix *Index) removeEntry(entry string) {
	if ix.hash != nil {
		var wb [maxHashedColumns]uint64
		ix.hash.remove(entryWords(wb[:0], entry), decodeRID(entry))
		return
	}
	ix.tree.Delete(entry)
}

// seek positions an ascent at the first entry not below from. The bound
// is only ever compared against, never retained, so it may live in the
// caller's stack buffer.
func seek(from []byte) func(entry string) bool {
	return func(entry string) bool { return entry < string(from) }
}

// probeEntries calls fn with every entry whose key starts with the given
// encoded component prefix, until fn returns false. Entries may be stale —
// callers filter against row visibility (see Table.ProbeAt).
func (ix *Index) probeEntries(prefix []byte, fn func(entry string) bool) {
	ix.tree.AscendSeek(seek(prefix), func(entry string, _ struct{}) bool {
		if !entryHasKeyPrefix(entry, prefix) {
			return false
		}
		return fn(entry)
	})
}

// probeRangeEntries calls fn for entries with lo <= first-component <= hi
// (per the inclusive flags). Either bound may be Null to mean unbounded on
// that side; NULL-keyed entries never match. Only an ordered index has
// ranges: the planner never offers a hashed one a range path.
func (ix *Index) probeRangeEntries(lo, hi Value, loInclusive, hiInclusive bool, fn func(entry string) bool) {
	if ix.hash != nil {
		panic("rel: range probe on hashed index " + ix.name)
	}
	var lb, hb [keyBufLen]byte
	start := append(lb[:0], tagBool) // skip NULL entries (tagNull == 0x00)
	var encLo, encHi []byte
	if !lo.IsNull() {
		encLo = appendEncodedValue(lb[:0], lo)
		start = encLo
	}
	if !hi.IsNull() {
		encHi = appendEncodedValue(hb[:0], hi)
	}
	ix.tree.AscendSeek(seek(start), func(entry string, _ struct{}) bool {
		if encLo != nil && !loInclusive && entryHasKeyPrefix(entry, encLo) {
			return true // skip the excluded boundary
		}
		if encHi != nil {
			if entryHasKeyPrefix(entry, encHi) {
				if !hiInclusive {
					return false
				}
			} else if entry > string(encHi) {
				return false
			}
		}
		return fn(entry)
	})
}

// Probe calls fn with the row id of every candidate whose key starts with
// the given component prefix, until fn returns false. Callers must hold
// the table's read lock and re-verify values on the fetched rows; entries
// can be stale under MVCC, so prefer Table.ProbeAt, which filters them.
func (ix *Index) Probe(key []Value, fn func(rid RowID) bool) {
	if h := ix.hash; h != nil {
		var wb [maxHashedColumns]uint64
		ws := probeWords(wb[:0], key)
		h.each(ws[0], func(e int32) bool {
			return !h.hasPrefix(e, ws[1:]) || fn(h.rids[e])
		})
		return
	}
	var kb [keyBufLen]byte
	ix.probeEntries(appendEncodedKey(kb[:0], key), func(entry string) bool { return fn(decodeRID(entry)) })
}

// ProbeRange calls fn for candidate entries with lo <= first-component <=
// hi (per the inclusive flags). Either bound may be Null to mean
// unbounded on that side; NULL-keyed entries never match. As with Probe,
// prefer Table.ProbeRangeAt, which filters stale entries.
func (ix *Index) ProbeRange(lo, hi Value, loInclusive, hiInclusive bool, fn func(rid RowID) bool) {
	ix.probeRangeEntries(lo, hi, loInclusive, hiInclusive, func(entry string) bool { return fn(decodeRID(entry)) })
}

// CountPrefix counts entries matching the key prefix, including any stale
// entries awaiting garbage collection (an upper bound on matching rows).
func (ix *Index) CountPrefix(key []Value) int {
	n := 0
	ix.Probe(key, func(RowID) bool { n++; return true })
	return n
}
