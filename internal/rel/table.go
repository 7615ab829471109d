package rel

import (
	"fmt"
	"sync"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type Kind // expected kind; KindNull means untyped/any
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns. Column names are matched
// case-insensitively (callers normalize to upper case).
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		s.byName[c.Name] = i
	}
	return s
}

// Ordinal returns the position of the named column, or -1.
func (s *Schema) Ordinal(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// RowID identifies a physical row within a table for the lifetime of that
// row. RowIDs are never reused, which lets deferred cleanup records refer
// to rows by id without ABA hazards.
type RowID int64

// Table is a heap of rows plus its secondary indexes. Access is protected
// by an RWMutex; multi-table transactions acquire table locks in sorted
// name order (see Txn) to stay deadlock-free.
//
// Rows are multi-versioned: each slot carries the version at which its
// current image was written and, for logically deleted rows, the version
// at which it died; superseded images hang off the slot newest-first (see
// mvcc.go). Readers pass a Version to the *At accessors to see a
// consistent historical state.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *Schema
	rows    []rowSlot
	byRID   []int32 // row id -> slot+1, 0 = no such row (ids are sequential, so dense)
	free    []int
	nextRID RowID
	live    int
	indexes []*Index
	bytes   int64        // approximate live-data footprint
	garbage []garbageRec // deferred cleanup, eligible per record (mvcc.go)
}

type rowSlot struct {
	rid  RowID
	vals []Value
	born Version   // version that wrote the current image
	died Version   // nonzero: version that logically deleted the row
	prev *verImage // superseded images, newest first
	dead bool      // slot is physically free
}

// verImage is a superseded row image kept for pinned snapshots. Its
// lifetime in the chain ends once no pin can see it (gcHistory).
type verImage struct {
	vals []Value
	born Version
	prev *verImage
}

// visibleAt returns the row image visible at version v, or false if the
// row does not exist at v. Latest means current state.
func (s *rowSlot) visibleAt(v Version) ([]Value, bool) {
	if s.dead {
		return nil, false
	}
	if v == Latest {
		if s.died != 0 {
			return nil, false
		}
		return s.vals, true
	}
	if s.born <= v {
		if s.died != 0 && s.died <= v {
			return nil, false
		}
		return s.vals, true
	}
	// Walk newest-first: the first image born at or before v is the one
	// visible there (its successor was already seen to be younger than v).
	for img := s.prev; img != nil; img = img.prev {
		if img.born <= v {
			return img.vals, true
		}
	}
	return nil, false
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema}
}

// slotOf returns the slot holding the row, if the id names one.
func (t *Table) slotOf(rid RowID) (int, bool) {
	if rid < 0 || int(rid) >= len(t.byRID) {
		return 0, false
	}
	s := t.byRID[rid]
	return int(s) - 1, s != 0
}

// bindSlot records where a row lives. Row ids are handed out in sequence
// and never reused, so the table grows by one entry per row ever
// inserted: four bytes against the forty-odd a map entry costs.
func (t *Table) bindSlot(rid RowID, slot int) {
	for int(rid) >= len(t.byRID) {
		t.byRID = append(t.byRID, 0)
	}
	t.byRID[rid] = int32(slot + 1)
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Lock acquires the table's write lock. RLock/RUnlock/Unlock complete the
// sync.RWMutex surface so the transaction layer can manage lock ordering.
func (t *Table) Lock()    { t.mu.Lock() }
func (t *Table) Unlock()  { t.mu.Unlock() }
func (t *Table) RLock()   { t.mu.RLock() }
func (t *Table) RUnlock() { t.mu.RUnlock() }

// Live returns the number of live rows. Callers must hold at least a read
// lock; LiveLocked is the externally synchronized variant used by the
// planner while it already holds query locks.
func (t *Table) Live() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// LiveLocked returns the live row count without acquiring the lock.
func (t *Table) LiveLocked() int { return t.live }

// Bytes approximates the table's live-data footprint including index keys.
func (t *Table) Bytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// Indexes returns the table's indexes. The returned slice must not be
// modified.
func (t *Table) Indexes() []*Index { return t.indexes }

// findDuplicateLocked reports whether a unique index already holds the
// key derived from vals for a live row other than self (pass self < 0 for
// inserts). Uniqueness is checked at the table layer because the tree may
// legitimately contain stale entries for superseded images and logically
// deleted rows; only entries backed by a currently live image count.
func (t *Table) findDuplicateLocked(ix *Index, vals []Value, self RowID) bool {
	dup := false
	var kb [keyBufLen]byte
	ix.probeEntries(ix.appendKey(kb[:0], vals), func(entry string) bool {
		rid := decodeRID(entry)
		if rid == self {
			return true
		}
		slot, ok := t.slotOf(rid)
		if !ok {
			return true
		}
		s := &t.rows[slot]
		if s.dead || s.died != 0 {
			return true
		}
		if !ix.owns(entry, s.vals) {
			return true // stale entry for a superseded image
		}
		dup = true
		return false
	})
	return dup
}

// insertLocked appends a row born at ver; the caller holds the write lock.
func (t *Table) insertLocked(vals []Value, ver Version) (RowID, error) {
	if len(vals) != t.schema.Len() {
		return 0, fmt.Errorf("rel: table %s: insert arity %d, want %d", t.name, len(vals), t.schema.Len())
	}
	for _, ix := range t.indexes {
		if ix.unique && t.findDuplicateLocked(ix, vals, -1) {
			return 0, fmt.Errorf("rel: unique index %s on %s: duplicate key %v", ix.name, ix.table, ix.keyOf(vals))
		}
	}
	rid := t.nextRID
	t.nextRID++
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = rowSlot{rid: rid, vals: vals, born: ver}
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, rowSlot{rid: rid, vals: vals, born: ver})
	}
	t.bindSlot(rid, slot)
	t.live++
	for _, v := range vals {
		t.bytes += int64(v.Size())
	}
	for _, ix := range t.indexes {
		ix.insert(vals, rid)
	}
	return rid, nil
}

func (t *Table) removeSlot(slot int, rid RowID, vals []Value) {
	t.rows[slot] = rowSlot{dead: true}
	t.free = append(t.free, slot)
	t.byRID[rid] = 0
	t.live--
	for _, v := range vals {
		t.bytes -= int64(v.Size())
	}
}

// deleteLocked removes the row with the given rid at version ver; the
// caller holds the write lock. Rows created by the same version (and
// never version-updated) are removed physically — no snapshot can see
// them. Otherwise the row is only marked dead at ver and a gcSlot record
// defers physical reclamation until every pin has passed ver. It returns
// an undo record (table field unset) and any garbage produced.
func (t *Table) deleteLocked(rid RowID, ver Version) (undoRec, []garbageRec, bool) {
	slot, ok := t.slotOf(rid)
	if !ok {
		return undoRec{}, nil, false
	}
	s := &t.rows[slot]
	if s.dead || s.died != 0 {
		return undoRec{}, nil, false
	}
	vals := s.vals
	// Physical removal is safe when no snapshot can see the row: either
	// the deleting version itself created it (and never version-pushed an
	// older image), or the call is non-transactional (ver == 0, direct
	// table manipulation with no snapshot readers).
	if ver == 0 || (s.born == ver && s.prev == nil) {
		for _, ix := range t.indexes {
			ix.remove(vals, rid)
		}
		t.removeSlot(slot, rid, vals)
		return undoRec{kind: undoDelete, rid: rid, vals: vals, born: ver, phys: true}, nil, true
	}
	s.died = ver
	t.live--
	for _, v := range vals {
		t.bytes -= int64(v.Size())
	}
	return undoRec{kind: undoDelete, rid: rid, vals: vals},
		[]garbageRec{{after: ver, kind: gcSlot, rid: rid}}, true
}

// updateLocked replaces the row's values at version ver; the caller holds
// the write lock. Updating a row the same version already wrote mutates
// in place (no snapshot can see the intermediate image); updating a
// committed row pushes the old image onto the history chain, keeps its
// index entries alive for pinned snapshots, and defers their removal.
func (t *Table) updateLocked(rid RowID, vals []Value, ver Version) (undoRec, []garbageRec, error) {
	slot, ok := t.slotOf(rid)
	if !ok {
		return undoRec{}, nil, fmt.Errorf("rel: table %s: update of missing row %d", t.name, rid)
	}
	if len(vals) != t.schema.Len() {
		return undoRec{}, nil, fmt.Errorf("rel: table %s: update arity %d, want %d", t.name, len(vals), t.schema.Len())
	}
	s := &t.rows[slot]
	if s.dead || s.died != 0 {
		return undoRec{}, nil, fmt.Errorf("rel: table %s: update of missing row %d", t.name, rid)
	}
	old := s.vals
	// Skip index maintenance for indexes whose key is unchanged (the
	// common case: updating an attribute cell leaves the id-keyed indexes
	// alone).
	var touched []*Index
	for _, ix := range t.indexes {
		if ix.sameKey(old, vals) {
			continue
		}
		touched = append(touched, ix)
	}
	for _, ix := range touched {
		if ix.unique && t.findDuplicateLocked(ix, vals, rid) {
			return undoRec{}, nil, fmt.Errorf("rel: unique index %s on %s: duplicate key %v", ix.name, ix.table, ix.keyOf(vals))
		}
	}
	var rec undoRec
	var garbage []garbageRec
	if ver == 0 || s.born == ver {
		// Same-version overwrite (or non-transactional call): in place.
		for _, ix := range touched {
			ix.remove(old, rid)
		}
		for _, ix := range touched {
			ix.insert(vals, rid)
		}
		rec = undoRec{kind: undoUpdate, rid: rid, vals: old}
	} else {
		img := &verImage{vals: old, born: s.born, prev: s.prev}
		s.prev = img
		s.born = ver
		for _, ix := range touched {
			ix.insert(vals, rid)
			garbage = append(garbage, garbageRec{
				after: ver, kind: gcIndexEntry, ix: ix, entry: ix.entryFor(old, rid), rid: rid,
			})
		}
		garbage = append(garbage, garbageRec{after: ver, kind: gcHistory, rid: rid})
		rec = undoRec{kind: undoUpdateVer, rid: rid, vals: old, born: img.born, prev: img.prev}
	}
	s.vals = vals
	for _, v := range old {
		t.bytes -= int64(v.Size())
	}
	for _, v := range vals {
		t.bytes += int64(v.Size())
	}
	return rec, garbage, nil
}

// revertInsertLocked physically removes a row inserted by the rolling-back
// transaction. Any later same-transaction updates have already been
// reverted, so the slot holds the insert-time image with no history.
func (t *Table) revertInsertLocked(rid RowID) {
	slot, ok := t.slotOf(rid)
	if !ok {
		return
	}
	vals := t.rows[slot].vals
	for _, ix := range t.indexes {
		ix.remove(vals, rid)
	}
	t.removeSlot(slot, rid, vals)
}

// revertDeleteLocked undoes deleteLocked.
func (t *Table) revertDeleteLocked(rec undoRec) {
	if rec.phys {
		t.reinsertLocked(rec.rid, rec.vals, rec.born, nil)
		return
	}
	slot, ok := t.slotOf(rec.rid)
	if !ok {
		return
	}
	s := &t.rows[slot]
	s.died = 0
	t.live++
	for _, v := range s.vals {
		t.bytes += int64(v.Size())
	}
}

// revertUpdateLocked undoes an in-place (same-version) update.
func (t *Table) revertUpdateLocked(rid RowID, old []Value) {
	slot, ok := t.slotOf(rid)
	if !ok {
		return
	}
	s := &t.rows[slot]
	cur := s.vals
	for _, ix := range t.indexes {
		if ix.sameKey(cur, old) {
			continue
		}
		ix.remove(cur, rid)
		ix.insert(old, rid)
	}
	s.vals = old
	for _, v := range cur {
		t.bytes -= int64(v.Size())
	}
	for _, v := range old {
		t.bytes += int64(v.Size())
	}
}

// revertVersionUpdateLocked undoes a version-push update: the old image
// comes back off the history chain and index entries added for the new
// image are removed — unless an older retained image happens to share the
// same entry (a key the row held before), in which case the entry stays.
func (t *Table) revertVersionUpdateLocked(rec undoRec) {
	slot, ok := t.slotOf(rec.rid)
	if !ok {
		return
	}
	s := &t.rows[slot]
	cur := s.vals
	s.vals = rec.vals
	s.born = rec.born
	s.prev = rec.prev
	for _, ix := range t.indexes {
		if ix.sameKey(cur, rec.vals) {
			continue
		}
		entry := ix.entryFor(cur, rec.rid)
		if !t.entryInChainLocked(s, ix, entry) {
			ix.removeEntry(entry)
		}
	}
	for _, v := range cur {
		t.bytes -= int64(v.Size())
	}
	for _, v := range rec.vals {
		t.bytes += int64(v.Size())
	}
}

// entryInChainLocked reports whether any image of the slot (current or
// historical) produces the given index entry.
func (t *Table) entryInChainLocked(s *rowSlot, ix *Index, entry string) bool {
	if ix.owns(entry, s.vals) {
		return true
	}
	for img := s.prev; img != nil; img = img.prev {
		if ix.owns(entry, img.vals) {
			return true
		}
	}
	return false
}

// Get returns a copy-free view of the row's current values. Callers must
// hold a read lock and must not mutate the slice.
func (t *Table) Get(rid RowID) ([]Value, bool) {
	return t.GetAt(rid, Latest)
}

// GetAt returns the row image visible at version v. Callers must hold a
// read lock and must not mutate the slice.
func (t *Table) GetAt(rid RowID, v Version) ([]Value, bool) {
	slot, ok := t.slotOf(rid)
	if !ok {
		return nil, false
	}
	return t.rows[slot].visibleAt(v)
}

// Scan calls fn for every live row until fn returns false. Callers must
// hold a read lock.
func (t *Table) Scan(fn func(rid RowID, vals []Value) bool) {
	t.ScanAt(Latest, fn)
}

// ScanAt calls fn for every row visible at version v until fn returns
// false. Callers must hold a read lock.
func (t *Table) ScanAt(v Version, fn func(rid RowID, vals []Value) bool) {
	for i := range t.rows {
		vals, ok := t.rows[i].visibleAt(v)
		if !ok {
			continue
		}
		if !fn(t.rows[i].rid, vals) {
			return
		}
	}
}

// Slots returns the size of the table's physical slot array (live and
// dead rows). With ScanSlots it lets morsel-parallel scans partition the
// heap into contiguous slot ranges. Callers must hold a read lock.
func (t *Table) Slots() int { return len(t.rows) }

// ScanSlots calls fn for every live row in the slot range [lo, hi) until
// fn returns false. Visiting order matches Scan's over the same range.
// Callers must hold a read lock; concurrent ScanSlots calls on disjoint
// ranges are safe under a shared read lock.
func (t *Table) ScanSlots(lo, hi int, fn func(rid RowID, vals []Value) bool) {
	t.ScanSlotsAt(lo, hi, Latest, fn)
}

// ScanSlotsAt is ScanSlots against the state visible at version v.
func (t *Table) ScanSlotsAt(lo, hi int, v Version, fn func(rid RowID, vals []Value) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.rows) {
		hi = len(t.rows)
	}
	for i := lo; i < hi; i++ {
		vals, ok := t.rows[i].visibleAt(v)
		if !ok {
			continue
		}
		if !fn(t.rows[i].rid, vals) {
			return
		}
	}
}

// ProbeAt calls fn for every row visible at version v whose image matches
// an index entry with the given key prefix. Stale entries — ones whose
// row image at v no longer (or never did) produce that exact entry — are
// filtered here, so callers see each matching row at most once per entry
// it genuinely owns at v. Callers must hold a read lock. The probe
// allocates nothing for keys that fit keyBufLen: a Table-8 hop runs one
// per frontier row.
func (t *Table) ProbeAt(ix *Index, key []Value, v Version, fn func(rid RowID, vals []Value) bool) {
	if ix.hash != nil {
		t.probeHashedAt(ix, key, v, fn)
		return
	}
	var kb [keyBufLen]byte
	ix.probeEntries(appendEncodedKey(kb[:0], key), func(entry string) bool {
		return t.visitEntry(ix, entry, v, fn)
	})
}

// probeHashedAt is ProbeAt on a hashed index. Its candidates are the
// entries filed under the leading component's word whose later words
// match the key's later components — integer work in the index's own
// arrays; a row is read only for those, and kept when its image visible
// at v still produces the entry.
func (t *Table) probeHashedAt(ix *Index, key []Value, v Version, fn func(rid RowID, vals []Value) bool) {
	h := ix.hash
	var wb [maxHashedColumns]uint64
	ws := probeWords(wb[:0], key)
	h.each(ws[0], func(e int32) bool {
		if !h.hasPrefix(e, ws[1:]) {
			return true
		}
		rid := h.rids[e]
		slot, ok := t.slotOf(rid)
		if !ok {
			return true
		}
		vals, ok := t.rows[slot].visibleAt(v)
		if !ok || !ix.ownsEntry(vals, ws[0], e) {
			return true
		}
		return fn(rid, vals)
	})
}

// ProbeRangeAt is ProbeAt over a first-component range (see
// Index.ProbeRange for bound semantics).
func (t *Table) ProbeRangeAt(ix *Index, lo, hi Value, loInclusive, hiInclusive bool, v Version, fn func(rid RowID, vals []Value) bool) {
	ix.probeRangeEntries(lo, hi, loInclusive, hiInclusive, func(entry string) bool {
		return t.visitEntry(ix, entry, v, fn)
	})
}

// visitEntry resolves one candidate entry to the row image visible at v
// and hands it to fn, unless the row is gone at v or the entry is a stale
// one that image does not own.
func (t *Table) visitEntry(ix *Index, entry string, v Version, fn func(rid RowID, vals []Value) bool) bool {
	rid := decodeRID(entry)
	slot, ok := t.slotOf(rid)
	if !ok {
		return true
	}
	vals, ok := t.rows[slot].visibleAt(v)
	if !ok || !ix.owns(entry, vals) {
		return true
	}
	return fn(rid, vals)
}

// addIndex attaches an index and populates it from rows currently live.
// Historical images are not back-indexed, so the planner must not use the
// index for snapshots older than its creation version. The caller holds
// the write lock.
func (t *Table) addIndex(ix *Index) error {
	for i := range t.rows {
		s := &t.rows[i]
		if s.dead || s.died != 0 {
			continue
		}
		if ix.unique && t.hasEntryForKeyLocked(ix, s.vals) {
			return fmt.Errorf("rel: unique index %s on %s: duplicate key %v", ix.name, ix.table, ix.keyOf(s.vals))
		}
		ix.insert(s.vals, s.rid)
	}
	t.indexes = append(t.indexes, ix)
	return nil
}

// hasEntryForKeyLocked reports whether the index already has any entry
// with the exact key derived from vals (used only while populating a
// fresh unique index, where every entry belongs to a live row).
func (t *Table) hasEntryForKeyLocked(ix *Index, vals []Value) bool {
	found := false
	var kb [keyBufLen]byte
	ix.probeEntries(ix.appendKey(kb[:0], vals), func(string) bool {
		found = true
		return false
	})
	return found
}

// reinsertLocked restores a deleted row under its original row id (undo
// path only).
func (t *Table) reinsertLocked(rid RowID, vals []Value, born Version, prev *verImage) {
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = rowSlot{rid: rid, vals: vals, born: born, prev: prev}
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, rowSlot{rid: rid, vals: vals, born: born, prev: prev})
	}
	t.bindSlot(rid, slot)
	t.live++
	for _, v := range vals {
		t.bytes += int64(v.Size())
	}
	for _, ix := range t.indexes {
		ix.insert(vals, rid)
	}
}
