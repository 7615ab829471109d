package rel

import (
	"fmt"
	"sort"
)

// Txn is a transaction over a fixed set of tables. SQLGraph's graph update
// operations are multi-table "stored procedures" (paper Section 4.5.2):
// adding an edge touches OPA, IPA, OSA/ISA, and EA. Txn provides the
// atomicity those procedures need: all table locks are acquired up front
// in sorted name order (deadlock freedom), every mutation is undo-logged,
// and Rollback restores the pre-transaction state exactly.
//
// Write transactions are additionally serialized on the catalog's writer
// mutex and stamped with the next version of the catalog clock; their
// commit publishes that version (see mvcc.go). Read-only transactions can
// be opened at a pinned historical version with BeginAt, in which case
// Get/Scan/Probe observe the state as of that version.
type Txn struct {
	cat     *Catalog
	write   map[string]*Table
	read    map[string]*Table
	order   []lockedTable
	undo    []undoRec
	redo    []Change // logical changes for the commit observer (nil when detached)
	garbage map[*Table][]garbageRec
	ver     Version // nonzero for write transactions: the version being written
	asOf    Version // read version for read-only transactions (Latest otherwise)
	writer  bool    // holds the catalog writer mutex
	closed  bool
}

type lockedTable struct {
	t     *Table
	write bool
}

type undoRec struct {
	table *Table
	kind  undoKind
	rid   RowID
	vals  []Value   // prior values (delete/update)
	born  Version   // prior born version (version-push update, physical delete)
	prev  *verImage // prior history chain (version-push update)
	phys  bool      // delete removed the slot physically
}

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoDelete
	undoUpdate    // in-place (same-version) update
	undoUpdateVer // version-push update of a committed row
)

// Begin opens a transaction that will write the tables named in writeSet
// and only read those in readSet. Locks are taken immediately, in sorted
// name order; a name in both sets is locked for writing.
func (c *Catalog) Begin(writeSet, readSet []string) (*Txn, error) {
	fp, err := c.Footprint(writeSet, readSet)
	if err != nil {
		return nil, err
	}
	return fp.Begin(), nil
}

// Footprint is a pre-resolved transaction lock plan: table pointers and
// their deadlock-free lock order, computed once. Hot callers (the graph
// stored procedures run one per operation) build footprints at startup
// instead of re-resolving names and re-sorting per transaction.
type Footprint struct {
	cat   *Catalog
	write map[string]*Table
	read  map[string]*Table
	order []lockedTable
}

// Footprint resolves a lock plan.
func (c *Catalog) Footprint(writeSet, readSet []string) (*Footprint, error) {
	fp := &Footprint{cat: c, write: map[string]*Table{}, read: map[string]*Table{}}
	for _, name := range writeSet {
		t, ok := c.Table(name)
		if !ok {
			return nil, fmt.Errorf("rel: begin: table %s does not exist", name)
		}
		fp.write[name] = t
	}
	for _, name := range readSet {
		if _, dup := fp.write[name]; dup {
			continue
		}
		t, ok := c.Table(name)
		if !ok {
			return nil, fmt.Errorf("rel: begin: table %s does not exist", name)
		}
		fp.read[name] = t
	}
	names := make([]string, 0, len(fp.write)+len(fp.read))
	for n := range fp.write {
		names = append(names, n)
	}
	for n := range fp.read {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if t, ok := fp.write[n]; ok {
			fp.order = append(fp.order, lockedTable{t, true})
		} else {
			fp.order = append(fp.order, lockedTable{fp.read[n], false})
		}
	}
	return fp, nil
}

// Begin acquires the footprint's locks and returns a live transaction
// reading the latest state. Transactions with a write set first acquire
// the catalog writer mutex — the store has a single serialized writer —
// and are stamped with the next clock version.
func (fp *Footprint) Begin() *Txn {
	return fp.BeginAt(Latest)
}

// BeginAt is Begin with an explicit read version for read-only
// transactions: Get/Scan/Probe observe the state as of asOf (which the
// caller must have pinned via Catalog.Pin). Transactions with a write set
// always read Latest; asOf is ignored for them.
func (fp *Footprint) BeginAt(asOf Version) *Txn {
	tx := &Txn{cat: fp.cat, write: fp.write, read: fp.read, order: fp.order, asOf: asOf}
	if len(fp.write) > 0 {
		fp.cat.mvcc.writerMu.Lock()
		tx.writer = true
		tx.ver = fp.cat.nextVersion()
		tx.asOf = Latest
	}
	for _, lt := range fp.order {
		if lt.write {
			lt.t.Lock()
		} else {
			lt.t.RLock()
		}
	}
	return tx
}

// Version returns the version a write transaction is writing (zero for
// read-only transactions).
func (tx *Txn) Version() Version { return tx.ver }

// Writes reports whether the transaction's footprint writes table.
func (tx *Txn) Writes(table string) bool {
	_, ok := tx.write[table]
	return ok
}

func (tx *Txn) table(name string, forWrite bool) (*Table, error) {
	if t, ok := tx.write[name]; ok {
		return t, nil
	}
	if forWrite {
		return nil, fmt.Errorf("rel: txn: table %s not in write set", name)
	}
	if t, ok := tx.read[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("rel: txn: table %s not in read set", name)
}

func (tx *Txn) addGarbage(t *Table, recs []garbageRec) {
	if len(recs) == 0 {
		return
	}
	if tx.garbage == nil {
		tx.garbage = map[*Table][]garbageRec{}
	}
	tx.garbage[t] = append(tx.garbage[t], recs...)
}

// Insert adds a row to a write-set table.
func (tx *Txn) Insert(table string, vals []Value) (RowID, error) {
	t, err := tx.table(table, true)
	if err != nil {
		return 0, err
	}
	if err := checkMutateHook(table); err != nil {
		return 0, err
	}
	rid, err := t.insertLocked(vals, tx.ver)
	if err != nil {
		return 0, err
	}
	tx.undo = append(tx.undo, undoRec{table: t, kind: undoInsert, rid: rid})
	if tx.cat.observer() != nil {
		tx.redo = append(tx.redo, Change{Table: table, Kind: ChangeInsert, New: vals})
	}
	return rid, nil
}

// Delete removes a row from a write-set table and reports whether it
// existed.
func (tx *Txn) Delete(table string, rid RowID) (bool, error) {
	t, err := tx.table(table, true)
	if err != nil {
		return false, err
	}
	if err := checkMutateHook(table); err != nil {
		return false, err
	}
	rec, garbage, ok := t.deleteLocked(rid, tx.ver)
	if !ok {
		return false, nil
	}
	rec.table = t
	tx.undo = append(tx.undo, rec)
	tx.addGarbage(t, garbage)
	if tx.cat.observer() != nil {
		tx.redo = append(tx.redo, Change{Table: table, Kind: ChangeDelete, Old: rec.vals})
	}
	return true, nil
}

// Update replaces a row in a write-set table.
func (tx *Txn) Update(table string, rid RowID, vals []Value) error {
	t, err := tx.table(table, true)
	if err != nil {
		return err
	}
	if err := checkMutateHook(table); err != nil {
		return err
	}
	rec, garbage, err := t.updateLocked(rid, vals, tx.ver)
	if err != nil {
		return err
	}
	rec.table = t
	tx.undo = append(tx.undo, rec)
	tx.addGarbage(t, garbage)
	if tx.cat.observer() != nil {
		tx.redo = append(tx.redo, Change{Table: table, Kind: ChangeUpdate, Old: rec.vals, New: vals})
	}
	return nil
}

// Get reads a row from any table in the transaction's footprint.
func (tx *Txn) Get(table string, rid RowID) ([]Value, bool, error) {
	t, err := tx.table(table, false)
	if err != nil {
		return nil, false, err
	}
	vals, ok := t.GetAt(rid, tx.asOf)
	return vals, ok, nil
}

// Scan iterates a table in the transaction's footprint.
func (tx *Txn) Scan(table string, fn func(rid RowID, vals []Value) bool) error {
	t, err := tx.table(table, false)
	if err != nil {
		return err
	}
	t.ScanAt(tx.asOf, fn)
	return nil
}

// Probe looks up rows by index key within the transaction's footprint.
func (tx *Txn) Probe(table, index string, key []Value, fn func(rid RowID, vals []Value) bool) error {
	t, err := tx.table(table, false)
	if err != nil {
		return err
	}
	for _, ix := range t.indexes {
		if ix.name == index {
			t.ProbeAt(ix, key, tx.asOf, fn)
			return nil
		}
	}
	return fmt.Errorf("rel: txn: no index %s on %s", index, table)
}

// Commit publishes the transaction's effects: the version clock advances
// to the transaction's version, deferred-cleanup records are handed to
// their tables, and all locks are released. Garbage collection then runs
// outside the locks.
func (tx *Txn) Commit() {
	if tx.closed {
		return
	}
	fireCommitHook()
	// Deliver the change list while the table write locks are still held:
	// the observer's view is exactly serialized with both other writers
	// and any stats rebuild holding a table read lock.
	if len(tx.redo) > 0 {
		if o := tx.cat.observer(); o != nil {
			o.ObserveCommit(tx.ver, tx.redo)
		}
	}
	for t, recs := range tx.garbage {
		t.addGarbageLocked(recs)
		tx.cat.noteGarbage(t)
	}
	collect := tx.ver != 0 && len(tx.garbage) > 0
	if tx.ver != 0 {
		tx.cat.advanceClock(tx.ver)
	}
	tx.release()
	if collect {
		tx.cat.runGC()
	}
}

// Rollback undoes every mutation in reverse order and releases all locks.
// The clock does not advance and no garbage is published, so it is as if
// the transaction's version was never written.
func (tx *Txn) Rollback() {
	if tx.closed {
		return
	}
	for i := len(tx.undo) - 1; i >= 0; i-- {
		rec := tx.undo[i]
		switch rec.kind {
		case undoInsert:
			rec.table.revertInsertLocked(rec.rid)
		case undoDelete:
			rec.table.revertDeleteLocked(rec)
		case undoUpdate:
			rec.table.revertUpdateLocked(rec.rid, rec.vals)
		case undoUpdateVer:
			rec.table.revertVersionUpdateLocked(rec)
		}
	}
	tx.garbage = nil
	tx.release()
}

func (tx *Txn) release() {
	if tx.closed {
		return
	}
	tx.closed = true
	tx.undo = nil
	tx.redo = nil
	tx.garbage = nil
	for i := len(tx.order) - 1; i >= 0; i-- {
		lt := tx.order[i]
		if lt.write {
			lt.t.Unlock()
		} else {
			lt.t.RUnlock()
		}
	}
	if tx.writer {
		tx.writer = false
		tx.cat.mvcc.writerMu.Unlock()
	}
}
