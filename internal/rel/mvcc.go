package rel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Multi-version concurrency control for the relational layer.
//
// The catalog carries a monotonically increasing version clock. Every
// write transaction is stamped with the next version; its commit advances
// the clock. Row slots record the version at which their current image
// was written (born) and, for logically deleted rows, the version at
// which they disappeared (died); superseded images hang off the slot in a
// newest-first chain. A reader pins a version with Catalog.Pin and then
// sees exactly the rows committed at or before that version, no matter
// how far the writer advances — snapshot isolation with a single
// serialized writer (write transactions additionally acquire the
// catalog-wide writer mutex, so versions are assigned and committed in
// one total order that matches the store's WAL order).
//
// Physical cleanup is deferred: deleting or updating a row never removes
// state a pinned snapshot might still need. Instead the transaction
// accumulates garbage records (stale index entries, dead slots, history
// chains) that become reclaimable once every pin has advanced past the
// version that superseded them. Garbage drains opportunistically after
// commits and unpins.

// Version is a catalog-wide commit timestamp. The zero value, Latest,
// means "read the most recent committed state" (and, within a write
// transaction, the transaction's own uncommitted effects).
type Version uint64

// Latest is the non-snapshot read version: current state, including the
// reading transaction's own writes.
const Latest Version = 0

// firstVersion is the clock value of a freshly created catalog; the first
// commit produces firstVersion+1. Starting above zero keeps every real
// version distinct from the Latest sentinel.
const firstVersion Version = 1

// mvccState is the catalog's concurrency bookkeeping.
type mvccState struct {
	verMu    sync.Mutex            // guards clock, pins, and pinTimes
	clock    Version               // last committed version
	pins     map[Version]int       // pinned snapshot versions, refcounted
	pinTimes map[Version]time.Time // when each version was first pinned

	writerMu sync.Mutex // serializes write transactions (single-writer)

	gcMu      sync.Mutex
	gcPending map[*Table]struct{} // tables with garbage awaiting collection

	gcApplied   atomic.Uint64 // garbage records applied (all kinds)
	gcReclaimed atomic.Uint64 // heap row slots reclaimed (gcSlot applications)
}

func newMVCCState() mvccState {
	return mvccState{
		clock:     firstVersion,
		pins:      map[Version]int{},
		pinTimes:  map[Version]time.Time{},
		gcPending: map[*Table]struct{}{},
	}
}

// CurrentVersion returns the last committed version.
func (c *Catalog) CurrentVersion() Version {
	c.mvcc.verMu.Lock()
	defer c.mvcc.verMu.Unlock()
	return c.mvcc.clock
}

// Pin registers a snapshot at the current committed version and returns
// it. Readers at a pinned version see exactly the state committed at that
// version until they Unpin; physical cleanup of anything the snapshot can
// still see is held back.
func (c *Catalog) Pin() Version {
	c.mvcc.verMu.Lock()
	defer c.mvcc.verMu.Unlock()
	v := c.mvcc.clock
	c.mvcc.pins[v]++
	if c.mvcc.pins[v] == 1 {
		c.mvcc.pinTimes[v] = time.Now()
	}
	return v
}

// Unpin releases one pin of the given version and lets garbage collection
// advance past it.
func (c *Catalog) Unpin(v Version) {
	c.mvcc.verMu.Lock()
	if n, ok := c.mvcc.pins[v]; ok {
		if n <= 1 {
			delete(c.mvcc.pins, v)
			delete(c.mvcc.pinTimes, v)
		} else {
			c.mvcc.pins[v] = n - 1
		}
	}
	c.mvcc.verMu.Unlock()
	c.runGC()
}

// PinnedVersions reports the number of distinct pinned versions (for
// stats and tests).
func (c *Catalog) PinnedVersions() int {
	c.mvcc.verMu.Lock()
	defer c.mvcc.verMu.Unlock()
	return len(c.mvcc.pins)
}

// OldestPinAge reports how long the longest-held pin has been open, or
// zero when nothing is pinned. A growing age is the canonical sign of a
// leaked snapshot holding back version GC.
func (c *Catalog) OldestPinAge() time.Duration {
	c.mvcc.verMu.Lock()
	defer c.mvcc.verMu.Unlock()
	var oldest time.Time
	for _, t := range c.mvcc.pinTimes {
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// GCStats is a snapshot of the version-GC counters.
type GCStats struct {
	// Backlog is the number of garbage records queued across all tables,
	// waiting for pins to advance.
	Backlog int
	// Applied counts garbage records ever applied (all kinds).
	Applied uint64
	// ReclaimedRows counts heap row slots physically reclaimed.
	ReclaimedRows uint64
}

// GCStats reports the version-GC backlog and lifetime reclamation
// counters.
func (c *Catalog) GCStats() GCStats {
	st := GCStats{
		Applied:       c.mvcc.gcApplied.Load(),
		ReclaimedRows: c.mvcc.gcReclaimed.Load(),
	}
	c.mu.RLock()
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	for _, t := range tables {
		t.mu.RLock()
		st.Backlog += len(t.garbage)
		t.mu.RUnlock()
	}
	return st
}

// minPinned returns the oldest version any snapshot still needs: the
// minimum pinned version, or the clock when nothing is pinned.
func (c *Catalog) minPinned() Version {
	c.mvcc.verMu.Lock()
	defer c.mvcc.verMu.Unlock()
	min := c.mvcc.clock
	for v := range c.mvcc.pins {
		if v < min {
			min = v
		}
	}
	return min
}

// nextVersion stamps a beginning write transaction. The caller holds the
// writer mutex, so clock+1 cannot be claimed twice.
func (c *Catalog) nextVersion() Version {
	c.mvcc.verMu.Lock()
	defer c.mvcc.verMu.Unlock()
	return c.mvcc.clock + 1
}

// advanceClock publishes a committed write version.
func (c *Catalog) advanceClock(v Version) {
	c.mvcc.verMu.Lock()
	if v > c.mvcc.clock {
		c.mvcc.clock = v
	}
	c.mvcc.verMu.Unlock()
}

// noteGarbage marks tables as having pending garbage.
func (c *Catalog) noteGarbage(tables ...*Table) {
	c.mvcc.gcMu.Lock()
	for _, t := range tables {
		c.mvcc.gcPending[t] = struct{}{}
	}
	c.mvcc.gcMu.Unlock()
}

// runGC drains reclaimable garbage from every table that has some. It is
// called after commits and unpins; each table is collected under its own
// write lock, with no other locks held, so it cannot deadlock with
// in-flight transactions.
func (c *Catalog) runGC() {
	c.mvcc.gcMu.Lock()
	if len(c.mvcc.gcPending) == 0 {
		c.mvcc.gcMu.Unlock()
		return
	}
	pending := make([]*Table, 0, len(c.mvcc.gcPending))
	for t := range c.mvcc.gcPending {
		pending = append(pending, t)
	}
	c.mvcc.gcPending = map[*Table]struct{}{}
	c.mvcc.gcMu.Unlock()

	min := c.minPinned()
	for _, t := range pending {
		remaining, applied, reclaimed := t.collectGarbage(min)
		c.mvcc.gcApplied.Add(applied)
		c.mvcc.gcReclaimed.Add(reclaimed)
		if remaining > 0 {
			c.noteGarbage(t)
		}
	}
}

// garbageKind classifies deferred physical cleanup work.
type garbageKind uint8

const (
	// gcIndexEntry removes one stale index entry (a key superseded by an
	// update, or left behind by Vacuum's row deletions).
	gcIndexEntry garbageKind = iota
	// gcSlot reclaims a logically deleted row: its final image's index
	// entries, its history chain, and the heap slot itself.
	gcSlot
	// gcHistory truncates a row's superseded-image chain.
	gcHistory
)

// garbageRec is one unit of deferred cleanup, eligible once every pinned
// snapshot has version >= after.
type garbageRec struct {
	after Version
	kind  garbageKind
	ix    *Index // gcIndexEntry only
	entry string // gcIndexEntry only: exact encoded tree entry
	rid   RowID  // gcSlot, gcHistory, and liveness re-check for entries
}

// addGarbageLocked queues cleanup work; the caller holds the table write
// lock (transactions publish their garbage at commit while still holding
// their locks).
func (t *Table) addGarbageLocked(recs []garbageRec) {
	t.garbage = append(t.garbage, recs...)
}

// collectGarbage applies every garbage record whose after-version is
// covered by min, returning how many records remain, how many were
// applied, and how many heap row slots were reclaimed.
func (t *Table) collectGarbage(min Version) (remaining int, applied, reclaimed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.garbage[:0]
	for _, g := range t.garbage {
		if g.after > min {
			kept = append(kept, g)
			continue
		}
		applied++
		if g.kind == gcSlot {
			reclaimed++
		}
		t.applyGarbageLocked(g, min)
	}
	// Zero the tail so dropped records don't pin memory.
	for i := len(kept); i < len(t.garbage); i++ {
		t.garbage[i] = garbageRec{}
	}
	t.garbage = kept
	return len(t.garbage), applied, reclaimed
}

func (t *Table) applyGarbageLocked(g garbageRec, min Version) {
	switch g.kind {
	case gcIndexEntry:
		// The entry is stale from the queuing update's point of view, but a
		// later update may have moved the row back to this exact key, or a
		// retained older image still visible to some pin may own it. Only
		// remove the entry when no potentially visible image produces it;
		// otherwise a later record (queued by whatever supersedes that
		// image) will retire it.
		if slot, ok := t.slotOf(g.rid); ok {
			s := &t.rows[slot]
			if !s.dead {
				visible := s.died == 0 || s.died > min
				if visible && g.ix.owns(g.entry, s.vals) {
					return
				}
				succBorn := s.born
				for img := s.prev; img != nil; img = img.prev {
					if succBorn > min && g.ix.owns(g.entry, img.vals) {
						return
					}
					succBorn = img.born
				}
			}
		}
		g.ix.removeEntry(g.entry)
	case gcSlot:
		slot, ok := t.slotOf(g.rid)
		if !ok {
			return
		}
		s := &t.rows[slot]
		if s.dead || s.died == 0 {
			return // already reclaimed, or (defensively) resurrected
		}
		for _, ix := range t.indexes {
			ix.remove(s.vals, g.rid)
		}
		t.rows[slot] = rowSlot{dead: true}
		t.free = append(t.free, slot)
		t.byRID[g.rid] = 0
	case gcHistory:
		slot, ok := t.slotOf(g.rid)
		if !ok {
			return
		}
		s := &t.rows[slot]
		// Walk newest-first; once an image's successor was born at or
		// before min, no pin can reach it or anything older.
		succBorn := s.born
		link := &s.prev
		for *link != nil {
			if succBorn <= min {
				*link = nil
				break
			}
			succBorn = (*link).born
			link = &(*link).prev
		}
	}
}
