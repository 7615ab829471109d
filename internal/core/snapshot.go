package core

import "fmt"

// Snap is a pinned, immutable view of the whole graph at one version.
// Any number of snapshots can be read concurrently with each other and
// with the store's single serialized writer: readers never block the
// writer and the writer never blocks readers (MVCC, see internal/rel).
// Its reads and queries are the View's, at the pinned version.
//
// A snapshot holds a pin on its version so the garbage collector keeps
// the row images it needs; Close releases the pin. Using a snapshot
// after Close returns ErrSnapshotClosed (or reports missing elements).
type Snap struct {
	View
}

// ErrSnapshotClosed is returned by snapshot reads after Close.
var ErrSnapshotClosed = fmt.Errorf("core: snapshot is closed")

// Snapshot pins the current version and returns a consistent read-only
// view of the graph at that version.
func (s *Store) Snapshot() *Snap {
	sn := &Snap{}
	sn.st, sn.ver = s, s.cat.Pin()
	return sn
}

// Version reports the store version this snapshot reads at.
func (sn *Snap) Version() uint64 { return uint64(sn.ver) }

// Close releases the snapshot's version pin, letting the garbage
// collector reclaim superseded row images. Idempotent.
func (sn *Snap) Close() {
	if sn.released.CompareAndSwap(false, true) {
		sn.st.cat.Unpin(sn.ver)
	}
}
