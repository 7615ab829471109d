package engine

import "sqlgraph/internal/rel"

// rowArena batch-allocates output rows of a fixed width. Join and
// projection operators produce millions of short []rel.Value slices; one
// allocation per row dominated query profiles, so rows are carved out of
// shared chunks instead. Rows remain valid after the arena grows (old
// chunks are simply retained by the row slices that reference them).
//
// Chunks grow geometrically from the caller's row estimate: a hop that
// emits three rows reserves a handful, one that emits sixty thousand gets
// there in a dozen allocations, and neither pays for the other.
type rowArena struct {
	width int
	next  int // rows the next chunk will hold
	buf   []rel.Value
}

const (
	// arenaMinRows is the smallest chunk, in rows.
	arenaMinRows = 8
	// arenaMaxValues caps a chunk (1.5 MB of 24-byte rel.Value, the size
	// rel's TestValueLayout pins): past it doubling buys nothing and a
	// single surviving row would pin too much.
	arenaMaxValues = 1 << 16
)

// newRowArena returns an arena for rows of the given width whose first
// chunk holds rowsHint rows (the operator's estimate; 0 = unknown).
func newRowArena(width, rowsHint int) *rowArena {
	return &rowArena{width: width, next: rowsHint}
}

// alloc returns a zeroed row of the arena's width with capacity clamped
// to its length.
func (a *rowArena) alloc() []rel.Value {
	if a.width == 0 {
		return nil
	}
	if len(a.buf)+a.width > cap(a.buf) {
		rows := min(max(a.next, arenaMinRows), max(arenaMaxValues/a.width, 1))
		a.buf = make([]rel.Value, 0, rows*a.width)
		a.next = 2 * rows
	}
	start := len(a.buf)
	a.buf = a.buf[: start+a.width : cap(a.buf)]
	return a.buf[start : start+a.width : start+a.width]
}
