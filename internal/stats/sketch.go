// Package stats maintains optimizer statistics over rel catalogs:
// per-table row counts, per-column NDV sketches and null/negative
// fractions, per-group (edge-label) cardinalities, and rebuild-time
// equi-height histograms. Counters are maintained incrementally from
// the catalog's commit observer and are exactly deterministic: applying
// the same multiset of row inserts and deletes in any order yields the
// same counter state as a from-scratch rebuild, which is what the
// invariant tests assert.
package stats

import (
	"math"
	"math/bits"
)

// Every NDV sketch has sketchLevels levels of sketchLevelCells refcounted
// cells: 2048 cells, 8 KiB per column. A key goes to level l with
// probability 2^-(l+1) (the last level takes the remainder), so each
// level sees half the keys of the one before and some level is always
// lightly loaded. That keeps the estimate's q-error near 1.2 at worst
// (about 7 % RMS) from one distinct value to well past 10^6 (about 2·10^7
// before the last level fills), where a single 2048-cell linear counter
// saturates at ~2 000.
const (
	sketchLevels     = 16
	sketchCellBits   = 7
	sketchLevelCells = 1 << sketchCellBits
	sketchCells      = sketchLevels * sketchLevelCells
)

// sketchFullOcc is the occupancy above which a level is too loaded for
// linear counting to read precisely (4/5 of its cells, about 1.6 keys
// per cell); the estimate starts at the first level below it.
const sketchFullOcc = sketchLevelCells * 4 / 5

// Sketch is a deletion-capable multi-resolution linear-counting distinct
// sketch: each value hashes to one refcounted cell of one level, Remove
// undoes Add exactly, and the estimate sums linear counting over the
// levels that are not saturated, scaled by the share of keys they see.
// Because the cell array is a pure function of the multiset of
// (Add - Remove) keys, an incrementally maintained sketch is
// bit-identical to one rebuilt from scratch.
type Sketch struct {
	cells [sketchCells]int32
	occ   [sketchLevels]int32 // cells with nonzero refcount, per level
	n     int64               // live keys (adds minus removes)
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// cellOf places a key: its level is the number of trailing zero bits of
// its hash (capped at the last level), its cell within the level the top
// bits. The FNV hash is finished with the murmur3 mixer so that every
// bit of it depends on every byte of the key.
func cellOf(key string) (level, cell int) {
	h := fnv64(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	level = bits.TrailingZeros64(h | 1<<(sketchLevels-1))
	return level, level*sketchLevelCells + int(h>>(64-sketchCellBits))
}

// Add records one occurrence of key.
func (s *Sketch) Add(key string) {
	level, i := cellOf(key)
	if s.cells[i] == 0 {
		s.occ[level]++
	}
	s.cells[i]++
	s.n++
}

// apply records one occurrence of key (delta > 0) or undoes one.
func (s *Sketch) apply(key string, delta int64) {
	if delta > 0 {
		s.Add(key)
	} else {
		s.Remove(key)
	}
}

// Remove undoes one Add of key.
func (s *Sketch) Remove(key string) {
	level, i := cellOf(key)
	s.cells[i]--
	if s.cells[i] == 0 {
		s.occ[level]--
	}
	s.n--
}

// Len returns the live key count (adds minus removes).
func (s *Sketch) Len() int64 { return s.n }

// Empty reports whether no live keys remain.
func (s *Sketch) Empty() bool { return s.n == 0 }

// NDV estimates the number of distinct live keys. From the first level b
// whose occupancy is at most sketchFullOcc on, each level's keys are
// read by linear counting, m·ln(m / empty cells); those levels see a
// 2^-b share of all keys, so their sum is scaled by 2^b. The estimate
// never exceeds the live key count.
func (s *Sketch) NDV() float64 {
	if s.n <= 0 {
		return 0
	}
	b := 0
	for b < sketchLevels-1 && s.occ[b] > sketchFullOcc {
		b++
	}
	const m = sketchLevelCells
	est := 0.0
	for _, occ := range s.occ[b:] {
		est += m * math.Log(m/math.Max(float64(m-occ), 1))
	}
	est = math.Ldexp(est, b)
	return math.Min(math.Max(est, 1), float64(s.n))
}

// Cells exposes the raw refcount array for fingerprinting in tests.
func (s *Sketch) Cells() []int32 { return s.cells[:] }
