package engine

import (
	"math/bits"
	"slices"
)

// idSet is a set of int64 ids after Roaring (Chambi, Kaser, Lemire &
// Owen, "Better bitmap performance with Roaring bitmaps", SPE 2016;
// DESIGN.md §21). Ids are cut into containers of 2^16 by their key,
// id >> 16, and the containers are kept in ascending key order. A
// container holds its ids' low 16 bits as a sorted array while it has at
// most arrayMax of them and as a bitmap of 1 024 words from then on, so
// membership is a binary search or a bit test, ascending emission a word
// scan, and two sets merge by OR. No id is a heap object, and reset keeps
// every container's storage for the next fill.
type idSet struct {
	cons []container // in use; cons[len:cap] are spares whose storage the next containers reuse
	n    int         // ids held
	last int         // the container the last add went to
}

type container struct {
	key    int64
	arr    []uint16             // the ids' low 16 bits, ascending, until the container is a bitmap
	bits   *[bitmapWords]uint64 // the bitmap, once it is one
	n      int
	bitmap bool
}

const (
	// arrayMax is a container's ids beyond which it is a bitmap (8 KB):
	// the array's next growths would cost about as much, and a probe of
	// the bitmap is a bit test, not a binary search.
	arrayMax    = 2048
	bitmapWords = 1 << 16 / 64
)

// find returns the position of the container of key, or where it goes.
func (s *idSet) find(key int64) (int, bool) {
	lo, hi := 0, len(s.cons)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.cons[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.cons) && s.cons[lo].key == key
}

// container returns the container of key, making it if it is not there.
func (s *idSet) container(key int64) *container {
	if s.last < len(s.cons) && s.cons[s.last].key == key {
		return &s.cons[s.last]
	}
	i, ok := s.find(key)
	if !ok {
		var spare container
		if n := len(s.cons); n < cap(s.cons) {
			spare = s.cons[:n+1][n]
		}
		s.cons = append(s.cons, spare)
		copy(s.cons[i+1:], s.cons[i:])
		s.cons[i] = container{key: key, arr: spare.arr[:0], bits: spare.bits}
	}
	s.last = i
	return &s.cons[i]
}

// add inserts id and reports whether it was not in the set.
func (s *idSet) add(id int64) bool {
	if s.container(id >> 16).add(uint16(id)) {
		s.n++
		return true
	}
	return false
}

// has reports whether id is in the set. It writes nothing, so workers
// may share a set they only read.
func (s *idSet) has(id int64) bool {
	i, ok := s.find(id >> 16)
	return ok && s.cons[i].has(uint16(id))
}

func (s *idSet) len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// reset empties the set and keeps its containers' storage.
func (s *idSet) reset() {
	s.cons, s.n, s.last = s.cons[:0], 0, 0
}

// appendRange appends to dst the ids at positions [from, to) of the set
// in ascending order: whole containers are skipped by their counts, and a
// bitmap's words by theirs.
func (s *idSet) appendRange(dst []int64, from, to int) []int64 {
	for i := 0; i < len(s.cons) && to > 0; i++ {
		c := &s.cons[i]
		base := c.key << 16
		if !c.bitmap && from < c.n {
			for _, lo := range c.arr[from:min(to, c.n)] {
				dst = append(dst, base|int64(lo))
			}
		} else if from < c.n {
			k := 0 // the position in c of the word's first id
			for w := 0; w < bitmapWords && k < to; w++ {
				word := c.bits[w]
				if n := bits.OnesCount64(word); k+n <= from {
					k += n
					continue
				}
				for ; word != 0 && k < to; word &= word - 1 {
					if k >= from {
						dst = append(dst, base|int64(w<<6+bits.TrailingZeros64(word)))
					}
					k++
				}
			}
		}
		from, to = max(from-c.n, 0), to-c.n
	}
	return dst
}

// or adds the ids of o to s.
func (s *idSet) or(o *idSet) {
	for i := range o.cons {
		oc := &o.cons[i]
		c := s.container(oc.key)
		s.n -= c.n
		if !oc.bitmap {
			for _, lo := range oc.arr {
				c.add(lo)
			}
		} else {
			if !c.bitmap {
				c.toBitmap()
			}
			c.n = 0
			for w := range c.bits {
				c.bits[w] |= oc.bits[w]
				c.n += bits.OnesCount64(c.bits[w])
			}
		}
		s.n += c.n
	}
}

func (c *container) has(lo uint16) bool {
	if c.bitmap {
		return c.bits[lo>>6]&(1<<(lo&63)) != 0
	}
	_, ok := slices.BinarySearch(c.arr, lo)
	return ok
}

func (c *container) add(lo uint16) bool {
	if !c.bitmap {
		i := c.n // ascending input, an id list's or an OR's, appends
		if c.n > 0 && lo <= c.arr[c.n-1] {
			var ok bool
			if i, ok = slices.BinarySearch(c.arr, lo); ok {
				return false
			}
		}
		if c.n < arrayMax {
			c.arr = slices.Insert(c.arr, i, lo)
			c.n++
			return true
		}
		c.toBitmap()
	}
	w := &c.bits[lo>>6]
	if *w&(1<<(lo&63)) != 0 {
		return false
	}
	*w |= 1 << (lo & 63)
	c.n++
	return true
}

// toBitmap makes the container a bitmap of the array's ids.
func (c *container) toBitmap() {
	c.bitmap = true
	if c.bits == nil {
		c.bits = new([bitmapWords]uint64)
	} else {
		clear(c.bits[:])
	}
	for _, lo := range c.arr {
		c.bits[lo>>6] |= 1 << (lo & 63)
	}
}
