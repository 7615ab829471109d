package sqljson

import (
	"math"
	"slices"
	"strings"
	"sync"
)

// A record is a document's one immutable byte string. It holds no Go
// pointer, so the collector never scans it, and a value read from it (a
// string's bytes, a nested object) is a slice of it, not a copy:
//
//	[0:4)        the entry count n, uint32 little-endian
//	[4:4+13n)    n entries, each 13 bytes:
//	               [0:4)  the key's sym (0 in an array)
//	               [4]    the value's Kind
//	               [5:13) its payload: a bool's 0 or 1, an int64's or a
//	                      float64's bits, or for a string, object or array
//	                      the offset (low 32 bits) and length (high 32
//	                      bits) of its bytes in this record
//	[4+13n:)     the bytes of the strings, and the nested objects and
//	             arrays, each itself a record
//
// An object's entries are sorted by key string, each key once; an array's
// are in order. The empty object and the empty array are the empty record.
const entrySize = 13

// Kind is the JSON type of a document value.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt    // an integral number that fits an int64
	KindFloat  // any other number
	KindString // the kinds from here on keep their bytes in the record's tail
	KindObject
	KindArray
	// kindInvalid is a value FromMap was given that has no JSON form (a
	// channel, say). It renders as nothing, so the document's text does
	// not parse.
	kindInvalid
)

// Item is one value read from a record. It is a few words, built without
// allocating; a string's bytes and a nested object or array are slices
// of the record it came from.
type Item struct {
	kind Kind
	bits uint64
	s    string // a string's bytes, or a nested object's or array's record
}

// Kind returns the item's JSON type.
func (it Item) Kind() Kind { return it.kind }

// Bool returns a bool item's value.
func (it Item) Bool() bool { return it.kind == KindBool && it.bits != 0 }

// Int returns an int item's value.
func (it Item) Int() int64 { return int64(it.bits) }

// Float returns a float item's value.
func (it Item) Float() float64 { return math.Float64frombits(it.bits) }

// Str returns a string item's value, a slice of its record.
func (it Item) Str() string {
	if it.kind != KindString {
		return ""
	}
	return it.s
}

// Doc returns an object item as a document that shares its record.
func (it Item) Doc() Doc {
	if it.kind != KindObject {
		return Doc{}
	}
	return Doc{rec: it.s}
}

// Len returns an array item's element count.
func (it Item) Len() int {
	if it.kind != KindArray {
		return 0
	}
	return count(it.s)
}

// Index returns an array item's i-th element.
func (it Item) Index(i int) Item {
	_, e := entry(it.s, i)
	return e
}

// Any returns the item as encoding/json decodes it, numbers as int64 or
// float64: a string shares the record's bytes, objects and arrays are
// fresh maps and slices.
func (it Item) Any() any {
	switch it.kind {
	case KindBool:
		return it.bits != 0
	case KindInt:
		return int64(it.bits)
	case KindFloat:
		return math.Float64frombits(it.bits)
	case KindString:
		return it.s
	case KindObject:
		return Doc{rec: it.s}.Map()
	case KindArray:
		out := make([]any, count(it.s))
		for i := range out {
			_, e := entry(it.s, i)
			out[i] = e.Any()
		}
		return out
	}
	return nil
}

func u32(s string, i int) uint32 {
	_ = s[i+3]
	return uint32(s[i]) | uint32(s[i+1])<<8 | uint32(s[i+2])<<16 | uint32(s[i+3])<<24
}

func u64(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(u32(s, i)) | uint64(u32(s, i+4))<<32
}

func put32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}

// count is a record's entry count.
func count(rec string) int {
	if len(rec) == 0 {
		return 0
	}
	return int(u32(rec, 0))
}

// keyAt is the sym of a record's i-th entry.
func keyAt(rec string, i int) sym { return sym(u32(rec, 4+entrySize*i)) }

// entry returns a record's i-th entry.
func entry(rec string, i int) (sym, Item) {
	at := 4 + entrySize*i
	return sym(u32(rec, at)), itemAt(rec, at)
}

// itemAt returns the value of the entry at byte offset at of rec.
func itemAt(rec string, at int) Item {
	_ = rec[at+entrySize-1]
	it := Item{kind: Kind(rec[at+4]), bits: u64(rec, at+5)}
	if it.kind >= KindString && it.kind != kindInvalid {
		off, n := uint32(it.bits), uint32(it.bits>>32)
		it.s, it.bits = rec[off:off+n], 0
	}
	return it
}

// member is one value on its way into a record: an object's key (sym set
// once the members are sorted) or an array element.
type member struct {
	key  string
	sym  sym
	kind Kind
	bits uint64
	s    string // a string's bytes, or a nested object's or array's record
}

// appendRecord appends the record of ms (an object's, sorted and interned,
// or an array's) to out.
func appendRecord(out []byte, ms []member) []byte {
	if len(ms) == 0 {
		return out
	}
	size := 4 + entrySize*len(ms)
	for i := range ms {
		size += len(ms[i].s)
	}
	base := len(out)
	out = slices.Grow(out, size)[:base+4+entrySize*len(ms)]
	put32(out[base:], uint32(len(ms)))
	for i := range ms {
		m := &ms[i]
		bits := m.bits
		if len(m.s) > 0 {
			bits = uint64(len(out)-base) | uint64(len(m.s))<<32
			out = append(out, m.s...)
		}
		e := out[base+4+entrySize*i:]
		put32(e, uint32(m.sym))
		e[4] = byte(m.kind)
		put64(e[5:], bits)
	}
	return out
}

// encoder builds records. Its buffers are reused from one record to the
// next: ms is a stack on which each object or array being read keeps its
// members, and out is where records are written.
type encoder struct {
	out []byte
	ms  []member
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// endObject writes the object whose members are ms[mark:] to out: sorted
// by key, of a key given twice the later value kept.
func (e *encoder) endObject(mark int) {
	ms := e.ms[mark:]
	for i := 1; i < len(ms); i++ {
		if ms[i-1].key >= ms[i].key {
			slices.SortStableFunc(ms, func(a, b member) int { return strings.Compare(a.key, b.key) })
			kept := ms[:0]
			for j := range ms {
				if j+1 < len(ms) && ms[j+1].key == ms[j].key {
					continue
				}
				kept = append(kept, ms[j])
			}
			ms = kept
			break
		}
	}
	internMembers(ms)
	e.out = appendRecord(e.out, ms)
	e.pop(mark)
}

// endArray writes the array whose elements are ms[mark:] to out.
func (e *encoder) endArray(mark int) {
	e.out = appendRecord(e.out, e.ms[mark:])
	e.pop(mark)
}

// pop drops the members from mark on, clearing the strings they hold.
func (e *encoder) pop(mark int) {
	clear(e.ms[mark:])
	e.ms = e.ms[:mark]
}

// nested moves the record written to out from start on into m, as an
// object's or array's value. It is the one copy nested values take; they
// are rare in attribute documents.
func (e *encoder) nested(m *member, kind Kind, start int) {
	m.kind, m.s = kind, string(e.out[start:])
	e.out = e.out[:start]
}

// chunkSize is the size of the chunks a Bulk packs records into. A record
// larger than bigRecord gets an allocation of its own, so a chunk's unused
// tail is under a sixteenth of it.
const (
	chunkSize = 64 << 10
	bigRecord = chunkSize / 16
)

// Bulk builds documents in bulk: the records of the documents it builds
// lie one after another in shared append-only chunks, in the order they
// were built, instead of one allocation each. A chunk's bytes are never
// written again once a record holds them, so records stay immutable; a
// chunk is freed when no record in it is referenced. A loader that keeps
// every document it builds (a table loaded in slot order) wastes nothing;
// one that drops some leaves dead space in the chunks of at most what it
// built. The zero Bulk is ready to use; it must not be copied after use.
type Bulk struct {
	enc   encoder
	chunk strings.Builder
}

// Parse is the package's Parse, keeping the record in b's chunks.
func (b *Bulk) Parse(s string) (Doc, error) {
	b.enc.out = b.enc.out[:0]
	if err := b.enc.parse(s); err != nil {
		return Doc{}, err
	}
	return b.keep(b.enc.out), nil
}

// Build is the package's Build, keeping the record in b's chunks.
func (b *Bulk) Build(m map[string]any) (Doc, error) {
	b.enc.out = b.enc.out[:0]
	err := b.enc.object(m)
	if err != nil {
		return Doc{}, err
	}
	return b.keep(b.enc.out), nil
}

// keep copies rec to the current chunk, or to a new one when it does not
// fit. A strings.Builder never moves the bytes a String result covers,
// so the record is a slice of the chunk.
func (b *Bulk) keep(rec []byte) Doc {
	if len(rec) > bigRecord {
		return Doc{rec: string(rec)}
	}
	if b.chunk.Cap()-b.chunk.Len() < len(rec) {
		b.chunk = strings.Builder{}
		b.chunk.Grow(chunkSize)
	}
	start := b.chunk.Len()
	b.chunk.Write(rec)
	return Doc{rec: b.chunk.String()[start:]}
}
