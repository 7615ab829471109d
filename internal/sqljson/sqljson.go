// Package sqljson implements the JSON document support the SQLGraph schema
// relies on: the VA and EA tables store vertex and edge attributes in a
// JSON column, and queries reach into those documents with the JSON_VAL
// SQL function (paper Figures 5 and 7).
//
// Documents are parsed once and kept structured, so repeated JSON_VAL
// calls during query evaluation do not re-parse the text. Numbers are kept
// as int64 when they are integral, otherwise float64, mirroring the
// numeric casting behavior the paper's micro-benchmark (Table 2) exercises.
//
// A document is one immutable, pointer-free byte record (record.go): a
// count, one fixed-size entry per top-level key sorted by key, then the
// bytes of its strings and of its nested objects and arrays, each of which
// is a record too. The collector never scans a record, a read returns an
// Item whose string is a slice of it, and a change builds a new document
// (With, Without) instead of writing the old one. A Bulk packs the records
// of a bulk load into shared chunks, in the order they are built.
//
// Keys are interned as uint32 syms: the attribute keys of a graph are its
// schema, shared by every row, so each is stored once and a compiled
// JSON_VAL key finds its field by comparing syms rather than strings. The
// table keeps every key a document has held. A compiled key is only looked
// up, so a query naming keys that no document has does not grow the
// table.
package sqljson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Doc is a JSON object: its record. The zero value is an empty document.
// A Doc is immutable, so copies of it share the record.
type Doc struct {
	rec string
}

// New returns an empty document.
func New() *Doc { return &Doc{} }

// Record returns the document's record, for a caller that keeps documents
// as their bytes (rel keeps a JSON value as the record's address and
// length). FromRecord(d.Record()) is d.
func (d Doc) Record() string { return d.rec }

// FromRecord returns the document whose record is rec, which must be a
// string Record returned.
func FromRecord(rec string) Doc { return Doc{rec: rec} }

// Build builds a document from a Go map, holding every value as its JSON
// text reads back, so Build(m) and Parse(Build(m).String()) are the same
// document (a json.Number aside: it is held as Parse reads its own text):
//   - a Go integer of any kind is an int64 (a uint beyond int64 the
//     nearest float64), and a float of any kind a float64 as its JSON
//     text reads (float32(0.1) is 0.1), or an int64 when integral and
//     within ±2^53;
//   - invalid UTF-8 in a key or a string is U+FFFD, byte by byte (of keys
//     that then coincide one value is kept);
//   - a Doc is the object it holds;
//   - any other type is its encoding/json reading.
//
// NaN and ±Inf have no JSON form (nor has a json.Number beyond the
// float64 range, nor a value encoding/json refuses, such as a channel):
// Build fails on them.
func Build(m map[string]any) (Doc, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.out = e.out[:0]
	if err := e.object(m); err != nil {
		return Doc{}, err
	}
	return Doc{rec: string(e.out)}, nil
}

// FromMap is Build for a map the caller has no error path for. A value
// with no JSON form is kept as near as the record can hold it (NaN and
// ±Inf as themselves, anything else as nothing), so the document's text
// (String) fails to parse: a write carrying it is refused when its record
// is applied.
func FromMap(m map[string]any) *Doc {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.out = e.out[:0]
	_ = e.object(m)
	return &Doc{rec: string(e.out)}
}

// object reads m into a record appended to out. Of its errors the first
// is returned; the record is complete either way.
func (e *encoder) object(m map[string]any) error {
	mark := len(e.ms)
	var err error
	var bad []string // keys that are not valid UTF-8
	for k, v := range m {
		if !utf8.ValidString(k) {
			bad = append(bad, k)
			continue
		}
		mem := member{key: k}
		err = keyErr(err, k, e.value(v, &mem))
		e.ms = append(e.ms, mem)
	}
	// Each reads as U+FFFD; they follow the valid keys in byte order and
	// the later of keys that coincide wins, so the same one wins every time.
	slices.Sort(bad)
	for _, k := range bad {
		mem := member{key: validUTF8(k)}
		err = keyErr(err, k, e.value(m[k], &mem))
		e.ms = append(e.ms, mem)
	}
	e.endObject(mark)
	return err
}

// keyErr is err, or, when there is none yet, the error of key's value.
func keyErr(err error, key string, verr error) error {
	if err == nil && verr != nil {
		return fmt.Errorf("sqljson: key %q: %w", key, verr)
	}
	return err
}

// value sets m to v as its JSON text reads back (see Build). A value with
// no JSON form is an error; it is held as near as the record can (a
// json.Number as the ±Inf strconv reads), and a map or slice holding it
// is still read around it.
func (e *encoder) value(v any, m *member) error {
	switch x := v.(type) {
	case nil:
		m.kind = KindNull
		return nil
	case bool:
		m.kind = KindBool
		if x {
			m.bits = 1
		}
		return nil
	case int64:
		m.kind, m.bits = KindInt, uint64(x)
		return nil
	case int:
		m.kind, m.bits = KindInt, uint64(x)
		return nil
	case string:
		m.kind, m.s = KindString, validUTF8(x)
		return nil
	case float64:
		return floatMember(x, m)
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			m.kind, m.bits = KindInt, uint64(i)
			return nil
		}
		f, _ := strconv.ParseFloat(string(x), 64)
		m.kind, m.bits = KindFloat, math.Float64bits(f)
		if math.IsInf(f, 0) {
			return errNotFinite
		}
		return nil
	case map[string]any:
		start := len(e.out)
		err := e.object(x)
		e.nested(m, KindObject, start)
		return err
	case []any:
		start, mark := len(e.out), len(e.ms)
		var err error
		for _, el := range x {
			mem := member{}
			if eerr := e.value(el, &mem); eerr != nil && err == nil {
				err = eerr
			}
			e.ms = append(e.ms, mem)
		}
		e.endArray(mark)
		e.nested(m, KindArray, start)
		return err
	case *Doc:
		m.kind = KindObject
		if x != nil {
			m.s = x.rec
		}
		return nil
	case Doc:
		m.kind, m.s = KindObject, x.rec
		return nil
	}
	if _, ok := v.(json.Marshaler); !ok {
		switch rv := reflect.ValueOf(v); rv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			m.kind, m.bits = KindInt, uint64(rv.Int())
			return nil
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			if u := rv.Uint(); u <= math.MaxInt64 {
				m.kind, m.bits = KindInt, u
				return nil
			}
			m.kind, m.bits = KindFloat, math.Float64bits(float64(rv.Uint()))
			return nil
		case reflect.Float32:
			// encoding/json writes a float32 in its own shortest form.
			f, _ := strconv.ParseFloat(strconv.FormatFloat(rv.Float(), 'g', -1, 32), 64)
			return floatMember(f, m)
		case reflect.Float64:
			return floatMember(rv.Float(), m)
		}
	}
	// Anything else reads back as encoding/json writes it.
	text, err := json.Marshal(v)
	if err != nil {
		m.kind = kindInvalid
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.UseNumber()
	var out any
	if err := dec.Decode(&out); err != nil {
		m.kind = kindInvalid
		return err
	}
	return e.value(out, m)
}

var errNotFinite = errors.New("NaN and ±Inf have no JSON form")

// floatMember sets m to a float64 as its JSON text reads back: an int64
// when integral and within ±2^53 (as Parse reads such text), NaN and ±Inf
// refused.
func floatMember(x float64, m *member) error {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		m.kind, m.bits = KindFloat, math.Float64bits(x)
		return errNotFinite
	case x == math.Trunc(x) && math.Abs(x) < 1<<53:
		m.kind, m.bits = KindInt, uint64(int64(x))
		return nil
	}
	m.kind, m.bits = KindFloat, math.Float64bits(x)
	return nil
}

// validUTF8 replaces each byte of s that is not part of valid UTF-8 with
// U+FFFD, as encoding/json writes such a string.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		b.WriteRune(r) // utf8.RuneError is U+FFFD
		i += n
	}
	return b.String()
}

// With returns a document holding d's fields and v, read as Build reads
// it, under key (invalid UTF-8 read as U+FFFD). d is unchanged. A value
// with no JSON form is held as FromMap holds it.
func (d Doc) With(key string, v any) Doc {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.out = e.out[:0]
	mark := len(e.ms)
	e.ms = d.appendMembers(e.ms)
	mem := member{key: validUTF8(key)}
	_ = e.value(v, &mem)
	e.ms = append(e.ms, mem) // after d's fields: it wins over one of its key
	e.endObject(mark)
	return Doc{rec: string(e.out)}
}

// Without returns d without key, and whether d held it. d is unchanged.
func (d Doc) Without(key string) (Doc, bool) {
	i, ok := d.search(key)
	if !ok {
		return d, false
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.out = e.out[:0]
	mark := len(e.ms)
	e.ms = d.appendMembers(e.ms)
	e.ms = slices.Delete(e.ms, mark+i, mark+i+1)
	e.endObject(mark)
	return Doc{rec: string(e.out)}, true
}

// appendMembers appends d's fields to ms, in order.
func (d Doc) appendMembers(ms []member) []member {
	for i := range count(d.rec) {
		k, it := entry(d.rec, i)
		ms = append(ms, member{key: k.name(), sym: k, kind: it.kind, bits: it.bits, s: it.s})
	}
	return ms
}

// search finds key's field by its string, or where it would go.
func (d Doc) search(key string) (int, bool) {
	names := *syms.names.Load()
	lo, hi := 0, count(d.rec)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := strings.Compare(names[keyAt(d.rec, mid)], key); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// find locates a compiled key in the object record rec. An
// interned key is found by a scan comparing syms: attribute sets are small
// (DBpedia vertices carry 1–5 keys, edges 3), so that beats a binary
// search reading every probed key's bytes. A name no document held when
// the key was compiled may be held since, so it is searched for by
// string.
func find(rec string, p Path) (Item, bool) {
	if p.key == 0 {
		if i, ok := (Doc{rec: rec}).search(p.name); ok {
			_, it := entry(rec, i)
			return it, true
		}
		return Item{}, false
	}
	end := 4 + entrySize*count(rec)
	if end > len(rec) {
		return Item{}, false // only the empty record
	}
	for at := 4; at < end; at += entrySize {
		if sym(u32(rec, at)) == p.key {
			return itemAt(rec, at), true
		}
	}
	return Item{}, false
}

// Len reports the number of top-level keys.
func (d Doc) Len() int { return count(d.rec) }

// Keys returns the top-level keys in sorted order.
func (d Doc) Keys() []string {
	n := count(d.rec)
	if n == 0 {
		return nil
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyAt(d.rec, i).name()
	}
	return keys
}

// Has reports whether the top-level key exists.
func (d Doc) Has(key string) bool {
	_, ok := d.search(key)
	return ok
}

// Field returns the item at the top-level key.
func (d Doc) Field(key string) (Item, bool) {
	if i, ok := d.search(key); ok {
		_, it := entry(d.rec, i)
		return it, true
	}
	return Item{}, false
}

// Get returns the value at the top-level key, as Item.Any reads it.
func (d Doc) Get(key string) (any, bool) {
	if it, ok := d.Field(key); ok {
		return it.Any(), true
	}
	return nil, false
}

// ErrNoValue is returned by Val for a key the document does not hold.
var ErrNoValue = errors.New("sqljson: no value at the key")

// Val is JSON_VAL: the value at one top-level key, taken literally — a
// '.' or '[' in it is part of the key, as a Gremlin attribute key may hold
// either. It returns ErrNoValue when the document does not hold the key.
func (d Doc) Val(key string) (any, error) {
	if v, ok := d.Get(key); ok {
		return v, nil
	}
	return nil, ErrNoValue
}

// Path is a compiled JSON_VAL key (see Val). A query applies one constant
// key to every row it examines; compiling it once looks the key up once.
type Path struct {
	name string
	key  sym // name's sym; zero if no document held name
}

// CompilePath compiles a JSON_VAL key. It looks the key up and interns
// nothing, so a key no document has adds nothing to the table.
func CompilePath(key string) Path { return Path{name: key, key: lookup(key)} }

// Lookup resolves a compiled key to the item it names. It allocates
// nothing: JSON_VAL runs it once per examined row.
func (d Doc) Lookup(p Path) (Item, bool) { return find(d.rec, p) }

// Map returns the document as a plain Go map (see Item.Any).
func (d Doc) Map() map[string]any {
	n := count(d.rec)
	m := make(map[string]any, n)
	for i := 0; i < n; i++ {
		k, it := entry(d.rec, i)
		m[k.name()] = it.Any()
	}
	return m
}

// String renders the document as canonical JSON with sorted keys, so test
// output and on-disk sizes are deterministic.
func (d Doc) String() string {
	return string(d.AppendJSON(nil))
}

// AppendJSON appends the canonical rendering String returns to b: what
// encoding/json writes for the document's map. The checkpoint encodes
// every stored document through it, and it allocates nothing for
// documents whose strings need no escaping.
func (d Doc) AppendJSON(b []byte) []byte { return appendObject(b, d.rec) }

func appendObject(b []byte, rec string) []byte {
	b = append(b, '{')
	for i, n := 0, count(rec); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		k, it := entry(rec, i)
		b = appendJSONString(b, k.name())
		b = append(b, ':')
		b = appendItem(b, it)
	}
	return append(b, '}')
}

func appendItem(b []byte, it Item) []byte {
	switch it.kind {
	case KindNull:
		return append(b, "null"...)
	case KindBool:
		return strconv.AppendBool(b, it.bits != 0)
	case KindInt:
		return strconv.AppendInt(b, int64(it.bits), 10)
	case KindFloat:
		return strconv.AppendFloat(b, math.Float64frombits(it.bits), 'g', -1, 64)
	case KindString:
		return appendJSONString(b, it.s)
	case KindObject:
		return appendObject(b, it.s)
	case KindArray:
		b = append(b, '[')
		for i, n := 0, count(it.s); i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			_, e := entry(it.s, i)
			b = appendItem(b, e)
		}
		return append(b, ']')
	}
	return b // kindInvalid: encoding/json wrote nothing for it
}

// MarshalJSON implements json.Marshaler with sorted keys.
func (d Doc) MarshalJSON() ([]byte, error) { return d.AppendJSON(nil), nil }

// UnmarshalJSON implements json.Unmarshaler. It replaces *d with the
// parsed document; the record *d held is not written.
func (d *Doc) UnmarshalJSON(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*d = parsed
	return nil
}

// appendJSONString quotes s exactly as encoding/json does. A string of
// printable ASCII that needs no escape — nearly every key and most values
// — is copied; anything else takes the library's path.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Size approximates the serialized size in bytes without serializing; used
// by the storage layer to report on-disk footprint (paper Section 5.1
// compares database sizes).
func (d Doc) Size() int { return objectSize(d.rec) }

func objectSize(rec string) int {
	n := 2
	for i, c := 0, count(rec); i < c; i++ {
		k, it := entry(rec, i)
		n += len(k.name()) + 3 + itemSize(it) + 1
	}
	return n
}

func itemSize(it Item) int {
	switch it.kind {
	case KindNull:
		return 4
	case KindBool:
		return 5
	case KindInt:
		x := int64(it.bits)
		if x == 0 {
			return 1
		}
		n := 0
		if x < 0 {
			n++
		}
		for x != 0 {
			x /= 10
			n++
		}
		return n
	case KindFloat:
		return 12
	case KindString:
		return len(it.s) + 2
	case KindObject:
		return objectSize(it.s)
	case KindArray:
		n := 2
		for i, c := 0, count(it.s); i < c; i++ {
			_, e := entry(it.s, i)
			n += itemSize(e) + 1
		}
		return n
	}
	return 8
}
