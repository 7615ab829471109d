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
// A document's top-level fields are one slice sorted by key, and the keys
// are interned: the attribute keys of a graph are its schema, shared by
// every row, so each is stored once and a compiled JSON_VAL path finds its
// field by comparing key handles rather than hashing strings. Nested
// objects and arrays are plain map[string]any and []any values.
//
// Attribute keys are interned in a table that keeps every key a document
// has held. A compiled path only looks its keys up, so a query naming keys
// that no document has does not grow the table.
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

// Doc is a parsed JSON object. The zero value is an empty document.
type Doc struct {
	fields []field // sorted by key, each key once
}

type field struct {
	key sym
	val any
}

func byKey(a, b field) int { return strings.Compare(a.key.Value(), b.key.Value()) }

// New returns an empty document.
func New() *Doc { return &Doc{} }

// Build builds a document from a Go map, holding every value as its JSON
// text reads back, so Build(m) and Parse(Build(m).String()) are the same
// document (a json.Number aside: it is held as Parse reads its own text):
//   - a Go integer of any kind is an int64 (a uint beyond int64 the
//     nearest float64), and a float of any kind a float64 as its JSON
//     text reads (float32(0.1) is 0.1), or an int64 when integral and
//     within ±2^53;
//   - invalid UTF-8 in a key or a string is U+FFFD, byte by byte (of keys
//     that then coincide one value is kept);
//   - any other type is its encoding/json reading.
//
// NaN and ±Inf have no JSON form (nor has a json.Number beyond the
// float64 range, nor a value encoding/json refuses, such as a channel):
// Build fails on them.
func Build(m map[string]any) (*Doc, error) {
	d, err := fromMap(m)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// FromMap is Build for a map the caller has no error path for. A value
// with no JSON form is kept as given, so the document's text (String)
// fails to parse: a write carrying it is refused when its record is
// applied.
func FromMap(m map[string]any) *Doc {
	d, _ := fromMap(m)
	return d
}

func fromMap(m map[string]any) (*Doc, error) {
	d := &Doc{fields: make([]field, 0, len(m))}
	var err error
	var bad []string // keys that are not valid UTF-8
	for k, v := range m {
		if !utf8.ValidString(k) {
			bad = append(bad, k)
			continue
		}
		nv, verr := normalize(v)
		err = keyErr(err, k, verr)
		d.fields = append(d.fields, field{intern(k), nv})
	}
	slices.SortFunc(d.fields, byKey)
	// Set reads each as U+FFFD; in byte order, of keys that then coincide
	// the same one wins every time.
	slices.Sort(bad)
	for _, k := range bad {
		nv, verr := normalize(m[k])
		err = keyErr(err, k, verr)
		d.Set(k, nv)
	}
	return d, err
}

func normalizeMap(m map[string]any) (map[string]any, error) {
	out := make(map[string]any, len(m))
	var err error
	var bad []string // as in fromMap
	for k, v := range m {
		if !utf8.ValidString(k) {
			bad = append(bad, k)
			continue
		}
		nv, verr := normalize(v)
		err = keyErr(err, k, verr)
		out[k] = nv
	}
	slices.Sort(bad)
	for _, k := range bad {
		nv, verr := normalize(m[k])
		err = keyErr(err, k, verr)
		out[validUTF8(k)] = nv
	}
	return out, err
}

// keyErr is err, or, when there is none yet, the error of key's value.
func keyErr(err error, key string, verr error) error {
	if err == nil && verr != nil {
		return fmt.Errorf("sqljson: key %q: %w", key, verr)
	}
	return err
}

// normalize returns v as its JSON text reads back (see Build). A value
// with no JSON form is an error; it is kept as given (a json.Number as
// the ±Inf Parse reads), and a map or slice holding it is still
// normalized around it, so Parse, which ignores the error, reads nested
// numbers as it always has.
func normalize(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, int64:
		return v, nil
	case string:
		if utf8.ValidString(x) {
			return v, nil // no new box: documents hold their strings as given
		}
		return validUTF8(x), nil
	case int:
		return int64(x), nil
	case float64:
		return floatValue(x)
	case json.Number:
		n := number(string(x))
		if f, ok := n.(float64); ok && math.IsInf(f, 0) {
			return n, errNotFinite
		}
		return n, nil
	case map[string]any:
		return normalizeMap(x)
	case []any:
		var err error
		out := make([]any, len(x))
		for i, e := range x {
			ne, eerr := normalize(e)
			if eerr != nil && err == nil {
				err = eerr
			}
			out[i] = ne
		}
		return out, err
	case *Doc:
		m := make(map[string]any, x.Len())
		for _, f := range x.fieldsOrNil() {
			m[f.key.Value()] = f.val
		}
		return m, nil
	}
	if _, ok := v.(json.Marshaler); !ok {
		switch rv := reflect.ValueOf(v); rv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return rv.Int(), nil
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			if u := rv.Uint(); u <= math.MaxInt64 {
				return int64(u), nil
			}
			return float64(rv.Uint()), nil
		case reflect.Float32:
			// encoding/json writes a float32 in its own shortest form.
			f, _ := strconv.ParseFloat(strconv.FormatFloat(rv.Float(), 'g', -1, 32), 64)
			return floatValue(f)
		case reflect.Float64:
			return floatValue(rv.Float())
		}
	}
	// Anything else reads back as encoding/json writes it.
	text, err := json.Marshal(v)
	if err != nil {
		return v, err
	}
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.UseNumber()
	var out any
	if err := dec.Decode(&out); err != nil {
		return v, err
	}
	return normalize(out)
}

var errNotFinite = errors.New("NaN and ±Inf have no JSON form")

// floatValue is a float64 as its JSON text reads back: an int64 when
// integral and within ±2^53 (as Parse reads such text), NaN and ±Inf
// refused.
func floatValue(x float64) (any, error) {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return x, errNotFinite
	case x == math.Trunc(x) && math.Abs(x) < 1<<53:
		return int64(x), nil
	}
	return x, nil
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

func (d *Doc) fieldsOrNil() []field {
	if d == nil {
		return nil
	}
	return d.fields
}

// search finds key's field, or where it would go.
func (d *Doc) search(key string) (int, bool) {
	return slices.BinarySearchFunc(d.fieldsOrNil(), key, func(f field, key string) int {
		return strings.Compare(f.key.Value(), key)
	})
}

// find locates a compiled path step's key. An interned key is found by a
// scan comparing handles: attribute sets are small (DBpedia vertices carry
// 1–5 keys, edges 3), so that beats a binary search reading every probed
// key's bytes. A name no document held when the path was compiled may be
// held since, so it is searched for by string.
func (d *Doc) find(step pathStep) (int, bool) {
	if step.key == (sym{}) {
		return d.search(step.name)
	}
	for i := range d.fields {
		if d.fields[i].key == step.key {
			return i, true
		}
	}
	return 0, false
}

// Len reports the number of top-level keys.
func (d *Doc) Len() int { return len(d.fieldsOrNil()) }

// Keys returns the top-level keys in sorted order.
func (d *Doc) Keys() []string {
	if d == nil {
		return nil
	}
	keys := make([]string, len(d.fields))
	for i, f := range d.fields {
		keys[i] = f.key.Value()
	}
	return keys
}

// Set stores v, normalized as Build does, under key (with invalid UTF-8
// read as U+FFFD). A value with no JSON form is stored as given.
func (d *Doc) Set(key string, v any) {
	v, _ = normalize(v)
	key = validUTF8(key)
	if i, ok := d.search(key); ok {
		d.fields[i].val = v
	} else {
		d.fields = slices.Insert(d.fields, i, field{intern(key), v})
	}
}

// Delete removes key and reports whether it was present.
func (d *Doc) Delete(key string) bool {
	i, ok := d.search(key)
	if ok {
		d.fields = slices.Delete(d.fields, i, i+1)
	}
	return ok
}

// Has reports whether the top-level key exists.
func (d *Doc) Has(key string) bool {
	_, ok := d.search(key)
	return ok
}

// Get returns the value at the top-level key.
func (d *Doc) Get(key string) (any, bool) {
	if i, ok := d.search(key); ok {
		return d.fields[i].val, true
	}
	return nil, false
}

// ErrNoValue is returned by Val for paths that do not resolve.
var ErrNoValue = errors.New("sqljson: path has no value")

// Val resolves a JSON_VAL-style path: dot-separated keys, with [i]
// suffixes for array elements ("a.b[2].c"). It returns ErrNoValue when any
// step is missing.
func (d *Doc) Val(path string) (any, error) {
	if !strings.ContainsAny(path, ".[") && path != "" {
		if v, ok := d.Get(path); ok {
			return v, nil
		}
		return nil, ErrNoValue
	}
	return d.ValPath(CompilePath(path))
}

// Path is a parsed JSON_VAL path. A query applies one constant path to
// every row it examines; compiling it once keeps the split off that loop.
type Path []pathStep

type pathStep struct {
	name  string // "" when the step only indexes
	key   sym    // name's handle; zero if no document held name
	index int    // -1 when absent
}

// CompilePath parses a JSON_VAL-style path (see Val). It looks its keys up
// and interns none, so paths naming keys no document has add nothing to
// the table.
func CompilePath(path string) Path {
	if !strings.ContainsAny(path, ".[") {
		return Path{{name: path, key: lookup(path), index: -1}}
	}
	var steps Path
	for _, part := range strings.Split(path, ".") {
		idx := -1
		if open := strings.IndexByte(part, '['); open >= 0 && strings.HasSuffix(part, "]") {
			if n, err := strconv.Atoi(part[open+1 : len(part)-1]); err == nil {
				idx = n
				part = part[:open]
			}
		}
		steps = append(steps, pathStep{name: part, key: lookup(part), index: idx})
	}
	return steps
}

// ValPath is Val for a compiled path. The empty path is the document itself.
func (d *Doc) ValPath(path Path) (any, error) {
	if d == nil {
		return nil, ErrNoValue
	}
	var cur any = d
	for _, step := range path {
		if step.name != "" {
			var ok bool
			switch c := cur.(type) {
			case *Doc:
				var i int
				if i, ok = c.find(step); ok {
					cur = c.fields[i].val
				}
			case map[string]any:
				cur, ok = c[step.name]
			}
			if !ok {
				return nil, ErrNoValue
			}
		}
		if step.index >= 0 {
			arr, ok := cur.([]any)
			if !ok || step.index >= len(arr) {
				return nil, ErrNoValue
			}
			cur = arr[step.index]
		}
	}
	return cur, nil
}

// Map returns a deep copy of the document as a plain Go map.
func (d *Doc) Map() map[string]any {
	m := make(map[string]any, d.Len())
	for _, f := range d.fieldsOrNil() {
		m[f.key.Value()] = cloneVal(f.val)
	}
	return m
}

// Clone returns a deep copy of the document.
func (d *Doc) Clone() *Doc {
	out := &Doc{fields: make([]field, d.Len())}
	for i, f := range d.fieldsOrNil() {
		out.fields[i] = field{f.key, cloneVal(f.val)}
	}
	return out
}

func cloneMap(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = cloneVal(v)
	}
	return out
}

func cloneVal(v any) any {
	switch x := v.(type) {
	case map[string]any:
		return cloneMap(x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = cloneVal(e)
		}
		return out
	default:
		return v
	}
}

// String renders the document as canonical JSON with sorted keys, so test
// output and on-disk sizes are deterministic.
func (d *Doc) String() string {
	return string(d.AppendJSON(nil))
}

// AppendJSON appends the canonical rendering String returns to b. The
// checkpoint encodes every stored document through it, so it allocates
// nothing for documents of plain scalars and short nested key sets.
func (d *Doc) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	for i, f := range d.fieldsOrNil() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, f.key.Value())
		b = append(b, ':')
		b = appendJSON(b, f.val)
	}
	return append(b, '}')
}

// MarshalJSON implements json.Marshaler with sorted keys.
func (d *Doc) MarshalJSON() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Doc) UnmarshalJSON(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	d.fields = parsed.fields
	return nil
}

func appendJSON(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...)
	case bool:
		return strconv.AppendBool(b, x)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return appendJSONString(b, x)
	case []any:
		b = append(b, '[')
		for i, e := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSON(b, e)
		}
		return append(b, ']')
	case map[string]any:
		var few [8]string // most attribute sets are small: sort them on the stack
		keys := few[:0]
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, k)
			b = append(b, ':')
			b = appendJSON(b, x[k])
		}
		return append(b, '}')
	default:
		enc, _ := json.Marshal(x)
		return append(b, enc...)
	}
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
func (d *Doc) Size() int {
	n := 2
	for _, f := range d.fieldsOrNil() {
		n += len(f.key.Value()) + 3 + sizeOf(f.val) + 1
	}
	return n
}

func sizeOf(v any) int {
	switch x := v.(type) {
	case nil:
		return 4
	case bool:
		return 5
	case int64:
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
	case float64:
		return 12
	case string:
		return len(x) + 2
	case []any:
		n := 2
		for _, e := range x {
			n += sizeOf(e) + 1
		}
		return n
	case map[string]any:
		n := 2
		for k, e := range x {
			n += len(k) + 3 + sizeOf(e) + 1
		}
		return n
	default:
		return 8
	}
}
