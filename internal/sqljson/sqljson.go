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
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
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

// FromMap builds a document from a Go map. Values must be nil, bool,
// int/int64, float64, string, []any, map[string]any, or nested *Doc.
func FromMap(m map[string]any) *Doc {
	d := &Doc{fields: make([]field, 0, len(m))}
	for k, v := range m {
		d.fields = append(d.fields, field{intern(k), normalize(v)})
	}
	slices.SortFunc(d.fields, byKey)
	return d
}

func normalizeMap(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = normalize(v)
	}
	return out
}

func normalize(v any) any {
	switch x := v.(type) {
	case json.Number:
		return number(string(x))
	case int:
		return int64(x)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return int64(x)
		}
		return x
	case map[string]any:
		return normalizeMap(x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalize(e)
		}
		return out
	case *Doc:
		m := make(map[string]any, x.Len())
		for _, f := range x.fieldsOrNil() {
			m[f.key.Value()] = f.val
		}
		return m
	default:
		return v
	}
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

// Set stores v (normalized) under key.
func (d *Doc) Set(key string, v any) {
	v = normalize(v)
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
