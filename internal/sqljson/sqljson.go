// Package sqljson implements the JSON document support the SQLGraph schema
// relies on: the VA and EA tables store vertex and edge attributes in a
// JSON column, and queries reach into those documents with the JSON_VAL
// SQL function (paper Figures 5 and 7).
//
// Documents are parsed once and kept structured, so repeated JSON_VAL
// calls during query evaluation do not re-parse the text. Numbers are kept
// as int64 when they are integral, otherwise float64, mirroring the
// numeric casting behavior the paper's micro-benchmark (Table 2) exercises.
package sqljson

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Doc is a parsed JSON object. The zero value is an empty document.
type Doc struct {
	m map[string]any
}

// New returns an empty document.
func New() *Doc { return &Doc{m: map[string]any{}} }

// FromMap builds a document from a Go map. Values must be nil, bool,
// int/int64, float64, string, []any, map[string]any, or nested *Doc.
func FromMap(m map[string]any) *Doc {
	d := New()
	for k, v := range m {
		d.Set(k, v)
	}
	return d
}

// Parse decodes a JSON object.
func Parse(s string) (*Doc, error) {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("sqljson: parse: %w", err)
	}
	return &Doc{m: normalizeMap(raw)}, nil
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
		if i, err := x.Int64(); err == nil {
			return i
		}
		f, _ := x.Float64()
		return f
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
		return x.m
	default:
		return v
	}
}

// Len reports the number of top-level keys.
func (d *Doc) Len() int {
	if d == nil {
		return 0
	}
	return len(d.m)
}

// Keys returns the top-level keys in sorted order.
func (d *Doc) Keys() []string {
	if d == nil {
		return nil
	}
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Set stores v (normalized) under key.
func (d *Doc) Set(key string, v any) {
	if d.m == nil {
		d.m = map[string]any{}
	}
	d.m[key] = normalize(v)
}

// Delete removes key and reports whether it was present.
func (d *Doc) Delete(key string) bool {
	if d == nil || d.m == nil {
		return false
	}
	_, ok := d.m[key]
	delete(d.m, key)
	return ok
}

// Has reports whether the top-level key exists.
func (d *Doc) Has(key string) bool {
	if d == nil {
		return false
	}
	_, ok := d.m[key]
	return ok
}

// Get returns the value at the top-level key.
func (d *Doc) Get(key string) (any, bool) {
	if d == nil {
		return nil, false
	}
	v, ok := d.m[key]
	return v, ok
}

// ErrNoValue is returned by Val for paths that do not resolve.
var ErrNoValue = errors.New("sqljson: path has no value")

// Val resolves a JSON_VAL-style path: dot-separated keys, with [i]
// suffixes for array elements ("a.b[2].c"). It returns ErrNoValue when any
// step is missing.
func (d *Doc) Val(path string) (any, error) {
	return d.ValPath(CompilePath(path))
}

// Path is a parsed JSON_VAL path. A query applies one constant path to
// every row it examines; compiling it once keeps the split off that loop.
type Path []pathStep

type pathStep struct {
	key   string
	index int // -1 when absent
}

// CompilePath parses a JSON_VAL-style path (see Val).
func CompilePath(path string) Path {
	if !strings.ContainsAny(path, ".[") {
		return Path{{key: path, index: -1}}
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
		steps = append(steps, pathStep{key: part, index: idx})
	}
	return steps
}

// ValPath is Val for a compiled path.
func (d *Doc) ValPath(path Path) (any, error) {
	if d == nil {
		return nil, ErrNoValue
	}
	var cur any = d.m
	for _, step := range path {
		if step.key != "" {
			m, ok := cur.(map[string]any)
			if !ok {
				return nil, ErrNoValue
			}
			cur, ok = m[step.key]
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
	if d == nil {
		return map[string]any{}
	}
	return cloneMap(d.mOrEmpty())
}

// Clone returns a deep copy of the document.
func (d *Doc) Clone() *Doc {
	if d == nil {
		return New()
	}
	return &Doc{m: cloneMap(d.m)}
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
// nothing for documents of plain scalars and short key sets.
func (d *Doc) AppendJSON(b []byte) []byte {
	return appendJSON(b, d.mOrEmpty())
}

func (d *Doc) mOrEmpty() map[string]any {
	if d == nil || d.m == nil {
		return map[string]any{}
	}
	return d.m
}

// MarshalJSON implements json.Marshaler with sorted keys.
func (d *Doc) MarshalJSON() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Doc) UnmarshalJSON(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	d.m = parsed.m
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
	return sizeOf(d.mOrEmpty())
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
