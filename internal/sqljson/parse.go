package sqljson

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Parse decodes a JSON object, or null as an empty document.
// encoding/json checks the text first, so Parse accepts exactly what
// json.Unmarshal into a map accepts; text after the object is an error.
// The walk that follows reads known-good text and puts the top-level
// fields straight into the document. A key given twice keeps its last
// value, and numbers become the values a UseNumber decode normalizes to.
func Parse(s string) (*Doc, error) {
	w := walker{s: s}
	var first byte
	if json.Valid([]byte(s)) {
		first = w.next()
	}
	switch first {
	case 'n':
		return &Doc{}, nil
	case '{':
	default: // not valid, or not an object: let encoding/json say why
		return nil, fmt.Errorf("sqljson: parse: %w", json.Unmarshal([]byte(s), new(struct{})))
	}
	d := &Doc{}
	var few [16]field
	fields := few[:0]
	for w.i++; w.next() != '}'; {
		k := w.str()
		fields = append(fields, field{intern(k), w.value()})
	}
	if fields = sortFields(fields); len(fields) > 0 {
		d.fields = slices.Clone(fields)
	}
	return d, nil
}

// sortFields orders parsed fields by key. Of a key given twice the later
// value wins, as it does in encoding/json's map.
func sortFields(fs []field) []field {
	for i := 1; i < len(fs); i++ {
		if byKey(fs[i-1], fs[i]) >= 0 {
			slices.SortStableFunc(fs, byKey)
			out := fs[:0]
			for j, f := range fs {
				if j+1 < len(fs) && fs[j+1].key == f.key {
					continue
				}
				out = append(out, f)
			}
			return out
		}
	}
	return fs
}

// walker reads text json.Valid has accepted, so it checks nothing.
type walker struct {
	s string
	i int
}

// next moves past whitespace and the separators ',' and ':', which stand
// only where the grammar puts them, and returns the byte it stops at.
func (w *walker) next() byte {
	for ; ; w.i++ {
		switch c := w.s[w.i]; c {
		case ' ', '\t', '\n', '\r', ',', ':':
		default:
			return c
		}
	}
}

func (w *walker) value() any {
	switch w.next() {
	case '"':
		return strings.Clone(w.str())
	case '{', '[':
		// Nested values keep encoding/json's form; they are rare.
		dec := json.NewDecoder(strings.NewReader(w.s[w.i:]))
		dec.UseNumber()
		var v any
		_ = dec.Decode(&v) // cannot fail: the text is valid
		w.i += int(dec.InputOffset())
		v, _ = normalize(v) // a number beyond float64 is kept as ±Inf, as at the top level
		return v
	case 't':
		w.i += len("true")
		return true
	case 'f':
		w.i += len("false")
		return false
	case 'n':
		w.i += len("null")
		return nil
	}
	start := w.i
	for strings.IndexByte("+-.0123456789Ee", w.s[w.i]) >= 0 {
		w.i++
	}
	return number(w.s[start:w.i])
}

// number is a JSON number as json.Number gives it: an int64 when it parses
// as one, otherwise its nearest float64 (±Inf beyond the range).
func number(text string) any {
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		return n
	}
	f, _ := strconv.ParseFloat(text, 64)
	return f
}

// str reads the string literal at w.i. One without escapes whose bytes are
// valid UTF-8 is a slice of the input; encoding/json decodes any other
// (invalid UTF-8 and lone surrogates become U+FFFD).
func (w *walker) str() string {
	start, plain := w.i, true
	for w.i++; w.s[w.i] != '"'; w.i++ {
		if w.s[w.i] == '\\' {
			plain = false
			w.i++
		}
	}
	w.i++
	lit := w.s[start:w.i]
	if plain && utf8.ValidString(lit) {
		return lit[1 : len(lit)-1]
	}
	var out string
	_ = json.Unmarshal([]byte(lit), &out) // cannot fail: the literal is valid
	return out
}
