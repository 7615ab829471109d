package sqljson

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Parse decodes a JSON object, or null as an empty document.
// encoding/json checks the text first, so Parse accepts what json.Unmarshal
// into a map accepts, save text holding a number beyond the float64 range,
// which has no float64 to hold (Build refuses one too), even where a
// later value of its key replaces it; text after the object is an error. The walk that follows reads known-good text straight into a
// record. A key given twice keeps its last value, and a number is an
// int64 when it parses as one and a float64 otherwise, as a UseNumber
// decode's json.Number reads.
func Parse(s string) (Doc, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.out = e.out[:0]
	if err := e.parse(s); err != nil {
		return Doc{}, err
	}
	return Doc{rec: string(e.out)}, nil
}

var errRange = errors.New("number out of the float64 range")

// parse reads the document s into a record appended to out.
func (e *encoder) parse(s string) error {
	w := walker{s: s}
	var first byte
	if json.Valid([]byte(s)) {
		first = w.next()
	}
	switch first {
	case 'n':
		return nil
	case '{':
	default: // not valid, or not an object: let encoding/json say why
		return fmt.Errorf("sqljson: parse: %w", json.Unmarshal([]byte(s), new(struct{})))
	}
	mark := len(e.ms)
	if err := e.walkObject(&w); err != nil {
		e.pop(mark)
		return fmt.Errorf("sqljson: parse: %w", err)
	}
	return nil
}

// walkObject reads the object at w into a record appended to out.
func (e *encoder) walkObject(w *walker) error {
	mark := len(e.ms)
	for w.i++; w.next() != '}'; {
		m := member{key: w.str()}
		if err := e.walkValue(w, &m); err != nil {
			return err
		}
		e.ms = append(e.ms, m)
	}
	w.i++
	e.endObject(mark)
	return nil
}

// walkValue reads the value at w into m.
func (e *encoder) walkValue(w *walker, m *member) error {
	switch w.next() {
	case '"':
		m.kind, m.s = KindString, w.str()
		return nil
	case '{':
		start := len(e.out)
		if err := e.walkObject(w); err != nil {
			return err
		}
		e.nested(m, KindObject, start)
		return nil
	case '[':
		start, mark := len(e.out), len(e.ms)
		for w.i++; w.next() != ']'; {
			var el member
			if err := e.walkValue(w, &el); err != nil {
				return err
			}
			e.ms = append(e.ms, el)
		}
		w.i++
		e.endArray(mark)
		e.nested(m, KindArray, start)
		return nil
	case 't':
		w.i += len("true")
		m.kind, m.bits = KindBool, 1
		return nil
	case 'f':
		w.i += len("false")
		m.kind = KindBool
		return nil
	case 'n':
		w.i += len("null")
		m.kind = KindNull
		return nil
	}
	start := w.i
	for w.i < len(w.s) && isNumberByte(w.s[w.i]) {
		w.i++
	}
	text := w.s[start:w.i]
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		m.kind, m.bits = KindInt, uint64(n)
		return nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return fmt.Errorf("%w: %s", errRange, text)
	}
	m.kind, m.bits = KindFloat, math.Float64bits(f)
	return nil
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
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
