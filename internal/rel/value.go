// Package rel implements the relational storage substrate SQLGraph runs
// on: typed values, tables, ordered (B-tree) and hashed indexes, a catalog,
// and transactional
// multi-table updates with table-granularity locking. The SQL front-end
// (internal/sql) and executor (internal/engine) sit on top of it.
package rel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"sqlgraph/internal/sqljson"
)

// Kind enumerates the dynamic types a column value can hold. The SQLGraph
// schema needs integers (vertex/edge ids), strings (labels), JSON
// documents (VA/EA attribute columns) and lists (traversal paths tracked
// by the path-pipe translation).
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindJSON
	KindList
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindJSON:
		return "JSON"
	case KindList:
		return "LIST"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is SQL NULL.
//
// A Value is three words, so an 8-column row spans three cache lines and
// a compiled expression returns three words (DESIGN §19):
//
//	p     string bytes (string), the document's record (JSON),
//	      first element (list)
//	n     int64 bits (int, bool: 0 or 1), float64 bits (float),
//	      byte count (string, JSON), element count (list)
//	kind  which of the above applies
//
// p is the only pointer, so the collector scans one word per value, and
// a document's record holds none. A string, record or list payload is
// shared, not copied, when wrapped and must not be modified afterwards.
//
// Value is not comparable: == would compare string and list addresses,
// not contents. Use Equal or Compare, and Key for a map key.
type Value struct {
	_    [0]func()
	p    unsafe.Pointer
	n    uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.n = 1
	}
	return v
}

// NewInt returns a BIGINT value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a DOUBLE value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a VARCHAR value. It shares s's bytes.
func NewString(s string) Value {
	return Value{kind: KindString, p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// NewJSON returns a JSON value holding doc's record (doc may be nil: an
// empty document). It shares the record, which is immutable.
func NewJSON(doc *sqljson.Doc) Value {
	if doc == nil {
		return Value{kind: KindJSON}
	}
	rec := doc.Record()
	return Value{kind: KindJSON, p: unsafe.Pointer(unsafe.StringData(rec)), n: uint64(len(rec))}
}

// NewList returns a LIST value. The slice is not copied, and the caller
// must not modify its elements afterwards.
func NewList(vals []Value) Value {
	return Value{kind: KindList, p: unsafe.Pointer(unsafe.SliceData(vals)), n: uint64(len(vals))}
}

// FromAny converts a Go value (as produced by sqljson or user input) to a
// Value.
func FromAny(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null
	case bool:
		return NewBool(x)
	case int:
		return NewInt(int64(x))
	case int32:
		return NewInt(int64(x))
	case int64:
		return NewInt(x)
	case float32:
		return NewFloat(float64(x))
	case float64:
		return NewFloat(x)
	case string:
		return NewString(x)
	case *sqljson.Doc:
		return NewJSON(x)
	case sqljson.Doc:
		return NewJSON(&x)
	case Value:
		return x
	case []Value:
		return NewList(x)
	case []any:
		out := make([]Value, len(x))
		for i, e := range x {
			out[i] = FromAny(e)
		}
		return NewList(out)
	default:
		return NewString(fmt.Sprint(x))
	}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload (false for non-bool values).
func (v Value) Bool() bool { return v.kind == KindBool && v.n != 0 }

// Int returns the integer payload, converting floats by truncation.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return int64(v.n)
	case KindFloat:
		return int64(math.Float64frombits(v.n))
	case KindString:
		i, _ := strconv.ParseInt(v.str(), 10, 64)
		return i
	default:
		return 0
	}
}

// Float returns the floating-point payload, converting integers.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n)
	case KindInt, KindBool:
		return float64(int64(v.n))
	case KindString:
		f, _ := strconv.ParseFloat(v.str(), 64)
		return f
	default:
		return 0
	}
}

// Str returns the string payload (empty for non-strings; use String for a
// rendered form of any value).
func (v Value) Str() string {
	if v.kind == KindString {
		return v.str()
	}
	return ""
}

// JSON returns the JSON document payload, sharing its record, or the
// empty document for non-JSON values.
func (v Value) JSON() sqljson.Doc {
	if v.kind != KindJSON {
		return sqljson.Doc{}
	}
	return sqljson.FromRecord(unsafe.String((*byte)(v.p), v.n))
}

// List returns the list payload (never nil for a list), or nil. Its
// capacity equals its length, so appending to it copies.
func (v Value) List() []Value {
	if v.kind != KindList {
		return nil
	}
	if v.n == 0 {
		return []Value{}
	}
	return unsafe.Slice((*Value)(v.p), v.n)
}

// str reads the string payload of a KindString value.
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.n) }

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindJSON:
		return v.JSON().String()
	case KindList:
		list := v.List()
		parts := make([]string, len(list))
		for i, e := range list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "?"
	}
}

// numeric reports whether the value participates in numeric comparison.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values. NULL sorts first; values of different,
// non-numeric kinds order by kind; int and float compare numerically.
// The total order makes values usable as B-tree index keys.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			ai, bi := int64(a.n), int64(b.n)
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	switch a.kind {
	case KindBool:
		return int(int64(a.n) - int64(b.n))
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindJSON:
		return strings.Compare(a.JSON().String(), b.JSON().String())
	case KindList:
		al, bl := a.List(), b.List()
		n := len(al)
		if len(bl) < n {
			n = len(bl)
		}
		for i := 0; i < n; i++ {
			if c := Compare(al[i], bl[i]); c != 0 {
				return c
			}
		}
		return len(al) - len(bl)
	default:
		return 0
	}
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key returns a canonical string for use as a hash-map key (DISTINCT,
// GROUP BY, hash joins). Distinct values produce distinct keys; int and
// float encodings collide exactly when Compare says they are equal.
func (v Value) Key() string {
	if v.kind == KindString {
		return "\x03" + v.str() // one allocation at any length
	}
	var b [32]byte
	return string(v.AppendKey(b[:0]))
}

// AppendKey appends v.Key() to b: a caller that only hashes the key
// builds it in a buffer of its own and allocates nothing. b must not
// reach a call the compiler cannot see through (a document's recursive
// AppendJSON is one), or every caller's buffer moves to the heap.
func (v Value) AppendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, 0)
	case KindBool:
		if v.n != 0 {
			return append(b, "\x01t"...)
		}
		return append(b, "\x01f"...)
	case KindInt:
		return strconv.AppendInt(append(b, "\x02i"...), int64(v.n), 10)
	case KindFloat:
		// Integral floats share their key with the equivalent int so that
		// DISTINCT and hash joins agree with Compare on numeric equality.
		f := v.Float()
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return strconv.AppendInt(append(b, "\x02i"...), int64(f), 10)
		}
		return strconv.AppendFloat(append(b, "\x02f"...), f, 'g', -1, 64)
	case KindString:
		return append(append(b, 3), v.str()...)
	case KindJSON:
		return append(append(b, 4), v.JSON().String()...)
	case KindList:
		b = append(b, 5)
		for _, e := range v.List() {
			k := e.Key()
			b = append(strconv.AppendInt(b, int64(len(k)), 10), ':')
			b = append(b, k...)
		}
		return b
	default:
		return append(b, '?')
	}
}

// Size approximates the value's serialized storage footprint in bytes.
func (v Value) Size() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 1
	case KindInt:
		return 8
	case KindFloat:
		return 8
	case KindString:
		return int(v.n) + 4
	case KindJSON:
		return v.JSON().Size() + 4
	case KindList:
		n := 4
		for _, e := range v.List() {
			n += e.Size()
		}
		return n
	default:
		return 0
	}
}

// Truthy converts the value to a SQL condition result: NULL and false are
// false, non-zero numbers and "true" strings are true.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.n != 0
	case KindFloat:
		return v.Float() != 0
	case KindString:
		return v.str() == "true"
	default:
		return false
	}
}
