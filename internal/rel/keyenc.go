package rel

import (
	"encoding/binary"
	"math"
)

// Order-preserving key encoding: composite index keys are encoded into
// byte strings whose memcmp order agrees with Compare over the component
// values. Each index entry is one string, so it holds one pointer for
// the collector to follow (to pointer-free bytes) where a []Value key held
// one per component plus the slice's, and key comparison is memcmp — both
// dominated write-heavy profiles when keys were []Value slices.
//
// Layout per component: a kind tag establishing the cross-kind order of
// Compare, then a payload. Integers and floats share the numeric tag
// (Compare treats them as one numeric domain); integers beyond 2^53 may
// collide with neighbors under the float64 transform, which is why index
// probes are always re-verified against the actual row values by their
// callers.
const (
	tagNull   byte = 0x00
	tagBool   byte = 0x01
	tagNumber byte = 0x02
	tagString byte = 0x03
	tagJSON   byte = 0x04
	tagList   byte = 0x05
)

// appendEncodedValue appends one component.
func appendEncodedValue(b []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(b, tagNull)
	case KindBool:
		if v.n != 0 {
			return append(b, tagBool, 1)
		}
		return append(b, tagBool, 0)
	case KindInt, KindFloat:
		f := v.Float()
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything
		} else {
			bits |= 1 << 63 // positive: set sign so it sorts above negatives
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(append(b, tagNumber), buf[:]...)
	case KindString:
		return appendEscaped(append(b, tagString), v.str())
	case KindJSON:
		return appendEscaped(append(b, tagJSON), v.JSON().String())
	case KindList:
		b = append(b, tagList)
		for _, e := range v.List() {
			b = appendEncodedValue(b, e)
		}
		// Terminator 0x00 sorts below every element tag, so a list orders
		// below its own extensions — matching Compare's shorter-first
		// rule. (It coincides with a NULL element's tag; the resulting
		// prefix overlap only widens probe candidate sets, which callers
		// re-verify.)
		return append(b, 0x00)
	default:
		return append(b, tagNull)
	}
}

// appendEscaped writes a length-unbounded string component: 0x00 bytes
// are escaped as 0x00 0x01 and the component ends with 0x00 0x00, which
// sorts below any continuation — preserving prefix order.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			b = append(b, 0x00, 0x01)
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, 0x00, 0x00)
}

// keyBufLen sizes the stack buffers probes encode keys into. It covers
// the integer-id and short-label keys every graph table is indexed on;
// a longer key just makes append spill to the heap.
const keyBufLen = 64

// ridLen is the length of the row-id uniquifier that ends every entry.
const ridLen = 8

// appendEncodedKey appends every component of a composite key.
func appendEncodedKey(b []byte, vals []Value) []byte {
	for _, v := range vals {
		b = appendEncodedValue(b, v)
	}
	return b
}

// appendRID appends the row-id uniquifier, sign-flipped for order.
func appendRID(b []byte, rid RowID) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(rid)+(1<<63))
}

// EncodeKey encodes a composite key.
func EncodeKey(vals []Value) string {
	return string(appendEncodedKey(make([]byte, 0, 16*len(vals)), vals))
}

// decodeRID extracts the row id from an entry's trailing 8 bytes.
func decodeRID(entry string) RowID {
	var u uint64
	for i := len(entry) - ridLen; i < len(entry); i++ {
		u = u<<8 | uint64(entry[i])
	}
	return RowID(u - (1 << 63))
}

// entryHasKeyPrefix reports whether the entry's component area starts
// with the encoded prefix (component encodings are self-delimiting, so a
// byte prefix match is a component prefix match).
func entryHasKeyPrefix(entry string, prefix []byte) bool {
	return len(entry) >= len(prefix)+ridLen && entry[:len(prefix)] == string(prefix)
}
