package rel

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewBool(rng.Intn(2) == 1)
	case 2:
		return NewInt(rng.Int63n(1<<40) - (1 << 39))
	case 3:
		return NewFloat((rng.Float64() - 0.5) * 1e6)
	default:
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(128)) // includes 0x00 sometimes
		}
		return NewString(string(b))
	}
}

// Property: for single components, encoded byte order agrees with Compare
// (within float64 precision for integers, which all test ints respect).
func TestEncodingOrderAgreesWithCompare(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			a, b := randValue(rng), randValue(rng)
			ea, eb := EncodeKey([]Value{a}), EncodeKey([]Value{b})
			c := Compare(a, b)
			ec := strings.Compare(ea, eb)
			if (c < 0) != (ec < 0) || (c > 0) != (ec > 0) {
				t.Logf("a=%v b=%v Compare=%d encoded=%d", a, b, c, ec)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: composite keys order lexicographically by component.
func TestCompositeEncodingOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			a := []Value{randValue(rng), randValue(rng)}
			b := []Value{randValue(rng), randValue(rng)}
			want := Compare(a[0], b[0])
			if want == 0 {
				want = Compare(a[1], b[1])
			}
			got := strings.Compare(EncodeKey(a), EncodeKey(b))
			if (want < 0) != (got < 0) || (want > 0) != (got > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: component encodings are prefix-free across distinct values,
// so prefix probes cannot mistake a longer component for a shorter one.
func TestEncodingPrefixFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			a, b := randValue(rng), randValue(rng)
			if Compare(a, b) == 0 {
				continue
			}
			ea, eb := EncodeKey([]Value{a}), EncodeKey([]Value{b})
			if strings.HasPrefix(ea, eb) || strings.HasPrefix(eb, ea) {
				t.Logf("a=%v b=%v encodings prefix each other", a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringEscaping(t *testing.T) {
	// Embedded NULs must not break component boundaries or ordering.
	a := NewString("a")
	b := NewString("a\x00b")
	c := NewString("ab")
	ea := EncodeKey([]Value{a})
	eb := EncodeKey([]Value{b})
	ec := EncodeKey([]Value{c})
	if !(ea < eb && eb < ec) {
		t.Fatalf("escaping broke order: %q %q %q", ea, eb, ec)
	}
	// Two-component key with a NUL-bearing first component must differ
	// from the concatenation ambiguity case.
	k1 := EncodeKey([]Value{NewString("a"), NewString("b")})
	k2 := EncodeKey([]Value{NewString("a\x00b")})
	if k1 == k2 {
		t.Fatal("component boundary ambiguity")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for _, rid := range []RowID{0, 1, 12345, 1 << 40} {
		entry := string(appendRID(appendEncodedKey(nil, []Value{NewInt(7), NewString("knows")}), rid))
		if got := decodeRID(entry); got != rid {
			t.Fatalf("rid round trip: %d -> %d", rid, got)
		}
		prefix := []byte(EncodeKey([]Value{NewInt(7)}))
		if !entryHasKeyPrefix(entry, prefix) {
			t.Fatal("prefix probe missed matching entry")
		}
		if entryHasKeyPrefix(entry, []byte(EncodeKey([]Value{NewInt(8)}))) {
			t.Fatal("prefix probe matched wrong key")
		}
	}
}

func TestIntFloatKeyMerge(t *testing.T) {
	// Compare treats numerically equal int/float as equal; the encoding
	// must agree so index probes find them.
	if EncodeKey([]Value{NewInt(5)}) != EncodeKey([]Value{NewFloat(5.0)}) {
		t.Fatal("int 5 and float 5.0 must encode identically")
	}
	if EncodeKey([]Value{NewInt(-3)}) != EncodeKey([]Value{NewFloat(-3.0)}) {
		t.Fatal("negative merge broken")
	}
	if EncodeKey([]Value{NewInt(5)}) == EncodeKey([]Value{NewFloat(5.5)}) {
		t.Fatal("distinct numerics must encode differently")
	}
}

func TestNegativeNumberOrdering(t *testing.T) {
	vals := []Value{NewFloat(-1e9), NewInt(-5), NewFloat(-0.5), NewInt(0), NewFloat(0.5), NewInt(5), NewFloat(1e9)}
	for i := 1; i < len(vals); i++ {
		a := EncodeKey([]Value{vals[i-1]})
		b := EncodeKey([]Value{vals[i]})
		if !(a < b) {
			t.Fatalf("%v should encode below %v", vals[i-1], vals[i])
		}
	}
}

func TestListEncoding(t *testing.T) {
	a := NewList([]Value{NewInt(1), NewInt(2)})
	b := NewList([]Value{NewInt(1), NewInt(3)})
	c := NewList([]Value{NewInt(1)})
	ea, eb, ec := EncodeKey([]Value{a}), EncodeKey([]Value{b}), EncodeKey([]Value{c})
	if !(ea < eb) {
		t.Fatal("list element order broken")
	}
	if !(ec < ea) {
		t.Fatal("shorter list should encode below its extension")
	}
}
