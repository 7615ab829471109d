package expr

import (
	"strings"
	"testing"

	"sqlgraph/internal/rel"
)

// mapEnv is a test Env: props from a map, fixed id/loops.
type mapEnv struct {
	props map[string]any
	id    int64
	loops int64
}

func (m mapEnv) Prop(name string) rel.Value {
	if v, ok := m.props[name]; ok {
		return rel.FromAny(v)
	}
	return rel.Null
}
func (m mapEnv) ID() rel.Value    { return rel.NewInt(m.id) }
func (m mapEnv) Loops() rel.Value { return rel.NewInt(m.loops) }
func (m mapEnv) Self() rel.Value  { return rel.NewInt(m.id) }

var env = mapEnv{
	props: map[string]any{"k": int64(3), "w": 0.5, "name": "marko", "flag": true},
	id:    7,
	loops: 2,
}

func eval(t *testing.T, src string) rel.Value {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(n, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalScalars(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"1 + 2", int64(3)},
		{"it.k * 2", int64(6)},
		{"it.k + 0.5", 3.5},
		{"7 / 2", int64(3)},
		{"7.0 / 2", 3.5},
		{"7 % 4", int64(3)},
		{"-it.k", int64(-3)},
		{"it.id", int64(7)},
		{"it", int64(7)},
		{"it.loops", int64(2)},
		{"it.k == 3", true},
		{"it.k != 3", false},
		{"it.k <= 2", false},
		{"it.w < 0.6", true},
		{"it.name == 'marko'", true},
		{"'a' < 'b'", true},
		{"it.k > 1 && it.w < 1.0", true},
		{"it.k > 5 || it.name == 'marko'", true},
		{"!(it.k == 3)", false},
		{"!false", true},
		{"it.name.contains('ark')", true},
		{"it.name.contains('z')", false},
		{"it.name.startsWith('mar')", true},
		{"it.name.startsWith('ar')", false},
		{"(it.k + 1) * 2", int64(8)},
		{"(1 < 2) == true", true},
	}
	for _, c := range cases {
		got := ToAny(eval(t, c.src))
		if got != c.want {
			t.Errorf("%q = %v (%T), want %v (%T)", c.src, got, got, c.want, c.want)
		}
	}
}

func TestEvalNullPropagation(t *testing.T) {
	// Missing property accesses are NULL; comparisons and arithmetic
	// propagate; && / || are three-valued.
	nulls := []string{
		"it.missing == 1",
		"it.missing + 1",
		"it.missing.contains('x')",
		"it.k.contains('x')", // non-string receiver
		"!it.missing",
		"-it.missing",
		"it.missing && true",
		"it.missing || false",
		// a zero divisor, whatever it was coerced from
		"it.k / 0", "it.k % 0", "it.k / (it.k - 3)", "it.w / 0.0", "it.k % 0.5", "it.k / it.name", "it.k / it.missing",
	}
	for _, src := range nulls {
		if v := eval(t, src); !v.IsNull() {
			t.Errorf("%q = %v, want NULL", src, v)
		}
	}
	// Short-circuit dominates NULL, matching 3VL.
	if v := eval(t, "it.missing && false"); v.IsNull() || v.Truthy() {
		t.Errorf("NULL && false = %v, want false", v)
	}
	if v := eval(t, "it.missing || true"); v.IsNull() || !v.Truthy() {
		t.Errorf("NULL || true = %v, want true", v)
	}
}

func TestEvalErrors(t *testing.T) {
	for _, src := range []string{"-it.name", "-(it.k == 3)"} {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Eval(n, env); err == nil {
			t.Errorf("eval %q: want error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "   ", "it.k ==", "(it.k", "it.k == 1)", "1 ++", "it..k",
		"it.k == == 2", "'unterminated", "@", "foo", "it.name.reverse()",
		"1 == 2 == 3", // comparisons are non-associative
		"it.k.contains", "!",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

// TestStringFixedPoint: rendering is a canonical form — Parse(String(n))
// succeeds and renders identically.
func TestStringFixedPoint(t *testing.T) {
	srcs := []string{
		"it.k + 1",
		"(it.k + 1) * 2 > it.b % 3",
		"it.name.contains('ar') || !(it.k < 2)",
		"it.k > 1 && it.k < 4 || it.flag",
		"it.k - (1 - 2)",
		"-(it.k + 1)",
		"1 - -5",
		"(1 < 2) == true",
		"('ab' + '') .startsWith('a')",
		"it.w == 0.5",
		"100000000000000000000.0 > 1.0",
		"!(it.a && it.b)",
	}
	for _, src := range srcs {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		r1 := n.String()
		n2, err := Parse(r1)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", r1, src, err)
		}
		if r2 := n2.String(); r2 != r1 {
			t.Errorf("not a fixed point: %q -> %q -> %q", src, r1, r2)
		}
		// No exponent notation may ever appear (the lexer can't read it).
		if strings.Contains(r1, "e+") || strings.Contains(r1, "e-") {
			t.Errorf("rendering %q contains exponent notation: %q", src, r1)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.5:   "0.5",
		1:     "1.0",
		1e20:  "100000000000000000000.0",
		-2.25: "-2.25",
	}
	for f, want := range cases {
		if got := FormatFloat(f); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestLoopsHelpers(t *testing.T) {
	n, err := Parse("it.loops < 3 && it.loops != 2")
	if err != nil {
		t.Fatal(err)
	}
	if !UsesLoops(n) || !OnlyLoops(n) {
		t.Errorf("loop closure misclassified: uses=%v only=%v", UsesLoops(n), OnlyLoops(n))
	}
	n2, _ := Parse("it.k < 3")
	if UsesLoops(n2) {
		t.Error("it.k flagged as loops")
	}
	n3, _ := Parse("it.loops < it.k")
	if OnlyLoops(n3) {
		t.Error("mixed closure flagged as loops-only")
	}
}
