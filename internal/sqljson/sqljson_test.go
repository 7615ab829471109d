package sqljson

import (
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseAndVal(t *testing.T) {
	d, err := Parse(`{"name":"marko","age":29,"langs":["java","groovy"],"addr":{"city":"x","zip":[1,2]}}`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path string
		want any
	}{
		{"name", "marko"},
		{"age", int64(29)},
		{"langs[0]", "java"},
		{"langs[1]", "groovy"},
		{"addr.city", "x"},
		{"addr.zip[1]", int64(2)},
	}
	for _, c := range cases {
		got, err := d.Val(c.path)
		if err != nil {
			t.Fatalf("Val(%q): %v", c.path, err)
		}
		if got != c.want {
			t.Fatalf("Val(%q) = %v (%T), want %v (%T)", c.path, got, got, c.want, c.want)
		}
	}
	for _, p := range []string{"missing", "addr.state", "langs[5]", "name.sub", "addr.zip[1].x"} {
		if _, err := d.Val(p); err != ErrNoValue {
			t.Fatalf("Val(%q) err = %v, want ErrNoValue", p, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "[1,2]", "{", `{"a":}`} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestNumbersStayIntegral(t *testing.T) {
	d, err := Parse(`{"i":29,"f":2.5,"big":9007199254740993}`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Val("i"); v != int64(29) {
		t.Fatalf("i = %v (%T)", v, v)
	}
	if v, _ := d.Val("f"); v != 2.5 {
		t.Fatalf("f = %v (%T)", v, v)
	}
	if v, _ := d.Val("big"); v != int64(9007199254740993) {
		t.Fatalf("big = %v (%T)", v, v)
	}
}

func TestSetDeleteHas(t *testing.T) {
	d := New()
	d.Set("a", 1)
	d.Set("b", "two")
	d.Set("c", []any{1, "x"})
	if !d.Has("a") || !d.Has("b") || !d.Has("c") || d.Has("d") {
		t.Fatal("Has mismatch")
	}
	if v, _ := d.Val("a"); v != int64(1) {
		t.Fatalf("a = %v (%T), want int64(1)", v, v)
	}
	if !d.Delete("a") {
		t.Fatal("Delete(a) = false")
	}
	if d.Delete("a") {
		t.Fatal("second Delete(a) = true")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestStringCanonical(t *testing.T) {
	d := New()
	d.Set("b", 2)
	d.Set("a", "x")
	if got, want := d.String(), `{"a":"x","b":2}`; got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	src := `{"a":1,"b":[true,null,{"c":"d"}],"e":-2.25}`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != d2.String() {
		t.Fatalf("round trip mismatch: %s vs %s", d, d2)
	}
}

func TestClone(t *testing.T) {
	d, _ := Parse(`{"a":{"b":1},"c":[1,2]}`)
	cl := d.Clone()
	cl.Set("a", "changed")
	if v, _ := d.Val("a.b"); v != int64(1) {
		t.Fatal("Clone mutated original")
	}
	var nilDoc *Doc
	if nilDoc.Clone().Len() != 0 {
		t.Fatal("Clone of nil doc not empty")
	}
}

func TestNilDocSafe(t *testing.T) {
	var d *Doc
	if d.Len() != 0 || d.Has("x") || d.Keys() != nil {
		t.Fatal("nil doc accessors not safe")
	}
	if _, err := d.Val("x"); err != ErrNoValue {
		t.Fatal("nil doc Val should be ErrNoValue")
	}
}

func TestMarshalerInterface(t *testing.T) {
	d := New()
	d.Set("k", "v")
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var d2 Doc
	if err := json.Unmarshal(b, &d2); err != nil {
		t.Fatal(err)
	}
	if v, _ := d2.Val("k"); v != "v" {
		t.Fatalf("unmarshal got %v", v)
	}
}

func TestKeysSorted(t *testing.T) {
	d := New()
	for _, k := range []string{"zeta", "alpha", "mid"} {
		d.Set(k, 1)
	}
	keys := d.Keys()
	if len(keys) != 3 || keys[0] != "alpha" || keys[1] != "mid" || keys[2] != "zeta" {
		t.Fatalf("Keys = %v", keys)
	}
}

// Property: any doc built from string keys/values survives a
// serialize/parse round trip with identical canonical form.
func TestQuickRoundTrip(t *testing.T) {
	f := func(keys []string, vals []int64) bool {
		d := New()
		for i, k := range keys {
			if i < len(vals) {
				d.Set(k, vals[i])
			} else {
				d.Set(k, "s")
			}
		}
		parsed, err := Parse(d.String())
		if err != nil {
			return false
		}
		return parsed.String() == d.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizePositiveAndMonotone(t *testing.T) {
	d := New()
	base := d.Size()
	d.Set("key", "value")
	if d.Size() <= base {
		t.Fatalf("Size did not grow: %d -> %d", base, d.Size())
	}
	d.Set("n", int64(-1234))
	d.Set("f", 1.5)
	d.Set("arr", []any{1, 2, 3})
	d.Set("b", true)
	if d.Size() <= 0 {
		t.Fatal("Size must stay positive")
	}
}

// AppendJSON copies plain strings and sorts small key sets on the stack;
// both shortcuts must render exactly what encoding/json does, which is
// what the WAL and snapshot files already hold.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	many := map[string]any{}
	for i := 0; i < 20; i++ { // more keys than the stack array holds
		many[fmt.Sprintf("k%02d", 19-i)] = int64(i)
	}
	for _, m := range []map[string]any{
		{},
		{"plain": "ascii only", "n": int64(-7), "ok": true, "none": nil},
		{"quote\"key": "back\\slash", "html": "<a href='x'>&</a>", "ctl": "tab\there\n", "del": "\x7f"},
		{"utf8": "héllo — 世界", "bad": "\xff\xfe", "sep": "\u2028"},
		{"nested": map[string]any{"b": []any{int64(1), "two", map[string]any{"z": "<", "a": ""}}, "a": "x"}},
		many,
	} {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		d := FromMap(m)
		prefix := []byte("keep:")
		if got := d.AppendJSON(prefix); string(got) != "keep:"+string(want) {
			t.Errorf("AppendJSON = %s\nencoding/json = %s", got[len("keep:"):], want)
		}
		if got := d.String(); got != string(want) {
			t.Errorf("String = %s\nencoding/json = %s", got, want)
		}
	}
}
