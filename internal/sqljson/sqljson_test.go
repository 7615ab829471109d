package sqljson

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
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
// what the WAL and snapshot files already hold. Build holds each value as
// its JSON text reads back (held, when that differs from the map given)
// and refuses a value with no JSON form.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	many := map[string]any{}
	for i := 0; i < 20; i++ { // more keys than the stack array holds
		many[fmt.Sprintf("k%02d", 19-i)] = int64(i)
	}
	type named int16
	for _, c := range []struct {
		m, held map[string]any
		refused bool
	}{
		{m: map[string]any{}},
		{m: map[string]any{"plain": "ascii only", "n": int64(-7), "ok": true, "none": nil}},
		{m: map[string]any{"quote\"key": "back\\slash", "html": "<a href='x'>&</a>", "ctl": "tab\there\n", "del": "\x7f"}},
		{m: map[string]any{"utf8": "héllo — 世界", "sep": "\u2028"}},
		{m: map[string]any{"nested": map[string]any{"b": []any{int64(1), "two", map[string]any{"z": "<", "a": ""}}, "a": "x"}}},
		{m: many},
		{
			m:    map[string]any{"u8": uint8(7), "i32": int32(-3), "n": named(4), "f32": float32(0.1), "f": 2.0},
			held: map[string]any{"u8": int64(7), "i32": int64(-3), "n": int64(4), "f32": 0.1, "f": int64(2)},
		},
		{
			m:    map[string]any{"bad": "\xff\xfe", "k\xff": []any{"\xc3"}, "in": map[string]any{"\x80": int64(1)}},
			held: map[string]any{"bad": "\ufffd\ufffd", "k\ufffd": []any{"\ufffd"}, "in": map[string]any{"\ufffd": int64(1)}},
		},
		{
			m:    map[string]any{"strs": []string{"a"}, "ints": map[string]int{"a": 1}, "ptr": new(float32)},
			held: map[string]any{"strs": []any{"a"}, "ints": map[string]any{"a": int64(1)}, "ptr": int64(0)},
		},
		{m: map[string]any{"x": math.NaN()}, refused: true},
		{m: map[string]any{"x": math.Inf(1)}, refused: true},
		{m: map[string]any{"x": []any{int64(1), float32(math.Inf(-1))}}, refused: true},
		{m: map[string]any{"in": map[string]any{"x": math.NaN()}}, refused: true},
		{m: map[string]any{"c": make(chan int)}, refused: true},
		{m: map[string]any{"n": []any{json.Number("1e400")}}, refused: true},
	} {
		d, err := Build(c.m)
		if c.refused {
			if err == nil {
				t.Errorf("Build(%v) = %s, want an error", c.m, d)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Build(%v): %v", c.m, err)
		}
		held := c.held
		if held == nil {
			held = c.m
		}
		if !reflect.DeepEqual(d.Map(), held) {
			t.Errorf("Build(%v) holds %#v, want %#v", c.m, d.Map(), held)
		}
		want, err := json.Marshal(held)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("keep:")
		if got := d.AppendJSON(prefix); string(got) != "keep:"+string(want) {
			t.Errorf("AppendJSON = %s\nencoding/json = %s", got[len("keep:"):], want)
		}
		if got := d.String(); got != string(want) {
			t.Errorf("String = %s\nencoding/json = %s", got, want)
		}
		if got := FromMap(c.m).String(); got != string(want) {
			t.Errorf("FromMap renders %s, Build %s", got, want)
		}
	}
}

// refDoc is the layout documents had before they became sorted field
// slices: one map per document. Its rendering and size are what the WAL,
// the snapshot and stored_bytes_per_user_byte were built on, so the slice
// layout must reproduce both exactly.
type refDoc map[string]any

func (r refDoc) json() string { return string(appendJSON(nil, map[string]any(r))) }
func (r refDoc) size() int    { return sizeOf(map[string]any(r)) }

func sameAsRef(t *testing.T, what string, d *Doc, ref refDoc) {
	t.Helper()
	if got, want := d.String(), ref.json(); got != want {
		t.Fatalf("%s: AppendJSON\n got %s\nwant %s", what, got, want)
	}
	if got, want := d.Size(), ref.size(); got != want {
		t.Fatalf("%s: Size = %d, map layout %d (%s)", what, got, want, ref.json())
	}
	if d.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", what, d.Len(), len(ref))
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if got := d.Keys(); !slices.Equal(got, keys) {
		t.Fatalf("%s: Keys = %q, want %q", what, got, keys)
	}
	for _, k := range keys {
		if v, ok := d.Get(k); !ok || !reflect.DeepEqual(v, ref[k]) {
			t.Fatalf("%s: Get(%q) = %v, %v; want %v", what, k, v, ok, ref[k])
		}
	}
	if !reflect.DeepEqual(d.Map(), map[string]any(ref)) {
		t.Fatalf("%s: Map = %v, want %v", what, d.Map(), ref)
	}
}

var randKeys = []string{"a", "b", "name", "age", "k", "zz", "", "quote\"d", "ü", "A"}

func randValue(rng *rand.Rand, depth int) any {
	switch n := rng.Intn(10); {
	case n == 0:
		return nil
	case n == 1:
		return rng.Intn(2) == 0
	case n == 2:
		return rng.Int63n(1<<40) - 1<<39
	case n == 3:
		return int64(rng.Intn(300))
	case n == 4:
		return float64(rng.Intn(1000)) + 0.25
	case n == 5:
		return float64(rng.Intn(10)) // integral: FromMap and Set store an int64
	case n == 6 && depth > 0:
		arr := make([]any, rng.Intn(4))
		for i := range arr {
			arr[i] = randValue(rng, depth-1)
		}
		return arr
	case n == 7 && depth > 0:
		return map[string]any(randMap(rng, depth-1))
	default:
		return pick(rng, "x", "", "with space", "tab\there", "<&>", "héllo", "\xff", "quote\"", `back\slash`)
	}
}

func randMap(rng *rand.Rand, depth int) refDoc {
	m := refDoc{}
	for i := rng.Intn(6); i > 0; i-- {
		m[pick(rng, randKeys...)] = randValue(rng, depth)
	}
	return m
}

func pick(rng *rand.Rand, opts ...string) string { return opts[rng.Intn(len(opts))] }

// TestDocMatchesMapLayout builds random documents — nested values
// included — through every constructor and mutator and requires the
// rendering, size and reads of the one-map-per-document reference.
func TestDocMatchesMapLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		m := randMap(rng, 2)
		nm, err := normalizeMap(m)
		if err != nil {
			t.Fatal(err)
		}
		ref := refDoc(nm)
		d := FromMap(m)
		sameAsRef(t, "FromMap", d, ref)

		// Invalid UTF-8 reads back as U+FFFD, so the text's own decode is
		// the reference here.
		parsed, err := Parse(d.String())
		want, werr := refParse(d.String())
		if err != nil || werr != nil {
			t.Fatalf("Parse(%s): %v, encoding/json: %v", d, err, werr)
		}
		sameAsRef(t, "Parse", parsed, want)

		clone := d.Clone()
		for op := 0; op < 8; op++ {
			k := pick(rng, randKeys...)
			if rng.Intn(3) == 0 {
				_, had := ref[k]
				delete(ref, k)
				if got := d.Delete(k); got != had {
					t.Fatalf("Delete(%q) = %v, key present %v", k, got, had)
				}
			} else {
				v := randValue(rng, 1)
				ref[k], _ = normalize(v)
				d.Set(k, v)
			}
			sameAsRef(t, fmt.Sprintf("op %d", op), d, ref)
		}
		orig, _ := normalizeMap(m)
		sameAsRef(t, "Clone, after the original changed", clone, refDoc(orig))
	}
}

func TestParseDuplicatesNullAndEmpty(t *testing.T) {
	for src, want := range map[string]string{
		`{"b":1,"a":2,"b":3}`:            `{"a":2,"b":3}`,
		`{"a":1,"a":{"x":1,"x":[2]}}`:    `{"a":{"x":[2]}}`,
		`{"z":0,"y":0,"z":"last","y":1}`: `{"y":1,"z":"last"}`,
		`null`:                           `{}`,
		` {} `:                           `{}`,
	} {
		d, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%s): %v", src, err)
		}
		if d.String() != want {
			t.Errorf("Parse(%s) = %s, want %s", src, d, want)
		}
	}
}

// TestReadsAllocateNothing: JSON_VAL runs once per examined row, and the
// storage layer sizes every stored document.
func TestReadsAllocateNothing(t *testing.T) {
	d, err := Parse(`{"name":"marko","age":29,"langs":["java"],"addr":{"city":"x"},"w":0.5}`)
	if err != nil {
		t.Fatal(err)
	}
	name, city, missing := CompilePath("name"), CompilePath("addr.city"), CompilePath("nope")
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := d.ValPath(name); err != nil || v != "marko" {
			t.Fatal("ValPath(name)")
		}
		if v, err := d.ValPath(city); err != nil || v != "x" {
			t.Fatal("ValPath(addr.city)")
		}
		if _, err := d.ValPath(missing); err != ErrNoValue {
			t.Fatal("ValPath(nope)")
		}
		if v, err := d.Val("age"); err != nil || v != int64(29) {
			t.Fatal("Val(age)")
		}
		if !d.Has("w") || d.Has("x") || d.Len() != 5 || d.Size() == 0 {
			t.Fatal("Has/Len/Size")
		}
		if v, ok := d.Get("langs"); !ok || len(v.([]any)) != 1 {
			t.Fatal("Get(langs)")
		}
	})
	if allocs != 0 {
		t.Fatalf("reads allocate %.1f times per run, want 0", allocs)
	}
}

// TestPathsInternNothing: compiling a path only looks its keys up, so a
// query naming keys no document holds leaves the table alone, and a path
// compiled before any document holds its key still finds it afterwards.
func TestPathsInternNothing(t *testing.T) {
	size := func() int {
		syms.Lock()
		defer syms.Unlock()
		return len(syms.m)
	}
	before := size()
	// The table never forgets, so each run (-count) names keys of its own.
	k := fmt.Sprintf("unheld%d-", before)
	plain, nested := CompilePath(k+"1"), CompilePath(k+"2.x[0]")
	if _, err := New().Val(k + "3.y"); err != ErrNoValue {
		t.Fatalf("Val(%s3.y) = %v", k, err)
	}
	if got := size(); got != before {
		t.Fatalf("compiling paths interned %d keys", got-before)
	}
	d, err := Parse(fmt.Sprintf(`{"%[1]s1":1,"%[1]s2":{"x":[2]}}`, k))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.ValPath(plain); err != nil || v != int64(1) {
		t.Fatalf("ValPath(%s1) = %v, %v", k, v, err)
	}
	if v, err := d.ValPath(nested); err != nil || v != int64(2) {
		t.Fatalf("ValPath(%s2.x[0]) = %v, %v", k, v, err)
	}
	if got := size(); got != before+2 {
		t.Fatalf("the document interned %d keys, want its 2 top-level ones", got-before)
	}
}

// TestInternConcurrent: goroutines parsing documents and compiling paths
// over the same fresh keys share one table, and every document ends up
// with the one sym of each key.
func TestInternConcurrent(t *testing.T) {
	const workers, keys = 8, 50
	docs := make([][]*Doc, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("conc-%d", (k+w*7)%keys)
				CompilePath(key)
				d, err := Parse(fmt.Sprintf(`{%q:%d}`, key, w))
				if err != nil {
					t.Error(err)
					return
				}
				docs[w] = append(docs[w], d)
			}
		}()
	}
	wg.Wait()
	for w, ds := range docs {
		for _, d := range ds {
			key := d.fields[0].key
			if want := CompilePath(key.Value())[0].key; key != want {
				t.Fatalf("worker %d: key %q has two syms", w, key.Value())
			}
			if v, err := d.ValPath(CompilePath(key.Value())); err != nil || v != int64(w) {
				t.Fatalf("worker %d: %s reads %v, %v", w, d, v, err)
			}
		}
	}
}

// refParse is what Parse must agree with: encoding/json's verdict on the
// text, and a UseNumber decode of it normalized to int64/float64.
func refParse(s string) (map[string]any, error) {
	if !json.Valid([]byte(s)) {
		return nil, fmt.Errorf("invalid JSON")
	}
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	return numbers(m).(map[string]any), nil
}

// numbers turns a UseNumber decode's json.Number values into int64 when
// they parse as one and float64 otherwise.
func numbers(v any) any {
	switch x := v.(type) {
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i
		}
		f, _ := x.Float64()
		return f
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = numbers(e)
		}
		return out
	case []any:
		for i, e := range x {
			x[i] = numbers(e)
		}
	}
	return v
}

func FuzzDocParse(f *testing.F) {
	for _, s := range []string{
		`{}`, `null`, ` { "a" : 1 } `, `{"a":1,"a":2}`, `{"b":[1,2.5,-0,1e3,1E-2,-12.5e+2]}`,
		`{"big":9007199254740993,"huge":1e400,"neg":-9223372036854775809}`,
		`{"s":"é😀\ud800x\udc00\n\t\"\\\/\b\f\r"}`, "{\"raw\":\"\xff\xfe ok\"}",
		`{"n":{"m":{"k":[true,false,null,{}]}}}`, `{"a":1,}`, `{"a" 1}`, `[1]`, `"s"`, `1`, `{"a":01}`,
		`{"a":1} x`, `{"a":"\x"}`, `{"a":"\u12"}`, "{\"ctl\":\"a\x01\"}", `{"a":-}`, `{"a":1.}`, `{"a":tru}`, ``,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := refParse(s)
		d, err := Parse(s)
		if (err != nil) != (werr != nil) {
			t.Fatalf("Parse(%q) error %v, encoding/json %v", s, err, werr)
		}
		if err != nil {
			return
		}
		if got := d.Map(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse(%q) = %#v\nencoding/json: %#v", s, got, want)
		}
		if got, ref := d.String(), refDoc(want).json(); got != ref {
			t.Fatalf("Parse(%q) renders %s, map layout %s", s, got, ref)
		}
	})
}

// FuzzFromMapFixedPoint checks that a document holds what its own text
// reads back: FromMap(m) equals Parse(FromMap(m).String()) for every map
// Build accepts, and Build refuses only a map with no JSON form.
func FuzzFromMapFixedPoint(f *testing.F) {
	f.Add("k", "v", int64(-1), uint8(7), uint64(7), float32(1.5), 2.0)
	f.Add("nan", "ok", int64(0), uint8(0), uint64(0), float32(0), math.NaN())
	f.Add("f32", "", int64(1<<60), uint8(255), uint64(1<<63), float32(0.1), 1e300)
	f.Add("\xffkey", "bad \xfe\xc3 utf8", int64(9007199254740993), uint8(1), uint64(1<<64-1), float32(math.Inf(1)), 0.5)
	f.Fuzz(func(t *testing.T, key, s string, i int64, u uint8, u64 uint64, f32 float32, f64 float64) {
		m := map[string]any{
			key: s, "i": i, "u": u, "u64": u64, "f32": f32, "f64": f64,
			"nested": map[string]any{key: []any{s, f64, u}},
		}
		d, err := Build(m)
		finite := !math.IsNaN(f64) && !math.IsInf(f64, 0) && !math.IsNaN(float64(f32)) && !math.IsInf(float64(f32), 0)
		if (err == nil) != finite {
			t.Fatalf("Build(%v) error %v", m, err)
		}
		if err != nil {
			return
		}
		fm := FromMap(m)
		p, err := Parse(fm.String())
		if err != nil {
			t.Fatalf("Parse(%s): %v", fm, err)
		}
		if !reflect.DeepEqual(p.Map(), fm.Map()) || !reflect.DeepEqual(fm.Map(), d.Map()) {
			t.Fatalf("FromMap holds %#v, its text reads back %#v, Build holds %#v", fm.Map(), p.Map(), d.Map())
		}
	})
}
