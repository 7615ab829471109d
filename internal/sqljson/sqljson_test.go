package sqljson

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// TestParseAndVal: Val reads one top-level key, taken literally: a '.'
// or '[' is part of the key, never a step into a nested value.
func TestParseAndVal(t *testing.T) {
	d, err := Parse(`{"name":"marko","age":29,"langs":["java","groovy"],"addr":{"city":"x","zip":[1,2]},"addr.city":"y","langs[0]":"z"}`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path string
		want any
	}{
		{"name", "marko"},
		{"age", int64(29)},
		{"addr.city", "y"},
		{"langs[0]", "z"},
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
	for _, p := range []string{"missing", "addr.state", "langs[1]", "name.sub", "addr.zip[1]", ""} {
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

// TestSetDeleteHas: With sets a key and Without deletes one, each in a
// new document.
func TestSetDeleteHas(t *testing.T) {
	d := Doc{}.With("a", 1).With("b", "two").With("c", []any{1, "x"})
	if !d.Has("a") || !d.Has("b") || !d.Has("c") || d.Has("d") {
		t.Fatal("Has mismatch")
	}
	if v, _ := d.Val("a"); v != int64(1) {
		t.Fatalf("a = %v (%T), want int64(1)", v, v)
	}
	d, ok := d.Without("a")
	if !ok {
		t.Fatal("Without(a) = false")
	}
	if _, ok := d.Without("a"); ok {
		t.Fatal("second Without(a) = true")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d = d.With("b", 2.5); d.String() != `{"b":2.5,"c":[1,"x"]}` {
		t.Fatalf("With over a held key = %s", d)
	}
}

func TestStringCanonical(t *testing.T) {
	d := Doc{}.With("b", 2).With("a", "x")
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

// TestWithLeavesOriginal: a document is immutable; With and Without
// build new ones, and a nested value they carry over is the same bytes.
func TestWithLeavesOriginal(t *testing.T) {
	d, _ := Parse(`{"a":{"b":1},"c":[1,2]}`)
	rec := d.Record()
	changed := d.With("a", "changed")
	dropped, _ := d.Without("c")
	if it, _ := d.Field("a"); it.Doc().String() != `{"b":1}` || d.Record() != rec {
		t.Fatal("With changed the original")
	}
	if changed.String() != `{"a":"changed","c":[1,2]}` || dropped.String() != `{"a":{"b":1}}` {
		t.Fatalf("With = %s, Without = %s", changed, dropped)
	}
	if (Doc{}).With("x", 1).Len() != 1 {
		t.Fatal("With on the empty document")
	}
}

func TestZeroDocSafe(t *testing.T) {
	var d Doc
	if d.Len() != 0 || d.Has("x") || d.Keys() != nil || d.String() != "{}" || d.Size() != 2 {
		t.Fatal("zero doc accessors not safe")
	}
	if _, err := d.Val("x"); err != ErrNoValue {
		t.Fatal("zero doc Val should be ErrNoValue")
	}
	if _, ok := d.Without("x"); ok {
		t.Fatal("zero doc Without found a key")
	}
}

func TestMarshalerInterface(t *testing.T) {
	d := FromMap(map[string]any{"k": "v"})
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
	var d Doc
	for _, k := range []string{"zeta", "alpha", "mid"} {
		d = d.With(k, 1)
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
		var d Doc
		for i, k := range keys {
			if i < len(vals) {
				d = d.With(k, vals[i])
			} else {
				d = d.With(k, "s")
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
	var d Doc
	base := d.Size()
	d = d.With("key", "value")
	if d.Size() <= base {
		t.Fatalf("Size did not grow: %d -> %d", base, d.Size())
	}
	d = d.With("n", int64(-1234)).With("f", 1.5).With("arr", []any{1, 2, 3}).With("b", true)
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

// refDoc is the layout documents had before they became records: one
// map per document. Its rendering and size (refAppendJSON, refSize: the
// map layout's own code) are what the WAL, the snapshot and
// stored_bytes_per_user_byte were built on, so a record must reproduce
// both exactly.
type refDoc map[string]any

func (r refDoc) json() string { return string(refAppendJSON(nil, map[string]any(r))) }
func (r refDoc) size() int    { return refSize(map[string]any(r)) }

func refAppendJSON(b []byte, v any) []byte {
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
		enc, _ := json.Marshal(x)
		return append(b, enc...)
	case []any:
		b = append(b, '[')
		for i, e := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = refAppendJSON(b, e)
		}
		return append(b, ']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = refAppendJSON(b, k)
			b = append(b, ':')
			b = refAppendJSON(b, x[k])
		}
		return append(b, '}')
	}
	enc, _ := json.Marshal(v)
	return append(b, enc...)
}

func refSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 4
	case bool:
		return 5
	case int64:
		return len(strconv.FormatInt(x, 10))
	case float64:
		return 12
	case string:
		return len(x) + 2
	case []any:
		n := 2
		for _, e := range x {
			n += refSize(e) + 1
		}
		return n
	case map[string]any:
		n := 2
		for k, e := range x {
			n += len(k) + 3 + refSize(e) + 1
		}
		return n
	}
	return 8
}

// jsonReading is m as its encoding/json text reads back (refParse): what
// Build holds for a map of plain values.
func jsonReading(t *testing.T, m map[string]any) refDoc {
	t.Helper()
	text, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := refParse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameAsRef(t *testing.T, what string, d Doc, ref refDoc) {
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
// included — through every constructor, With and Without, and requires
// the rendering, size and reads of the one-map-per-document reference:
// encoding/json's reading of the same map.
func TestDocMatchesMapLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var bulk Bulk
	for iter := 0; iter < 500; iter++ {
		m := randMap(rng, 2)
		ref := jsonReading(t, m)
		d := *FromMap(m)
		sameAsRef(t, "FromMap", d, ref)
		built, err := Build(m)
		if err != nil {
			t.Fatal(err)
		}
		sameAsRef(t, "Build", built, ref)
		packed, err := bulk.Build(m)
		if err != nil || packed.Record() != d.Record() {
			t.Fatalf("Bulk.Build(%v) = %s, %v; Build %s", m, packed, err, d)
		}

		// Invalid UTF-8 reads back as U+FFFD, so the text's own decode is
		// the reference here.
		parsed, err := Parse(d.String())
		want, werr := refParse(d.String())
		if err != nil || werr != nil {
			t.Fatalf("Parse(%s): %v, encoding/json: %v", d, err, werr)
		}
		sameAsRef(t, "Parse", parsed, want)

		cur := d
		for op := 0; op < 8; op++ {
			k := pick(rng, randKeys...)
			if rng.Intn(3) == 0 {
				_, had := ref[k]
				delete(ref, k)
				var got bool
				if cur, got = cur.Without(k); got != had {
					t.Fatalf("Without(%q) = %v, key present %v", k, got, had)
				}
			} else {
				v := randValue(rng, 1)
				ref[k] = jsonReading(t, map[string]any{"v": v})["v"]
				cur = cur.With(k, v)
			}
			sameAsRef(t, fmt.Sprintf("op %d", op), cur, ref)
		}
		sameAsRef(t, "the original, after With and Without", d, jsonReading(t, m))
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

// TestReadsAllocateNothing: JSON_VAL runs once per examined row, the
// storage layer sizes every stored document and the checkpoint renders
// each one. Items are read from the record in place.
func TestReadsAllocateNothing(t *testing.T) {
	d, err := Parse(`{"name":"marko","age":29,"langs":["java"],"addr":{"city":"x"},"addr.city":"x","langs[0]":"java","w":0.5,"ok":true}`)
	if err != nil {
		t.Fatal(err)
	}
	name, city, lang, missing := CompilePath("name"), CompilePath("addr.city"), CompilePath("langs[0]"), CompilePath("nope")
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		if it, ok := d.Lookup(name); !ok || it.Kind() != KindString || it.Str() != "marko" {
			t.Fatal("Lookup(name)")
		}
		if it, ok := d.Lookup(city); !ok || it.Str() != "x" {
			t.Fatal("Lookup(addr.city)")
		}
		if it, ok := d.Lookup(lang); !ok || it.Str() != "java" {
			t.Fatal("Lookup(langs[0])")
		}
		if _, ok := d.Lookup(missing); ok {
			t.Fatal("Lookup(nope)")
		}
		if it, ok := d.Field("age"); !ok || it.Kind() != KindInt || it.Int() != 29 {
			t.Fatal("Field(age)")
		}
		if it, ok := d.Field("w"); !ok || it.Kind() != KindFloat || it.Float() != 0.5 {
			t.Fatal("Field(w)")
		}
		if it, ok := d.Field("ok"); !ok || !it.Bool() {
			t.Fatal("Field(ok)")
		}
		if !d.Has("w") || d.Has("x") || d.Len() != 8 || d.Size() == 0 {
			t.Fatal("Has/Len/Size")
		}
		if it, ok := d.Field("langs"); !ok || it.Len() != 1 || it.Index(0).Str() != "java" {
			t.Fatal("Field(langs)")
		}
		if it, ok := d.Field("addr"); !ok || it.Doc().Len() != 1 {
			t.Fatal("Field(addr)")
		}
		if buf = d.AppendJSON(buf[:0]); len(buf) == 0 {
			t.Fatal("AppendJSON")
		}
	})
	if allocs != 0 {
		t.Fatalf("reads allocate %.1f times per run, want 0", allocs)
	}
}

// TestPathsInternNothing: compiling a key only looks it up, so a query
// naming keys no document holds leaves the table alone, and a key compiled
// before any document holds it still finds it afterwards, a dotted one
// included.
func TestPathsInternNothing(t *testing.T) {
	size := func() int {
		syms.Lock()
		defer syms.Unlock()
		return len(syms.m)
	}
	before := size()
	// The table never forgets, so each run (-count) names keys of its own.
	k := fmt.Sprintf("unheld%d-", before)
	plain, dotted := CompilePath(k+"1"), CompilePath(k+"2."+k+"x[0]")
	if _, err := New().Val(k + "3.y"); err != ErrNoValue {
		t.Fatalf("Val(%s3.y) = %v", k, err)
	}
	if got := size(); got != before {
		t.Fatalf("compiling paths interned %d keys", got-before)
	}
	d, err := Parse(fmt.Sprintf(`{"%[1]s1":1,"%[1]s2.%[1]sx[0]":2,"%[1]s2":{"%[1]sx":[3]}}`, k))
	if err != nil {
		t.Fatal(err)
	}
	if it, ok := d.Lookup(plain); !ok || it.Any() != int64(1) {
		t.Fatalf("Lookup(%s1) = %v, %v", k, it.Any(), ok)
	}
	if it, ok := d.Lookup(dotted); !ok || it.Any() != int64(2) {
		t.Fatalf("Lookup(%[1]s2.%[1]sx[0]) = %v, %v", k, it.Any(), ok)
	}
	if got := size(); got != before+4 {
		t.Fatalf("the document interned %d keys, want its 4, the nested one included", got-before)
	}
}

// TestInternConcurrent: goroutines parsing documents and compiling paths
// over the same fresh keys share one table, and every document ends up
// with the one sym of each key.
func TestInternConcurrent(t *testing.T) {
	const workers, keys = 8, 50
	docs := make([][]Doc, workers)
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
			key := keyAt(d.rec, 0)
			if want := CompilePath(key.name()).key; key != want {
				t.Fatalf("worker %d: key %q has two syms", w, key.name())
			}
			if it, ok := d.Lookup(CompilePath(key.name())); !ok || it.Any() != int64(w) {
				t.Fatalf("worker %d: %s reads %v, %v", w, d, it.Any(), ok)
			}
		}
	}
}

// refParse is what Parse must agree with: encoding/json's verdict on the
// text, and a UseNumber decode of it normalized to int64/float64. A text
// holding a number no float64 holds is refused, even where a later value
// of the same key would replace it.
func refParse(s string) (refDoc, error) {
	if !json.Valid([]byte(s)) {
		return nil, fmt.Errorf("invalid JSON")
	}
	toks := json.NewDecoder(strings.NewReader(s))
	toks.UseNumber()
	for {
		tok, err := toks.Token()
		if err != nil {
			break // the end: the text is valid
		}
		if n, ok := tok.(json.Number); ok {
			if _, err := n.Float64(); err != nil {
				return nil, err
			}
		}
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
		// Added with records: nesting, the float64 range, -0.0, integers
		// beyond 2^53, invalid UTF-8 in keys and nested values, empties.
		`{"o":{"b":{"c":[1,{"d":"e","a":null}]},"a":[]},"e":[[],[{}],[[2.5]]],"z":{"z":{"z":{}}}}`,
		`{"x":1e400}`, `{"x":[1,{"y":-1e400}]}`, `{"x":1e-400,"y":1.7976931348623157e308}`,
		`{"x":-0.0,"y":-0,"z":0.0,"w":[-0.0]}`,
		`{"x":9007199254740993,"y":-9007199254740993,"z":18446744073709551616,"w":[9223372036854775807]}`,
		"{\"\xff\":\"\xfe\",\"o\":{\"k\xc3\":[\"\xed\xa0\x80\"]}}",
		`{"e":{},"a":[]}`, `{"":1e700,"":0}`,
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
		if got := d.Map(); !reflect.DeepEqual(got, map[string]any(want)) {
			t.Fatalf("Parse(%q) = %#v\nencoding/json: %#v", s, got, want)
		}
		for k, v := range want {
			if got, ok := d.Get(k); !ok || !reflect.DeepEqual(got, v) {
				t.Fatalf("Parse(%q).Get(%q) = %#v, %v; encoding/json %#v", s, k, got, ok, v)
			}
		}
		if got, ref := d.String(), want.json(); got != ref {
			t.Fatalf("Parse(%q) renders %s, map layout %s", s, got, ref)
		}
		// Parse after AppendJSON is a fixed point from its first result on.
		once, err := Parse(string(d.AppendJSON(nil)))
		if err != nil {
			t.Fatalf("Parse(%s): %v", d, err)
		}
		twice, err := Parse(string(once.AppendJSON(nil)))
		if err != nil || twice.Record() != once.Record() || twice.String() != once.String() {
			t.Fatalf("Parse(%q): %s reads back as %s, then %s (%v)", s, d, once, twice, err)
		}
		var bulk Bulk
		if packed, err := bulk.Parse(s); err != nil || packed.Record() != d.Record() {
			t.Fatalf("Bulk.Parse(%q) = %s, %v; Parse %s", s, packed, err, d)
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
