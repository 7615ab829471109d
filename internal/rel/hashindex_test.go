package rel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// TestHashIndexMatchesModel drives the hashed organisation's multimap
// with random adds and removes — rows mostly arriving in ascending order,
// some returning out of order, some under a second word for their later
// column, some added twice, absent ones removed — and after every few
// steps compares it with a model: per key, the (row, later word) entries
// in ascending row order, a row's entries in the order they came, and
// the same counts. Keys come from a small space so probe runs wrap and
// back-shift deletion moves keys across the table's end.
func TestHashIndexMatchesModel(t *testing.T) {
	type entry struct {
		rid  RowID
		rest uint64
	}
	rng := rand.New(rand.NewSource(23))
	h := newHashIndex(1)
	model := map[uint64][]entry{}
	words := make([]uint64, 300)
	for i := range words {
		words[i] = uint64(rng.Int63()) // arbitrary words, plus small ints below
		if i%3 == 0 {
			words[i] = uint64(i)
		}
	}
	var next RowID
	check := func(step int) {
		t.Helper()
		n := 0
		for _, w := range words {
			var got []entry
			h.each(w, func(e int32) bool { got = append(got, entry{h.rids[e], h.restOf(e)[0]}); return true })
			if want := model[w]; !slices.Equal(got, want) {
				t.Fatalf("step %d: word %d holds %v, want %v", step, w, got, want)
			}
			n += len(model[w])
		}
		if h.n != n || h.keys != len(model) {
			t.Fatalf("step %d: %d entries under %d keys, want %d under %d", step, h.n, h.keys, n, len(model))
		}
	}
	add := func(w uint64, en entry) {
		h.add([]uint64{w, en.rest}, en.rid)
		if !slices.Contains(model[w], en) {
			i := slices.IndexFunc(model[w], func(x entry) bool { return x.rid > en.rid })
			if i < 0 {
				i = len(model[w])
			}
			model[w] = slices.Insert(model[w], i, en)
		}
	}
	for step := 0; step < 20000; step++ {
		w := words[rng.Intn(len(words))]
		switch op := rng.Intn(10); {
		case op < 5: // a fresh row
			add(w, entry{next, uint64(rng.Intn(3))})
			next++
		case op < 7 && next > 0: // an older row (undo, or a key it held before), maybe already there
			add(w, entry{RowID(rng.Int63n(int64(next))), uint64(rng.Intn(3))})
		default: // remove a present entry or, sometimes, an absent one
			ens := model[w]
			if len(ens) == 0 || rng.Intn(4) == 0 {
				h.remove([]uint64{w, 7}, next+1)
				if len(ens) > 0 {
					h.remove([]uint64{w, ens[0].rest + 3}, ens[0].rid) // the row, another later word
				}
				break
			}
			i := rng.Intn(len(ens))
			h.remove([]uint64{w, ens[i].rest}, ens[i].rid)
			if ens = slices.Delete(ens, i, i+1); len(ens) == 0 {
				delete(model, w)
			} else {
				model[w] = ens
			}
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(-1)
	// Emptying every key leaves no slot occupied and every entry free.
	for w, ens := range model {
		for _, en := range ens {
			h.remove([]uint64{w, en.rest}, en.rid)
		}
	}
	if h.n != 0 || h.keys != 0 || slices.ContainsFunc(h.tail, func(v int32) bool { return v != 0 }) {
		t.Fatalf("after removing everything: %d entries, %d keys", h.n, h.keys)
	}
}

// TestHashIndexProbeRuns files key families of the shapes graph tables
// hold, and some that defeat simple homes, through many grows with
// removes interleaved: dense ascending ids, list ids (-1, -2, ...),
// strides of 8, of the final slot count and of 2^32, sparse random words
// and hashed strings. Whenever the slot table has grown, and at the end,
// the index must agree with a model, and no probe, for a key that is
// there or for one that is not (the family's next keys and the removed
// ones), may read a run of more than maxRun slots.
func TestHashIndexProbeRuns(t *testing.T) {
	const n, maxRun = 20000, 64
	slots := 16
	for n*4 > slots*3 {
		slots *= 2
	}
	families := []struct {
		name string
		key  func(i int) uint64
	}{
		{"dense", func(i int) uint64 { return uint64(i) }},
		{"list ids", func(i int) uint64 { return uint64(-int64(i) - 1) }},
		{"stride 8", func(i int) uint64 { return uint64(i) * 8 }},
		{"stride slots", func(i int) uint64 { return uint64(i) * uint64(slots) }},
		{"stride 2^32", func(i int) uint64 { return uint64(i) << 32 }},
		{"random", func(i int) uint64 { return splitmix(uint64(i)) }},
		{"strings", func(i int) uint64 { return keyWord(NewString(fmt.Sprintf("key-%d", i))) }},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			h := newHashIndex(0)
			model := map[uint64]RowID{}
			var present, removed []uint64
			maxHit, maxMiss := 0, 0
			defer func() { t.Logf("longest runs: hit %d miss %d", maxHit, maxMiss) }()
			check := func() {
				t.Helper()
				if h.keys != len(model) || h.n != len(model) {
					t.Fatalf("%d keys, %d entries; want %d of each", h.keys, h.n, len(model))
				}
				probe := func(w uint64) {
					t.Helper()
					var got []RowID
					h.each(w, func(e int32) bool { got = append(got, h.rids[e]); return true })
					rid, ok := model[w]
					if ok && !slices.Equal(got, []RowID{rid}) || !ok && got != nil {
						t.Fatalf("key %#x holds %v, model %v (%v)", w, got, rid, ok)
					}
					mask := len(h.words) - 1
					run := 1
					for i := h.home(w); h.tail[i] != 0 && h.words[i] != w; i = (i + 1) & mask {
						run++
					}
					if ok {
						maxHit = max(maxHit, run)
					} else {
						maxMiss = max(maxMiss, run)
					}
					if run > maxRun {
						t.Fatalf("key %#x (present %v): a probe reads %d slots, more than %d, at %d keys in %d slots", w, ok, run, maxRun, h.keys, len(h.words))
					}
				}
				for w := range model {
					probe(w)
				}
				for i := n; i < 2*n; i++ {
					probe(f.key(i))
				}
				for _, w := range removed {
					probe(w)
				}
			}
			for i := 0; i < n; i++ {
				w := f.key(i)
				grew := len(h.words)
				h.add([]uint64{w}, RowID(i))
				model[w] = RowID(i)
				present = append(present, w)
				if rng.Intn(4) == 0 { // remove a present key
					j := rng.Intn(len(present))
					r := present[j]
					h.remove([]uint64{r}, model[r])
					delete(model, r)
					present[j] = present[len(present)-1]
					present = present[:len(present)-1]
					removed = append(removed, r)
				}
				if len(h.words) != grew {
					check()
				}
			}
			check()
		})
	}
}

// splitmix is the SplitMix64 finaliser: sparse random words, one per i.
func splitmix(i uint64) uint64 {
	i += 0x9E3779B97F4A7C15
	i = (i ^ i>>30) * 0xBF58476D1CE4E5B9
	i = (i ^ i>>27) * 0x94D049BB133111EB
	return i ^ i>>31
}

// TestKeyWordAgreesWithValueKey: a hashed index finds what a hash join on
// the same column matches — integral doubles below 2^53 file with the
// integer they equal, other values by their encoding.
func TestKeyWordAgreesWithValueKey(t *testing.T) {
	same := [][2]Value{
		{NewInt(7), NewFloat(7)},
		{NewInt(-3), NewFloat(-3)},
		{NewString("a"), NewString("a")},
		{Null, Null},
	}
	for _, p := range same {
		if keyWord(p[0]) != keyWord(p[1]) || p[0].Key() != p[1].Key() {
			t.Errorf("%v and %v file apart", p[0], p[1])
		}
	}
	apart := [][2]Value{
		{NewInt(7), NewFloat(7.5)},
		{NewInt(1 << 60), NewFloat(1 << 60)},
		{NewString("7"), NewInt(7)},
		{NewBool(true), NewInt(1)},
	}
	for _, p := range apart {
		if keyWord(p[0]) == keyWord(p[1]) {
			t.Errorf("%v and %v file together", p[0], p[1])
		}
	}
}

// TestProbeSemanticsBothOrganisations walks an OSA-shaped table,
// S(VALID, EID, VAL) indexed on (VALID, EID), through a key-changing
// update, an update of the second key column only, a delete, a rolled
// back transaction, a vacuum (one transaction deleting a batch of rows)
// and garbage collection, with a snapshot pinned before the first
// change. After every step each organisation must return the same rows,
// live and pinned, for one- and two-component prefixes.
func TestProbeSemanticsBothOrganisations(t *testing.T) {
	type probe struct {
		name  string
		key   []Value
		asOf  string // "live" or "pinned"
		wants []string
	}
	k := func(vals ...int64) []Value {
		out := make([]Value, len(vals))
		for i, v := range vals {
			out[i] = NewInt(v)
		}
		return out
	}
	steps := []struct {
		name   string
		apply  func(t *testing.T, tx *Txn, rids map[string]RowID)
		commit bool
		probes []probe
	}{
		{"load", nil, true, []probe{
			{"VALID=1", k(1), "live", []string{"1/10/100", "1/11/101", "1/12/102"}},
			{"VALID=1", k(1), "pinned", []string{"1/10/100", "1/11/101", "1/12/102"}},
			{"VALID=1 EID=11", k(1, 11), "live", []string{"1/11/101"}},
			{"VALID=3", k(3), "live", nil},
		}},
		{"update VALID 1->2 and EID 12->13", func(t *testing.T, tx *Txn, rids map[string]RowID) {
			update(t, tx, rids["1/11"], 2, 11, 101)
			update(t, tx, rids["1/12"], 1, 13, 102)
		}, true, []probe{
			{"VALID=1", k(1), "live", []string{"1/10/100", "1/13/102"}},
			{"VALID=2", k(2), "live", []string{"2/11/101", "2/20/200"}},
			{"VALID=1", k(1), "pinned", []string{"1/10/100", "1/11/101", "1/12/102"}},
			{"VALID=2", k(2), "pinned", []string{"2/20/200"}},
			{"VALID=1 EID=12", k(1, 12), "live", nil},
			{"VALID=1 EID=12", k(1, 12), "pinned", []string{"1/12/102"}},
			{"VALID=1 EID=13", k(1, 13), "live", []string{"1/13/102"}},
			{"VALID=1 EID=13", k(1, 13), "pinned", nil},
		}},
		{"delete", func(t *testing.T, tx *Txn, rids map[string]RowID) {
			if ok, err := tx.Delete("S", rids["2/20"]); !ok || err != nil {
				t.Fatalf("delete: %v %v", ok, err)
			}
		}, true, []probe{
			{"VALID=2", k(2), "live", []string{"2/11/101"}},
			{"VALID=2", k(2), "pinned", []string{"2/20/200"}},
		}},
		{"rolled back", func(t *testing.T, tx *Txn, rids map[string]RowID) {
			update(t, tx, rids["1/10"], 3, 10, 100)
			update(t, tx, rids["1/11"], 1, 11, 101) // back to a key its stale entry still holds
			if _, err := tx.Delete("S", rids["1/12"]); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Insert("S", k(3, 30, 300)); err != nil {
				t.Fatal(err)
			}
		}, false, []probe{
			{"VALID=1", k(1), "live", []string{"1/10/100", "1/13/102"}},
			{"VALID=2", k(2), "live", []string{"2/11/101"}},
			{"VALID=3", k(3), "live", nil},
			{"VALID=1", k(1), "pinned", []string{"1/10/100", "1/11/101", "1/12/102"}},
		}},
		{"move back to a held key", func(t *testing.T, tx *Txn, rids map[string]RowID) {
			update(t, tx, rids["1/11"], 1, 11, 111)
		}, true, []probe{
			{"VALID=1", k(1), "live", []string{"1/10/100", "1/11/111", "1/13/102"}},
			{"VALID=2", k(2), "live", nil},
			{"VALID=1", k(1), "pinned", []string{"1/10/100", "1/11/101", "1/12/102"}},
			{"VALID=1 EID=11", k(1, 11), "pinned", []string{"1/11/101"}},
		}},
		{"vacuum", func(t *testing.T, tx *Txn, rids map[string]RowID) {
			for _, r := range []string{"1/10", "1/11"} {
				if _, err := tx.Delete("S", rids[r]); err != nil {
					t.Fatal(err)
				}
			}
		}, true, []probe{
			{"VALID=1", k(1), "live", []string{"1/13/102"}},
			{"VALID=1", k(1), "pinned", []string{"1/10/100", "1/11/101", "1/12/102"}},
			{"VALID=2", k(2), "pinned", []string{"2/20/200"}},
		}},
		{"unpin and collect", nil, true, []probe{
			{"VALID=1", k(1), "live", []string{"1/13/102"}},
			{"VALID=2", k(2), "live", nil},
			{"VALID=1 EID=13", k(1, 13), "live", []string{"1/13/102"}},
		}},
	}

	for _, org := range organisations {
		t.Run(org.name, func(t *testing.T) {
			c := NewCatalog()
			tb, err := c.CreateTable("S", NewSchema(
				Column{Name: "VALID", Type: KindInt},
				Column{Name: "EID", Type: KindInt},
				Column{Name: "VAL", Type: KindInt},
			))
			if err != nil {
				t.Fatal(err)
			}
			ix := createIndex(t, c, "S_VALID", "S", org.hashed, 0, 1)
			fp, err := c.Footprint([]string{"S"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rids := map[string]RowID{}
			tx := fp.Begin()
			for _, r := range [][3]int64{{1, 10, 100}, {1, 11, 101}, {2, 20, 200}, {1, 12, 102}} {
				rid, err := tx.Insert("S", k(r[0], r[1], r[2]))
				if err != nil {
					t.Fatal(err)
				}
				rids[fmt.Sprintf("%d/%d", r[0], r[1])] = rid
			}
			tx.Commit()
			pinned := c.Pin()
			for _, st := range steps {
				if st.name == "unpin and collect" {
					c.Unpin(pinned)
					c.runGC()
				}
				if st.apply != nil {
					tx := fp.Begin()
					st.apply(t, tx, rids)
					if st.commit {
						tx.Commit()
					} else {
						tx.Rollback()
					}
				}
				tb.RLock()
				for _, p := range st.probes {
					at := Latest
					if p.asOf == "pinned" {
						at = pinned
					}
					var got []string
					tb.ProbeAt(ix, p.key, at, func(_ RowID, vals []Value) bool {
						got = append(got, fmt.Sprintf("%d/%d/%d", vals[0].Int(), vals[1].Int(), vals[2].Int()))
						return true
					})
					sort.Strings(got)
					if !slices.Equal(got, p.wants) {
						t.Errorf("after %s: %s %s = %v, want %v", st.name, p.asOf, p.name, got, p.wants)
					}
				}
				tb.RUnlock()
			}
			// Collected: one entry per live row, nothing stale left.
			if ix.Len() != 1 || tb.Live() != 1 {
				t.Fatalf("after GC: %d index entries for %d live rows, want 1, 1", ix.Len(), tb.Live())
			}
		})
	}
}

func update(t *testing.T, tx *Txn, rid RowID, valid, eid, val int64) {
	t.Helper()
	if err := tx.Update("S", rid, []Value{NewInt(valid), NewInt(eid), NewInt(val)}); err != nil {
		t.Fatal(err)
	}
}

// TestHashedIndexHasNoRange: a hashed index reports itself unordered and
// refuses a range probe rather than answering it wrongly.
func TestHashedIndexHasNoRange(t *testing.T) {
	_, tb, byID, _, _ := probeFixture(t, 8, true)
	defer func() {
		if recover() == nil {
			t.Fatal("range probe on a hashed index did not panic")
		}
	}()
	tb.ProbeRangeAt(byID, NewInt(0), NewInt(2), true, true, Latest, func(RowID, []Value) bool { return true })
}

// BenchmarkIndexOrganisations probes 200 000 integer keys, one row each,
// through either organisation, in random order and in ascending order
// (a sorted frontier's), and reports the heap bytes the index holds per
// entry.
func BenchmarkIndexOrganisations(b *testing.B) {
	const n = 200000
	orders := []struct {
		name string
		keys []int
	}{
		{"random", rand.New(rand.NewSource(1)).Perm(n)},
		{"ascending", nil},
	}
	for _, org := range organisations {
		for _, order := range orders {
			b.Run(org.name+"/"+order.name, func(b *testing.B) {
				c := NewCatalog()
				tb, err := c.CreateTable("T", testSchema())
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if _, err := tb.insertLocked([]Value{NewInt(int64(i)), Null, Null}, 0); err != nil {
						b.Fatal(err)
					}
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				ix := createIndex(b, c, "IX", "T", org.hashed, 0)
				runtime.GC()
				runtime.ReadMemStats(&after)
				key := []Value{Null}
				found := 0
				visit := func(RowID, []Value) bool { found++; return true }
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % n
					if order.keys != nil {
						k = order.keys[k]
					}
					key[0] = NewInt(int64(k))
					tb.ProbeAt(ix, key, Latest, visit)
				}
				if found != b.N {
					b.Fatalf("%d probes found %d rows", b.N, found)
				}
				b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/n, "B/entry")
			})
		}
	}
}
