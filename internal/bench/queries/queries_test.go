package queries

import (
	"testing"

	"sqlgraph/internal/altschema"
	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
)

func smallDataset(t *testing.T) *dbpedia.Dataset {
	t.Helper()
	d, err := dbpedia.Generate(dbpedia.Config{
		Countries: 2, RegionFan: 2, DistrictFan: 2, SettlementFan: 2, VillageFan: 2,
		Players: 120, Teams: 12, Works: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAdjacencyQueriesParseAndShape(t *testing.T) {
	d := smallDataset(t)
	qs := AdjacencyQueries(d)
	if len(qs) != 11 {
		t.Fatalf("adjacency queries = %d", len(qs))
	}
	hops := []int{3, 6, 9, 5, 5, 5, 4, 6, 8, 6, 6} // Table 1's hop counts
	for i, q := range qs {
		if q.NumHops() != hops[i] {
			t.Fatalf("query %d hops = %d, want %d", q.ID, q.NumHops(), hops[i])
		}
		if len(q.Start) == 0 {
			t.Fatalf("query %d has empty start set", q.ID)
		}
		if _, err := gremlin.Parse(q.Gremlin()); err != nil {
			t.Fatalf("query %d gremlin %q: %v", q.ID, q.Gremlin(), err)
		}
	}
}

func TestAdjacencyQueriesAgreeAcrossStores(t *testing.T) {
	// The hash-adjacency side (SQLGraph) and the JSON-adjacency side must
	// produce identical result counts — the benchmark compares time, not
	// answers.
	d := smallDataset(t)
	store, err := core.Load(d.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jsonStore, err := altschema.NewJSONAdjStore(d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range AdjacencyQueries(d)[:6] { // hierarchy queries
		r, err := store.QueryTraced(q.Gremlin(), core.TranslateOptions{ForceHashTables: true}, "")
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		sqlCount := int(r.Values[0].(int64))
		frontier := q.Start
		for _, h := range q.Hops {
			var next []int64
			switch h.Dir {
			case "out":
				next, err = jsonStore.Neighbors(frontier, h.Labels, true)
			case "in":
				next, err = jsonStore.Neighbors(frontier, h.Labels, false)
			default:
				next, err = jsonStore.KHopBoth(frontier, h.Labels, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			frontier = next
		}
		if sqlCount != len(frontier) {
			t.Fatalf("query %d: sql %d vs json %d", q.ID, sqlCount, len(frontier))
		}
	}
}

func TestAttributeQueries(t *testing.T) {
	d := smallDataset(t)
	qs := AttributeQueries(d)
	if len(qs) != 16 {
		t.Fatalf("attribute queries = %d", len(qs))
	}
	keys := AttributeKeys(qs)
	if len(keys) != 8 {
		t.Fatalf("distinct keys = %d", len(keys))
	}
	store, err := core.Load(d.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := altschema.NewHashAttrStore(d.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		// JSON side.
		rows, err := store.Engine().Query(q.VASQL())
		if err != nil {
			t.Fatalf("query %d VA: %v\n%s", q.ID, err, q.VASQL())
		}
		v, _ := rows.Scalar()
		jsonCount := v.Int()
		// Hash side.
		var hashCount int64
		switch q.Filter {
		case "notnull":
			hashCount, err = hash.CountNotNull(q.Key)
		case "like":
			hashCount, err = hash.CountStringMatch(q.Key, "like", q.Pattern)
		case "eq":
			if q.Numeric {
				hashCount, err = hash.CountNumericMatch(q.Key, "=", q.Value)
			} else {
				hashCount, err = hash.CountStringMatch(q.Key, "=", q.Pattern)
			}
		}
		if err != nil {
			t.Fatalf("query %d hash: %v", q.ID, err)
		}
		if jsonCount != hashCount {
			t.Fatalf("query %d (%s %s): json %d vs hash %d", q.ID, q.Key, q.Filter, jsonCount, hashCount)
		}
	}
}

func TestNeighborQueries(t *testing.T) {
	d := smallDataset(t)
	qs := NeighborQueries(d)
	if len(qs) != 7 {
		t.Fatalf("neighbor queries = %d", len(qs))
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].InDegree < qs[i-1].InDegree {
			t.Fatalf("in-degrees not monotone: %+v", qs)
		}
	}
	if qs[6].InDegree <= qs[0].InDegree {
		t.Fatal("degenerate degree spread")
	}
}

func TestBenchmarkQueriesParseAndRun(t *testing.T) {
	d := smallDataset(t)
	store, err := core.Load(d.Graph, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bqs := BenchmarkQueries(d)
	if len(bqs) != 20 {
		t.Fatalf("benchmark queries = %d", len(bqs))
	}
	for i, q := range bqs {
		if _, err := gremlin.Parse(q); err != nil {
			t.Fatalf("query %d %q: %v", i+1, q, err)
		}
		if _, err := store.Query(q); err != nil {
			t.Fatalf("query %d failed on SQLGraph: %v\n%s", i+1, err, q)
		}
	}
	pqs := PathQueries(d)
	if len(pqs) != 11 {
		t.Fatalf("path queries = %d", len(pqs))
	}
}
