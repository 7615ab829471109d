package engine

import (
	"reflect"
	"testing"

	"sqlgraph/internal/rel"
)

// Tests for the scalar/aggregate functions backing the Gremlin closure
// templates: CONTAINS and STARTSWITH (filter{it.name.contains(...)}),
// and LISTAGG with LIST() packing (groupBy/groupCount).

func TestContainsStartsWith(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)

	if n := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE CONTAINS(JSON_VAL(ATTR, 'name'), 'a')"); n != 2 {
		t.Fatalf("CONTAINS 'a' matched %d, want 2 (marko, vadas)", n)
	}
	if n := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE STARTSWITH(JSON_VAL(ATTR, 'name'), 'ma')"); n != 1 {
		t.Fatalf("STARTSWITH 'ma' matched %d, want 1", n)
	}
	// Empty needle: every string contains and starts with "".
	if n := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE CONTAINS(JSON_VAL(ATTR, 'name'), '')"); n != 4 {
		t.Fatalf("CONTAINS '' matched %d, want 4", n)
	}
	// NULL or non-string operands yield NULL, which WHERE drops: 'lang'
	// exists only on lop, and ages are ints, not strings.
	if n := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE CONTAINS(JSON_VAL(ATTR, 'lang'), 'av')"); n != 1 {
		t.Fatalf("CONTAINS over mostly-NULL matched %d, want 1", n)
	}
	if n := scalarInt(t, e, "SELECT COUNT(*) FROM VA WHERE STARTSWITH(JSON_VAL(ATTR, 'age'), '2')"); n != 0 {
		t.Fatalf("STARTSWITH on ints matched %d, want 0 (NULL, not coerced)", n)
	}
}

func TestListAggGroupPacking(t *testing.T) {
	e := newTestEngine(t)
	seedGraph(t, e)

	// The groupBy template shape: pack (key, sorted values) per group.
	r := mustQuery(t, e,
		"SELECT (LIST() || LBL || LISTAGG(JSON_VAL(ATTR, 'weight'))) AS VAL FROM EA GROUP BY LBL ORDER BY VAL")
	var got [][]rel.Value
	for _, row := range r.Data {
		got = append(got, row[0].List())
	}
	want := [][]rel.Value{
		{rel.NewString("created"), rel.NewFloat(0.4), rel.NewFloat(0.8)},
		{rel.NewString("knows"), rel.NewFloat(0.5), rel.NewFloat(1.0)},
		{rel.NewString("likes"), rel.NewFloat(0.2)},
	}
	if !sameRows(got, want) {
		t.Fatalf("LISTAGG groups = %v, want %v", got, want)
	}

	// LISTAGG skips NULLs: grouping vertices by presence of 'lang', only
	// lop contributes a value.
	r = mustQuery(t, e, "SELECT LISTAGG(JSON_VAL(ATTR, 'lang')) FROM VA")
	if len(r.Data) != 1 || len(r.Data[0][0].List()) != 1 || r.Data[0][0].List()[0].Str() != "java" {
		t.Fatalf("LISTAGG over NULLs = %v", r.Data)
	}

	// The groupCount template shape: (key, COUNT(*)) packed per group.
	r = mustQuery(t, e, "SELECT (LIST() || LBL || COUNT(*)) AS VAL FROM EA GROUP BY LBL ORDER BY VAL")
	var pairs []string
	for _, row := range r.Data {
		l := row[0].List()
		pairs = append(pairs, l[0].Str()+":"+l[1].String())
	}
	wantPairs := []string{"created:2", "knows:2", "likes:1"}
	if !reflect.DeepEqual(pairs, wantPairs) {
		t.Fatalf("groupCount packing = %v, want %v", pairs, wantPairs)
	}
}
