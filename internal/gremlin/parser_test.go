package gremlin

import (
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParsePaperExample(t *testing.T) {
	// The running example from paper Section 4.1.
	q := mustParse(t, "g.V.filter{it.tag=='w'}.both.dedup().count()")
	if len(q.Steps) != 5 {
		t.Fatalf("steps = %d", len(q.Steps))
	}
	kinds := []StepKind{StepV, StepFilter, StepBoth, StepDedup, StepCount}
	for i, k := range kinds {
		if q.Steps[i].Kind != k {
			t.Fatalf("step %d = %v, want %v", i, q.Steps[i].Kind, k)
		}
	}
	f := q.Steps[1]
	if f.Key != "tag" || f.Op != OpEq || f.Value != "w" {
		t.Fatalf("filter = %+v", f)
	}
}

func TestParseSources(t *testing.T) {
	q := mustParse(t, "g.V")
	if q.Steps[0].Kind != StepV || q.Steps[0].StartIDs != nil {
		t.Fatalf("V = %+v", q.Steps[0])
	}
	q = mustParse(t, "g.V(42).out")
	if len(q.Steps[0].StartIDs) != 1 || q.Steps[0].StartIDs[0] != 42 {
		t.Fatalf("V(42) = %+v", q.Steps[0])
	}
	q = mustParse(t, "g.v(1).out") // lowercase v alias
	if q.Steps[0].Kind != StepV {
		t.Fatalf("v(1) = %+v", q.Steps[0])
	}
	q = mustParse(t, "g.V('URI', 'http://dbpedia.org/ontology/Person').in('type')")
	if q.Steps[0].StartKey != "URI" || q.Steps[0].StartVal != "http://dbpedia.org/ontology/Person" {
		t.Fatalf("V(key,val) = %+v", q.Steps[0])
	}
	q = mustParse(t, "g.V(1, 2, 3).out")
	if len(q.Steps[0].StartIDs) != 3 {
		t.Fatalf("V(1,2,3) = %+v", q.Steps[0])
	}
	q = mustParse(t, "g.E(7).inV")
	if q.Steps[0].Kind != StepE || q.Steps[0].StartIDs[0] != 7 {
		t.Fatalf("E(7) = %+v", q.Steps[0])
	}
}

func TestParseTraversals(t *testing.T) {
	q := mustParse(t, "g.V(1).out('knows', 'created').inE('likes').outV.both")
	if len(q.Steps[1].Labels) != 2 || q.Steps[1].Labels[1] != "created" {
		t.Fatalf("out labels = %v", q.Steps[1].Labels)
	}
	if q.Steps[2].Kind != StepInE || q.Steps[3].Kind != StepOutV || q.Steps[4].Kind != StepBoth {
		t.Fatalf("steps = %+v", q.Steps)
	}
}

func TestParseHasForms(t *testing.T) {
	q := mustParse(t, "g.V.has('name')")
	if q.Steps[1].Key != "name" || q.Steps[1].Op != "" {
		t.Fatalf("has(key) = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.has('name', 'marko')")
	if q.Steps[1].Op != OpEq || q.Steps[1].Value != "marko" {
		t.Fatalf("has(key,val) = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.has('age', T.gt, 29)")
	if q.Steps[1].Op != OpGt || q.Steps[1].Value != int64(29) {
		t.Fatalf("has T.gt = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.hasNot('lang')")
	if q.Steps[1].Kind != StepHasNot || q.Steps[1].Key != "lang" {
		t.Fatalf("hasNot = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.interval('age', 27, 30)")
	if q.Steps[1].Lo != int64(27) || q.Steps[1].Hi != int64(30) {
		t.Fatalf("interval = %+v", q.Steps[1])
	}
}

func TestParseFilterOperators(t *testing.T) {
	for _, op := range []string{"==", "!=", "<", "<=", ">", ">="} {
		q := mustParse(t, "g.V.filter{it.age "+op+" 29}")
		if string(q.Steps[1].Op) != op {
			t.Fatalf("filter op %s = %+v", op, q.Steps[1])
		}
	}
	// Negative and float literals.
	q := mustParse(t, "g.V.filter{it.x == -5}")
	if q.Steps[1].Value != int64(-5) {
		t.Fatalf("negative literal = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.filter{it.w > 0.5}")
	if q.Steps[1].Value != 0.5 {
		t.Fatalf("float literal = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.filter{it.ok == true}")
	if q.Steps[1].Value != true {
		t.Fatalf("bool literal = %+v", q.Steps[1])
	}
}

func TestParseNamedSteps(t *testing.T) {
	q := mustParse(t, "g.V.as('x').out.back('x').aggregate(seen).except(seen)")
	if q.Steps[1].Name != "x" || q.Steps[3].Name != "x" {
		t.Fatalf("as/back = %+v", q.Steps)
	}
	if q.Steps[4].Kind != StepAggregate || q.Steps[4].Name != "seen" {
		t.Fatalf("aggregate = %+v", q.Steps[4])
	}
	if q.Steps[5].Kind != StepExcept || q.Steps[5].Name != "seen" {
		t.Fatalf("except = %+v", q.Steps[5])
	}
	q = mustParse(t, "g.V.out.back(1)")
	if q.Steps[2].BackN != 1 {
		t.Fatalf("back(1) = %+v", q.Steps[2])
	}
}

func TestParseRangeAndDedup(t *testing.T) {
	q := mustParse(t, "g.V.range(0, 9).dedup()")
	if q.Steps[1].Lo != int64(0) || q.Steps[1].Hi != int64(9) {
		t.Fatalf("range = %+v", q.Steps[1])
	}
}

func TestParsePropertyAccess(t *testing.T) {
	q := mustParse(t, "g.V(1).out('knows').name")
	last := q.Steps[len(q.Steps)-1]
	if last.Kind != StepProperty || last.Key != "name" {
		t.Fatalf("property = %+v", last)
	}
	q = mustParse(t, "g.V(1).property('age')")
	if q.Steps[1].Key != "age" {
		t.Fatalf("property() = %+v", q.Steps[1])
	}
}

func TestParseIfThenElse(t *testing.T) {
	q := mustParse(t, "g.V.ifThenElse{it.lang == 'java'}{it.in('created')}{it.out('knows')}")
	s := q.Steps[1]
	if s.Test == nil || s.Test.Key != "lang" || s.Test.Value != "java" {
		t.Fatalf("test = %+v", s.Test)
	}
	if len(s.Then) != 1 || s.Then[0].Kind != StepIn {
		t.Fatalf("then = %+v", s.Then)
	}
	if len(s.Else) != 1 || s.Else[0].Kind != StepOut {
		t.Fatalf("else = %+v", s.Else)
	}
	// Identity branch.
	q = mustParse(t, "g.V.ifThenElse{it.x == 1}{it}{it.out}")
	if len(q.Steps[1].Then) != 0 {
		t.Fatalf("identity then = %+v", q.Steps[1].Then)
	}
}

func TestParseLoop(t *testing.T) {
	q := mustParse(t, "g.V(1).as('x').out('isPartOf').loop('x'){it.loops < 3}")
	s := q.Steps[3]
	if s.Kind != StepLoop || s.Name != "x" || s.LoopMax != 3 {
		t.Fatalf("loop = %+v", s)
	}
	q = mustParse(t, "g.V(1).out.loop(1){it.loops <= 4}")
	if q.Steps[2].BackN != 1 || q.Steps[2].LoopMax != 5 {
		t.Fatalf("loop(1) = %+v", q.Steps[2])
	}
}

func TestParseAppendixExample(t *testing.T) {
	// Simplified form of the paper's Appendix B translated query.
	q := mustParse(t, `g.V('URI', 'http://dbpedia.org/ontology/Person').in('rdf_type').has('rdfs_label', 'Montreal Carabins').aggregate(var5).as('var5').out('thumbnail').as('var4').back(1).out('pageurl').as('var8').table(t1).iterate()`)
	kinds := []StepKind{StepV, StepIn, StepHas, StepAggregate, StepAs, StepOut, StepAs, StepBack, StepOut, StepAs, StepTable, StepIterate}
	if len(q.Steps) != len(kinds) {
		t.Fatalf("steps = %d, want %d", len(q.Steps), len(kinds))
	}
	for i, k := range kinds {
		if q.Steps[i].Kind != k {
			t.Fatalf("step %d = %v, want %v", i, q.Steps[i].Kind, k)
		}
	}
}

func TestParseOrderGroup(t *testing.T) {
	q := mustParse(t, "g.V.order()")
	if q.Steps[1].Kind != StepOrder || q.Steps[1].KeyExpr != nil {
		t.Fatalf("order() = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.order{it.age}")
	if q.Steps[1].Kind != StepOrder || q.Steps[1].KeyExpr == nil {
		t.Fatalf("order{key} = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.groupCount{it.age / 2}")
	if q.Steps[1].Kind != StepGroupCount || q.Steps[1].KeyExpr == nil || q.Steps[1].ValueExpr != nil {
		t.Fatalf("groupCount = %+v", q.Steps[1])
	}
	q = mustParse(t, "g.V.groupBy{it.lang}{it.name}")
	if q.Steps[1].Kind != StepGroupBy || q.Steps[1].KeyExpr == nil || q.Steps[1].ValueExpr == nil {
		t.Fatalf("groupBy = %+v", q.Steps[1])
	}

	for _, bad := range []string{
		"g.V.order{}",              // empty key closure
		"g.V.order{it.age",         // unterminated
		"g.V.groupBy{it.a}",        // missing value closure
		"g.V.groupCount{it.a}{it}", // groupCount takes one closure
		"g.V.groupCount{it.loops}", // it.loops outside a loop closure
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"V.out",                      // missing g
		"g",                          // empty pipeline
		"g.filter{it.x == 1}",        // must start with V/E
		"g.V.filter{x == 1}",         // closure must use it
		"g.V.filter{it.x ~ 1}",       // bad operator
		"g.V.has()",                  // missing args
		"g.V.range(1)",               // missing high
		"g.V.loop('x'){it.count<3}",  // loop must test it.loops
		"g.V.out(",                   // unterminated
		"g.V.filter{it.x == 'open",   // unterminated string
		"g.V.back()",                 // back needs target
		"g.V.has('age', T.weird, 1)", // unknown token
		"g.ifThenElse{it.",           // FuzzParse crasher: next() ran past EOF
		"g.V.filter{it.",             // same class, predicate closure
		"g.V.loop('x'){it.",          // same class, loop closure
		// FuzzParse: a T token in a value slot used to be stored as the
		// value and render unquoted ("has('', >)"), breaking the String()
		// round trip. All four value positions must reject it.
		"g.V.has('k', T.gt)",
		"g.V.has('k', T.gt, T.lt)",
		"g.V.interval('k', T.gt, 3)",
		"g.V.interval('k', 1, T.lt)",
		"g.V('name', T.eq)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRoundTripString(t *testing.T) {
	queries := []string{
		"g.V.filter{it.tag=='w'}.both.dedup().count()",
		"g.V(1).out('knows').in('created').path",
		"g.V.has('age', T.gt, 29).out.count()",
		"g.V('key', 'val').as('x').out.back('x')",
		"g.V.ifThenElse{it.a == 1}{it.out}{it.in}.count()",
		"g.V(1).as('s').out('isPartOf').loop('s'){it.loops < 5}.dedup().count()",
		// Closure-expression grammar and the order/group pipes.
		"g.V.filter{it.age * 2 + 1 >= 59 || !(it.name == 'marko')}",
		"g.V.filter{60 / it.age % 3 == 2 && it.w > 0.25}",
		"g.V.filter{it.name.contains('ar') && it.name.startsWith('m')}",
		"g.V.filter{-1 < it.k}",
		"g.V.order().range(0, 9)",
		"g.V.order{100 / it.age}",
		"g.E.groupCount{it.label}.count()",
		"g.V.groupBy{it.lang}{it.name}",
		"g.V.ifThenElse{it.age / 2 > 14}{it.out}{it.in}",
	}
	for _, src := range queries {
		q := mustParse(t, src)
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", rendered, src, err)
		}
		if q2.String() != rendered {
			t.Fatalf("round trip unstable: %q vs %q", rendered, q2.String())
		}
	}
}

func TestDoubleQuotedStrings(t *testing.T) {
	q := mustParse(t, `g.V.has("name", "marko")`)
	if q.Steps[1].Value != "marko" {
		t.Fatalf("double quotes = %+v", q.Steps[1])
	}
}

func TestEscapedStrings(t *testing.T) {
	q := mustParse(t, `g.V.has('name', 'it\'s')`)
	if q.Steps[1].Value != "it's" {
		t.Fatalf("escape = %+v", q.Steps[1])
	}
}

// TestRoundTripEscapedStrings is a FuzzParse regression: String() used
// to render string values unescaped, so a parsed 'it\'s' printed as
// 'it's' — which no longer parses.
func TestRoundTripEscapedStrings(t *testing.T) {
	for _, src := range []string{
		`g.V.has('name', 'it\'s')`,
		`g.V.has('name', 'a\\b')`,
		`g.V('k', '\'\\')`,
		"g.V.filter{it.A}", // FuzzParse: existence filter rendered as "it.A  <nil>"
	} {
		q := mustParse(t, src)
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", rendered, src, err)
		}
		if q2.String() != rendered {
			t.Fatalf("round trip unstable: %q vs %q", rendered, q2.String())
		}
	}
}

// TestShapeKey pins which literals of a query are arguments and which are
// part of its shape — the key one prepared statement is shared under.
func TestShapeKey(t *testing.T) {
	same := [][2]string{
		{"g.V(1,2)", "g.V(7, 8, 9)"}, // an id list of any length is one argument
		{"g.V(1).out('a')", "g.V(2, 3).out('a')"},
		{"g.E(5).inV", "g.E(6, 7).inV"},
		{"g.V.has('k', 1)", "g.V.has('k', -20)"},
		{"g.V.has('k', 'x')", `g.V.has("k", 'it\'s')`},
		{"g.V.has('k', T.gt, 1)", "g.V.has( 'k' , T.gt , 99 )"},
		{"g.V('name', 'a').out", "g.V('name', 'b').out"},
		{"g.V.interval('k', 1, 5)", "g.V.interval('k', 2, 3)"},
		{"g.V.filter{it.k > 1}", "g.V.filter{it.k > 4}"}, // a closure that is one comparison is a has
		{"g.V.ifThenElse{it.k == 1}{it.out}{it.in}", "g.V.ifThenElse{it.k == 3}{it.out}{it.in}"},
	}
	for _, c := range same {
		a, b := mustParse(t, c[0]), mustParse(t, c[1])
		if a.Shape != b.Shape {
			t.Errorf("%q and %q differ in shape: %q vs %q", c[0], c[1], a.Shape, b.Shape)
		}
	}
	differ := [][2]string{
		{"g.V(1).out('a')", "g.V(1).out('b')"},              // labels
		{"g.V(1).out('a')", "g.V(1).out('a', 'b')"},         //
		{"g.V.has('k', 1)", "g.V.has('j', 1)"},              // property keys
		{"g.V.has('k', 1)", "g.V.has('k', 'x')"},            // an argument's kind
		{"g.V.has('k', 1)", "g.V.has('k', 1.5)"},            //
		{"g.V.has('k', 1)", "g.V.has('k', true)"},           //
		{"g.V.has('k', 1)", "g.V.has('k', T.gt, 1)"},        // comparison operators
		{"g.V.has('k', T.gt, 1)", "g.V.has('k', T.gte, 1)"}, //
		{"g.V.has('k', 1)", "g.V.has('k')"},                 //
		{"g.V(1)", "g.V"},                                   // sources
		{"g.V(1)", "g.E(1)"},                                //
		{"g.V(1)", "g.V('k', 1)"},                           //
		{"g.V.as('s').out.loop('s'){it.loops < 2}", "g.V.as('s').out.loop('s'){it.loops < 3}"}, // loop depths
		{"g.V.out.back(1)", "g.V.out.back(2)"},                                                 // path positions
		{"g.V.range(0, 4)", "g.V.range(0, 5)"},                                                 // range bounds decide LIMIT and the estimates
		{"g.V.filter{it.k + 1 > 2}", "g.V.filter{it.k + 1 > 3}"},                               // a general closure's constants are rendered with it
		{"g.V.order{it.k}", "g.V.order{it.j}"},
	}
	for _, c := range differ {
		a, b := mustParse(t, c[0]), mustParse(t, c[1])
		if a.Shape == b.Shape {
			t.Errorf("%q and %q share the shape %q", c[0], c[1], a.Shape)
		}
	}

	// The arguments, in marker order, with the positions the steps record.
	q := mustParse(t, "g.V(4, 5).has('a', 'x').interval('b', 1, 2.5).ifThenElse{it.c == true}{it.out.has('d', 7)}{it.in}")
	wantShape := "g.V(?*).has('a', ?s).interval('b', ?i, ?f).ifThenElse{it.c == ?b}{it.out.has('d', ?i)}{it.in}"
	if q.Shape != wantShape {
		t.Fatalf("shape = %q, want %q", q.Shape, wantShape)
	}
	if len(q.Args) != 6 || len(q.Args[0].IDs) != 2 || q.Args[1].Val != "x" || q.Args[2].Val != int64(1) ||
		q.Args[3].Val != 2.5 || q.Args[4].Val != true || q.Args[5].Val != int64(7) {
		t.Fatalf("args = %+v", q.Args)
	}
	if q.Steps[0].Arg != 0 || q.Steps[1].Arg != 1 || q.Steps[2].Arg != 2 || q.Steps[3].Arg != 4 || q.Steps[3].Then[1].Arg != 5 {
		t.Fatalf("argument positions: %d %d %d %d %d", q.Steps[0].Arg, q.Steps[1].Arg, q.Steps[2].Arg, q.Steps[3].Arg, q.Steps[3].Then[1].Arg)
	}
	// Writing the arguments back gives the canonical text.
	if q.String() != "g.V(4, 5).has('a', 'x').interval('b', 1, 2.5).ifThenElse{it.c == true}{it.out.has('d', 7)}{it.in}" {
		t.Fatalf("String() = %q", q.String())
	}
}
