package gremlin

import (
	"testing"
)

// FuzzParse fuzzes the Gremlin parser. Properties:
//
//  1. Parse never panics, whatever the input.
//  2. Anything Parse accepts renders (String) to a form Parse accepts
//     again, and the rendering is a fixed point (stable round trip).
//  3. A query and its rendering have one shape and as many arguments.
//
// Run with: go test -fuzz=FuzzParse ./internal/gremlin/
// Crashers get minimized into testdata/fuzz and, once fixed, folded
// into parser_test.go as permanent regressions.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// The valid dialect, one seed per construct family.
		"g.V",
		"g.E.count()",
		"g.V(1, 4)",
		"g.V('name', 'marko')",
		"g.V(1).out('knows', 'created').in.both('likes')",
		"g.V(1).outE('created').inV.dedup()",
		"g.E(7).bothV.id",
		"g.V.has('age', T.gte, 29).hasNot('lang')",
		"g.V.has('age')",
		"g.V.interval('age', 20, 30)",
		"g.V.filter{it.age >= 29 && it.name == 'marko'}",
		"g.V.name",
		"g.V(1).out.in.simplePath.path",
		"g.V.dedup().range(0, 4).count()",
		"g.V(1).as('x').out.back('x')",
		"g.V(1).as('s').out('next').loop('s'){it.loops < 5}.dedup().count()",
		"g.V.ifThenElse{it.a == 1}{it.out}{it.in}.count()",
		"g.V.aggregate('seen').out.except('seen')",
		"g.V.out.retain('seen')",
		`g.V.has("name", "it\'s")`,
		"g.V.table.iterate",
		// Closure-expression grammar: arithmetic, logic, builtins.
		"g.V.filter{it.age * 2 + 1 >= 59 || !(it.name == 'x')}",
		"g.V.filter{60 / it.age % 3 == 2}",
		"g.V.filter{it.name.contains('ar') && it.name.startsWith('m')}",
		"g.V.filter{(it.a + it.b) * (it.c - 1) < -2}",
		"g.V.filter{it.w > 0.25 && it.w <= 0.75}",
		"g.V.filter{it.id % 2 == 0}",
		"g.V.ifThenElse{it.age / 2 > 14 && it.lang != 'java'}{it.out}{it.in}",
		"g.V.as('s').out.loop('s'){it.loops + 1 < 4}",
		// order/groupBy/groupCount pipes.
		"g.V.order()",
		"g.V.order{it.age}.range(0, 9)",
		"g.V.order{100 / it.age}",
		"g.E.order{it.w}",
		"g.V.groupCount{it.age}",
		"g.V.groupBy{it.lang}{it.name}",
		"g.E.groupCount{it.label}.count()",
		"g.V.id.groupCount{it}",
		// Hostile shapes over the new grammar.
		"g.V.order{",
		"g.V.order{}",
		"g.V.order{it.age",
		"g.V.groupBy{it.a}",
		"g.V.groupBy{it.a}{",
		"g.V.groupCount{it.a}{it.b}",
		"g.V.filter{1 == 2 == 3}",
		"g.V.filter{it.a && }",
		"g.V.filter{((((it.a))))}",
		"g.V.filter{it.a.contains}",
		"g.V.filter{it.a.contains(1)}",
		"g.V.filter{'x'.startsWith('y')}",
		"g.V.filter{it.loops < 2}",
		"g.V.filter{-  -1 == 1}",
		"g.V.filter{9999999999999999999999 > it.a}",
		"g.V.filter{0.000000000000000001 < it.w}",
		"g.V.filter{1e309 > it.w}",
		// Near-misses and hostile shapes.
		"",
		"g",
		"g.V(",
		"g.V)",
		"g.V..out",
		"g.V.out(",
		"g.V.filter{",
		"g.V.filter{it.x == 'open",
		"g.V.loop('x'){it.count<3}",
		"g.V.has('a', T.weird, 1)",
		"g.V.filter{it.x ~ 1}",
		"g.V(9999999999999999999999)",
		"g.V('\\'','\\\\')",
		"g.V.filter{it.é == 1}",
		"g.V.out.\x00",
		"g.V.range(-1, -5)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src) // must never panic
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip: Parse(%q) ok but re-parse of %q failed: %v", src, rendered, err)
		}
		if again := q2.String(); again != rendered {
			t.Fatalf("rendering not a fixed point for %q: %q vs %q", src, rendered, again)
		}
		if q2.Shape != q.Shape || len(q2.Args) != len(q.Args) {
			t.Fatalf("%q and its rendering %q differ in shape: %q (%d args) vs %q (%d args)",
				src, rendered, q.Shape, len(q.Args), q2.Shape, len(q2.Args))
		}
	})
}
