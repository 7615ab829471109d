package translate

import (
	"strings"
	"testing"

	"sqlgraph/internal/gremlin"
)

// fakeSchema is a minimal Schema with 3 out and 2 in columns.
type fakeSchema struct{}

func (fakeSchema) OutColumns() int { return 3 }
func (fakeSchema) InColumns() int  { return 2 }
func (fakeSchema) OutColumnFor(label string) int {
	if label == "knows" {
		return 1
	}
	return 0
}
func (fakeSchema) InColumnFor(label string) int { return 0 }

func tr(t *testing.T, query string, opts Options) *Translation {
	t.Helper()
	q, err := gremlin.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	out, err := Translate(q, fakeSchema{}, opts)
	if err != nil {
		t.Fatalf("translate %q: %v", query, err)
	}
	return out
}

func trErr(t *testing.T, query string, opts Options) error {
	t.Helper()
	q, err := gremlin.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	_, err = Translate(q, fakeSchema{}, opts)
	if err == nil {
		t.Fatalf("translate %q succeeded, want error", query)
	}
	return err
}

func wants(t *testing.T, sql string, fragments ...string) {
	t.Helper()
	for _, f := range fragments {
		if !strings.Contains(sql, f) {
			t.Fatalf("missing %q in:\n%s", f, sql)
		}
	}
}

func rejects(t *testing.T, sql string, fragments ...string) {
	t.Helper()
	for _, f := range fragments {
		if strings.Contains(sql, f) {
			t.Fatalf("unexpected %q in:\n%s", f, sql)
		}
	}
}

func TestSourceTemplates(t *testing.T) {
	wants(t, tr(t, "g.V", Options{}).SQL, "SELECT VID AS VAL FROM VA WHERE VID >= 0")
	wants(t, tr(t, "g.V(7)", Options{}).SQL, "VID IN (7)")
	wants(t, tr(t, "g.V(1, 2)", Options{}).SQL, "VID IN (1, 2)")
	wants(t, tr(t, "g.V('URI', 'x')", Options{}).SQL, "JSON_VAL(ATTR, 'URI') = 'x'")
	wants(t, tr(t, "g.E", Options{}).SQL, "SELECT EID AS VAL FROM EA")
	wants(t, tr(t, "g.E(5)", Options{}).SQL, "EID IN (5)")
}

func TestGraphQueryMerge(t *testing.T) {
	// Filters directly after the source merge into its WHERE clause
	// (Section 4.5.1's GraphQuery rewrite).
	sql := tr(t, "g.V.has('a', 1).hasNot('b').filter{it.c > 2}.count()", Options{}).SQL
	wants(t, sql,
		"JSON_VAL(ATTR, 'a') = 1",
		"JSON_VAL(ATTR, 'b') IS NULL",
		"JSON_VAL(ATTR, 'c') > 2")
	// All three conditions must be in the FIRST cte (a single VA scan).
	first := sql[:strings.Index(sql, "), ")]
	wants(t, first, "'a'", "'b'", "'c'")
}

func TestSingleHopUsesEA(t *testing.T) {
	sql := tr(t, "g.V(1).out('knows')", Options{}).SQL
	wants(t, sql, "EA P", "P.INV = V.VAL", "P.LBL = 'knows'")
	rejects(t, sql, "OPA")

	sql = tr(t, "g.V(1).in('knows')", Options{}).SQL
	wants(t, sql, "P.OUTV = V.VAL")

	sql = tr(t, "g.V(1).outE", Options{}).SQL
	wants(t, sql, "SELECT P.EID AS VAL")
}

func TestMultiHopUsesHashTables(t *testing.T) {
	sql := tr(t, "g.V(1).out('knows').out('knows')", Options{}).SQL
	// knows hashes to column 1 in the fake schema.
	wants(t, sql, "OPA P", "P.LBL1 = 'knows'", "P.VAL1 IS NOT NULL",
		"LEFT OUTER JOIN OSA S ON P.VAL = S.VALID", "COALESCE(S.VAL, P.VAL)",
		"P.VID >= 0")
	sql = tr(t, "g.V(1).in('x').in('x')", Options{}).SQL
	wants(t, sql, "IPA P", "LEFT OUTER JOIN ISA")
}

func TestUnlabeledHopUnnestsAllColumns(t *testing.T) {
	sql := tr(t, "g.V(1).out.out", Options{}).SQL
	wants(t, sql, "TABLE(VALUES(P.VAL0), (P.VAL1), (P.VAL2)) AS T(VAL)", "T.VAL IS NOT NULL")
	// In direction has 2 columns.
	sql = tr(t, "g.V(1).in.in", Options{}).SQL
	wants(t, sql, "TABLE(VALUES(P.VAL0), (P.VAL1)) AS T(VAL)")
}

func TestBothUnionsDirections(t *testing.T) {
	sql := tr(t, "g.V(1).both.both", Options{}).SQL
	wants(t, sql, "OPA", "IPA", "UNION ALL")
}

func TestEdgePipesOverHashTables(t *testing.T) {
	sql := tr(t, "g.V(1).out.outE('knows')", Options{}).SQL
	wants(t, sql, "P.EID1 AS EID", "COALESCE(S.EID, P.EID)")
}

func TestEdgeEndpointTemplates(t *testing.T) {
	// Gremlin outV = source = EA.INV in the paper's column naming.
	wants(t, tr(t, "g.E(5).outV", Options{}).SQL, "SELECT P.INV AS VAL")
	wants(t, tr(t, "g.E(5).inV", Options{}).SQL, "SELECT P.OUTV AS VAL")
	wants(t, tr(t, "g.E(5).bothV", Options{}).SQL, "TABLE(VALUES(P.INV), (P.OUTV))")
}

func TestFilterTemplates(t *testing.T) {
	sql := tr(t, "g.V(1).out.has('age', T.gt, 29)", Options{}).SQL
	wants(t, sql, "VA A WHERE A.VID = V.VAL", "JSON_VAL(A.ATTR, 'age') > 29")
	sql = tr(t, "g.E(1).has('weight', 0.5)", Options{}).SQL
	wants(t, sql, "JSON_VAL(ATTR, 'weight') = 0.5")
	sql = tr(t, "g.V(1).outE.has('label', 'knows')", Options{}).SQL
	wants(t, sql, "A.LBL = 'knows'")
	sql = tr(t, "g.V(1).out.interval('age', 10, 20)", Options{}).SQL
	wants(t, sql, ">= 10", "< 20")
}

func TestValueFilter(t *testing.T) {
	sql := tr(t, "g.V(1).out.name.filter{it.x == 'y'}", Options{})
	_ = sql
	// Property access then value comparison compares VAL directly...
	// actually a value filter ignores the key; ensure it translates.
	wants(t, sql.SQL, "V.VAL = 'y'")
}

func TestDedupCountRange(t *testing.T) {
	sql := tr(t, "g.V.out.out.dedup().count()", Options{}).SQL
	wants(t, sql, "SELECT DISTINCT VAL", "SELECT COUNT(*) AS VAL")
	sql = tr(t, "g.V.range(5, 14)", Options{}).SQL
	wants(t, sql, "LIMIT 10 OFFSET 5")
}

func TestPathTracking(t *testing.T) {
	out := tr(t, "g.V(1).out.out.path", Options{})
	wants(t, out.SQL, "LIST() AS PATH", "(V.PATH || V.VAL) AS PATH", "SELECT (V.PATH || V.VAL) AS VAL")
	if out.ElemType != ElemValue {
		t.Fatalf("path elem type = %v", out.ElemType)
	}
	sql := tr(t, "g.V(1).out.in.simplePath", Options{}).SQL
	wants(t, sql, "ISSIMPLEPATH(V.PATH || V.VAL) = 1")
}

func TestBackTranslation(t *testing.T) {
	sql := tr(t, "g.V.as('x').out('knows').back('x')", Options{}).SQL
	wants(t, sql, "(V.PATH || V.VAL)[0]", "LIST_TRIM(V.PATH || V.VAL, 2)")
	sql = tr(t, "g.V.out('knows').out('knows').back(1)", Options{}).SQL
	wants(t, sql, "(V.PATH || V.VAL)[1]")
	// back past the start fails.
	trErr(t, "g.V.back(3)", Options{})
	trErr(t, "g.V.back('nothing')", Options{})
}

func TestAggregateExceptRetain(t *testing.T) {
	sql := tr(t, "g.V.out('knows').aggregate(x).back(1).out.except(x)", Options{}).SQL
	wants(t, sql, "VAL NOT IN (SELECT VAL FROM")
	sql = tr(t, "g.V.out('knows').aggregate(x).back(1).out.retain(x)", Options{}).SQL
	wants(t, sql, "VAL IN (SELECT VAL FROM")
	trErr(t, "g.V.except(never)", Options{})
}

func TestIfThenElseTemplate(t *testing.T) {
	sql := tr(t, "g.V.ifThenElse{it.lang == 'java'}{it.in('x')}{it.out('x')}.count()", Options{}).SQL
	wants(t, sql, "JSON_VAL(A.ATTR, 'lang') = 'java'", "NOT IN (SELECT VAL FROM", "UNION ALL")
	// Branches ending in different element types are rejected.
	trErr(t, "g.V.ifThenElse{it.a == 1}{it.outE}{it.out}", Options{})
}

func TestLoopUnrolled(t *testing.T) {
	sql := tr(t, "g.V(1).as('s').out('knows').loop('s'){it.loops < 3}.count()", Options{}).SQL
	// Three traversal rounds -> three OPA references.
	if strings.Count(sql, "OPA") != 3 {
		t.Fatalf("expected 3 unrolled OPA hops:\n%s", sql)
	}
}

func TestLoopRecursive(t *testing.T) {
	sql := tr(t, "g.V(1).as('s').out('knows').loop('s'){it.loops < 4}.count()", Options{RecursiveLoops: true}).SQL
	wants(t, sql, "WITH RECURSIVE R(VAL, D)", "R.D + 1", "D = 4")
}

func TestForceOptions(t *testing.T) {
	sql := tr(t, "g.V(1).out('knows')", Options{ForceHashTables: true}).SQL
	wants(t, sql, "OPA")
	rejects(t, sql, "EA P")
	sql = tr(t, "g.V(1).out('knows').out('knows')", Options{ForceEA: true}).SQL
	wants(t, sql, "EA P")
	rejects(t, sql, "OPA")
}

func TestSideEffectPipesIdentity(t *testing.T) {
	a := tr(t, "g.V.out('knows').count()", Options{}).SQL
	b := tr(t, "g.V.out('knows').table(t1).iterate().count()", Options{}).SQL
	if a != b {
		t.Fatalf("side-effect pipes changed the translation:\n%s\nvs\n%s", a, b)
	}
}

func TestErrorCases(t *testing.T) {
	trErr(t, "g.E(1).out", Options{})                             // adjacency on edges
	trErr(t, "g.V(1).outV", Options{})                            // endpoints on vertices
	trErr(t, "g.V(1).id.out", Options{})                          // traversal on values... id keeps VAL but type=value
	trErr(t, "g.V(1).label", Options{})                           // label on vertices
	trErr(t, "g.V(1).id.name", Options{})                         // property on values
	trErr(t, "g.V.ifThenElse{it.a == 1}{it.path}{it}", Options{}) // unsupported branch shape
}

func TestStringEscaping(t *testing.T) {
	sql := tr(t, `g.V.has('k', 'O\'Brien')`, Options{}).SQL
	wants(t, sql, "'O''Brien'")
}

func TestLabelPipe(t *testing.T) {
	out := tr(t, "g.E(5).label", Options{})
	wants(t, out.SQL, "SELECT P.LBL AS VAL")
	if out.ElemType != ElemValue {
		t.Fatalf("label type = %v", out.ElemType)
	}
}

func TestPropertyPipe(t *testing.T) {
	sql := tr(t, "g.V(1).out.name", Options{}).SQL
	wants(t, sql, "JSON_VAL(A.ATTR, 'name')", "IS NOT NULL")
	sql = tr(t, "g.V(1).outE.weight", Options{}).SQL
	wants(t, sql, "EA A", "JSON_VAL(A.ATTR, 'weight')")
}

// TestTemplateAndRender: a translation is a template — ?N where the
// query's N-th argument goes, keys and labels written in — that depends on
// the query's shape only, and its SQL is that template with the arguments
// rendered as the translator always wrote Gremlin values into SQL.
func TestTemplateAndRender(t *testing.T) {
	a := tr(t, "g.V(1, 2).out('knows').has('age', T.gt, 29).interval('w', 0.5, 2)", Options{})
	wants(t, a.Template, "VID IN (?1)", "P.LBL = 'knows'", "JSON_VAL(A.ATTR, 'age') > ?2",
		"JSON_VAL(A.ATTR, 'w') >= ?3 AND JSON_VAL(A.ATTR, 'w') < ?4")
	wants(t, a.SQL, "VID IN (1, 2)", "JSON_VAL(A.ATTR, 'age') > 29", "JSON_VAL(A.ATTR, 'w') >= 0.5 AND JSON_VAL(A.ATTR, 'w') < 2")
	rejects(t, a.SQL, "?")

	// Another query of the shape: the same template, and rendering its
	// arguments into the first one's template gives its own SQL.
	b := tr(t, "g.V(7, 8, 9).out('knows').has('age', T.gt, -4).interval('w', 1.25, 10)", Options{})
	if a.Template != b.Template {
		t.Fatalf("one shape, two templates:\n%s\n%s", a.Template, b.Template)
	}
	qb, _ := gremlin.Parse("g.V(7, 8, 9).out('knows').has('age', T.gt, -4).interval('w', 1.25, 10)")
	if got := a.Render(qb.Args); got != b.SQL {
		t.Fatalf("Render = %s\nwant %s", got, b.SQL)
	}

	// Every kind of value, and a key that holds what look like markers.
	c := tr(t, `g.V('na?1me', "it's ?2").has('ok', true).has('k?', 'x').has('f', 2.0)`, Options{})
	wants(t, c.Template, "JSON_VAL(ATTR, 'na?1me') = ?1", "JSON_VAL(ATTR, 'ok') = ?2", "JSON_VAL(ATTR, 'k?') = ?3", "JSON_VAL(ATTR, 'f') = ?4")
	wants(t, c.SQL, "JSON_VAL(ATTR, 'na?1me') = 'it''s ?2'", "JSON_VAL(ATTR, 'ok') = TRUE", "JSON_VAL(ATTR, 'k?') = 'x'", "JSON_VAL(ATTR, 'f') = 2")

	// An unrolled loop repeats its segment, and the segment's argument.
	d := tr(t, "g.V(1).as('s').out.has('k', 5).loop('s'){it.loops < 3}", Options{})
	if n := strings.Count(d.Template, "= ?2"); n != 3 {
		t.Fatalf("loop segment's argument read %d times, want once per pass:\n%s", n, d.Template)
	}

	// The constants of a general closure belong to the shape.
	e := tr(t, "g.V.filter{it.age * 2 > 60}", Options{})
	wants(t, e.Template, "* 2) > 60)")
	rejects(t, e.Template, "?")
}
