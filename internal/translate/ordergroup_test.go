package translate

import (
	"strings"
	"testing"
)

// SQL-shape tests for the closure/order/group templates, pinned across
// all three storage modes: every closure, whatever it divides by, is part
// of the one statement its query compiles to.

var allOpts = []Options{{}, {ForceEA: true}, {ForceHashTables: true}}

func TestClosureFilterTemplates(t *testing.T) {
	for _, opts := range allOpts {
		// Vertex closures join VA and compile operators 1:1.
		sql := tr(t, "g.V.out.filter{it.age * 2 >= 60 && it.name != 'lop'}", opts).SQL
		wants(t, sql,
			"VA A WHERE A.VID = V.VAL",
			"((JSON_VAL(A.ATTR, 'age') * 2) >= 60)",
			"(JSON_VAL(A.ATTR, 'name') <> 'lop')",
			" AND ",
		)
		// Edge closures read EA; it.label is the LBL column. Right after
		// the source they fold into its scan of EA.
		sql = tr(t, "g.E.filter{it.label == 'knows' || it.weight > 0.5}", opts).SQL
		wants(t, sql, "SELECT EID AS VAL FROM EA WHERE ((LBL = 'knows') OR (JSON_VAL(ATTR, 'weight') > 0.5))")
		sql = tr(t, "g.V(1).outE.filter{it.label == 'knows' || it.weight > 0.5}", opts).SQL
		wants(t, sql, "EA A WHERE A.EID = V.VAL", "(A.LBL = 'knows')", "(JSON_VAL(A.ATTR, 'weight') > 0.5)", " OR ")
		// Value closures compare VAL directly, no attribute join.
		sql = tr(t, "g.V.id.filter{it > 2}", opts).SQL
		wants(t, sql, "V WHERE (V.VAL > 2)")
		// String builtins map to scalar functions.
		sql = tr(t, "g.V.filter{it.name.startsWith('ma') && it.name.contains('rko')}", opts).SQL
		wants(t, sql, "STARTSWITH(JSON_VAL(ATTR, 'name'), 'ma')", "CONTAINS(JSON_VAL(ATTR, 'name'), 'rko')")
		// Negation renders through SQL NOT; unary minus stays prefix.
		sql = tr(t, "g.V.filter{!(it.age == 29) && it.k > -1}", opts).SQL
		wants(t, sql, "(NOT (JSON_VAL(ATTR, 'age') = 29))", "> (- 1)")
	}
}

func TestOrderTemplates(t *testing.T) {
	for _, opts := range allOpts {
		// order() sorts the value column in place.
		sql := tr(t, "g.V.out.order()", opts).SQL
		wants(t, sql, "ORDER BY VAL")
		rejects(t, sql, "OKEY")
		// order{key} computes the key beside the element — in the source
		// scan, right after it — sorts on (key, element), then projects
		// the key away.
		sql = tr(t, "g.V.order{it.age}", opts).SQL
		wants(t, sql,
			"T1 AS (SELECT VID AS VAL, JSON_VAL(ATTR, 'age') AS OKEY FROM VA WHERE VID >= 0)",
			"T2 AS (SELECT VAL, OKEY FROM T1 ORDER BY OKEY, VAL)",
			"SELECT VAL FROM T2",
		)
		sql = tr(t, "g.V.out.order{it.age}", opts).SQL
		wants(t, sql, "SELECT V.VAL AS VAL, JSON_VAL(A.ATTR, 'age') AS OKEY FROM", "VA A WHERE A.VID = V.VAL")
		// order{key} + range is the paginate shape: the sort itself keeps
		// only the rows LIMIT/OFFSET returns.
		sql = tr(t, "g.V.order{it.name}.range(0, 9)", opts).SQL
		wants(t, sql, "T2 AS (SELECT VAL, OKEY FROM T1 ORDER BY OKEY, VAL LIMIT 10 OFFSET 0), T3 AS (SELECT VAL FROM T2) SELECT VAL FROM T3")
		// Only when range follows directly: a cut after another pipe, and
		// an unkeyed order's cut, stay CTEs of their own.
		sql = tr(t, "g.V.order{it.name}.out.range(0, 9)", opts).SQL
		wants(t, sql, "ORDER BY OKEY, VAL)", "LIMIT 10 OFFSET 0)")
		sql = tr(t, "g.V.out.order().range(2, 3)", opts).SQL
		wants(t, sql, "ORDER BY VAL), ", "LIMIT 2 OFFSET 2)")
		// Edge keys resolve label via LBL.
		sql = tr(t, "g.E.order{it.label}", opts).SQL
		wants(t, sql, "SELECT EID AS VAL, LBL AS OKEY FROM EA")
		sql = tr(t, "g.E(1).outV.outE.order{it.label}", opts).SQL
		wants(t, sql, "A.LBL AS OKEY", "EA A WHERE A.EID = V.VAL")
	}
}

func TestGroupTemplates(t *testing.T) {
	for _, opts := range allOpts {
		// groupCount packs (key, COUNT(*)) per group and orders groups.
		sql := tr(t, "g.V.out.groupCount{it.age}", opts).SQL
		wants(t, sql,
			"(LIST() || JSON_VAL(A.ATTR, 'age') || COUNT(*)) AS VAL",
			"GROUP BY JSON_VAL(A.ATTR, 'age')",
			"ORDER BY VAL",
		)
		// groupBy aggregates values with LISTAGG; right after the source it
		// groups the scan itself.
		sql = tr(t, "g.V.groupBy{it.lang}{it.name}", opts).SQL
		wants(t, sql,
			"T1 AS (SELECT (LIST() || JSON_VAL(ATTR, 'lang') || LISTAGG(JSON_VAL(ATTR, 'name'))) AS VAL FROM VA WHERE VID >= 0 GROUP BY JSON_VAL(ATTR, 'lang'))",
		)
		// Edge label grouping goes through LBL.
		sql = tr(t, "g.E.groupCount{it.label}", opts).SQL
		wants(t, sql, "(LIST() || LBL || COUNT(*)) AS VAL FROM EA GROUP BY LBL")
		// Value-typed input groups on VAL itself, no attribute join.
		sql = tr(t, "g.V.id.groupCount{it}", opts).SQL
		wants(t, sql, "(LIST() || V.VAL || COUNT(*)) AS VAL", "V GROUP BY V.VAL")
		rejects(t, sql, "VA A")
	}
}

func TestClosureIfThenElseTemplate(t *testing.T) {
	// A general closure test reuses the branch-union template with the
	// compiled condition on the then-side.
	sql := tr(t, "g.V.ifThenElse{it.age > 28 && it.age < 33}{it.out}{it.in}", Options{ForceEA: true}).SQL
	wants(t, sql,
		"((JSON_VAL(A.ATTR, 'age') > 28) AND (JSON_VAL(A.ATTR, 'age') < 33))",
		"NOT IN (SELECT VAL FROM",
		"UNION ALL",
	)
}

// TestDivisionIsOneStatement: `/` and `%` map to SQL like every other
// operator, whatever the divisor (a zero divisor is NULL in the engine and
// in the closure evaluator alike), so a dividing closure is one more term
// of the one statement and may be followed by any pipe.
func TestDivisionIsOneStatement(t *testing.T) {
	for _, opts := range allOpts {
		for q, want := range map[string]string{
			"g.V.filter{60 / it.age >= 2}": "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND ((60 / JSON_VAL(ATTR, 'age')) >= 2)",
			"g.V.order{100 / it.age}": "WITH T1 AS (SELECT VID AS VAL, (100 / JSON_VAL(ATTR, 'age')) AS OKEY FROM VA WHERE VID >= 0), " +
				"T2 AS (SELECT VAL, OKEY FROM T1 ORDER BY OKEY, VAL), T3 AS (SELECT VAL FROM T2) SELECT VAL FROM T3",
			"g.V.groupCount{it.k % it.m}": "WITH T1 AS (SELECT (LIST() || (JSON_VAL(ATTR, 'k') % JSON_VAL(ATTR, 'm')) || COUNT(*)) AS VAL FROM VA WHERE VID >= 0 " +
				"GROUP BY (JSON_VAL(ATTR, 'k') % JSON_VAL(ATTR, 'm'))), T2 AS (SELECT VAL FROM T1 ORDER BY VAL) SELECT VAL FROM T2",
			"g.V.filter{it.age / 0 == 1}": "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND ((JSON_VAL(ATTR, 'age') / 0) = 1)",
		} {
			if got := tr(t, q, opts).SQL; got != want {
				t.Errorf("%q %+v:\n got %s\nwant %s", q, opts, got, want)
			}
		}
		// Pipes that need path bookkeeping, marks or branches after the
		// division translate like after any other filter: under path
		// tracking the closure joins VA, otherwise it folds into the scan.
		for q, want := range map[string]string{
			"g.V.filter{60 / it.age >= 2}.out.path":                                  "T2 AS (SELECT V.VAL AS VAL, V.PATH AS PATH FROM T1 V, VA A WHERE A.VID = V.VAL AND ((60 / JSON_VAL(A.ATTR, 'age')) >= 2))",
			"g.V.filter{60 / it.age >= 2}.out.in.simplePath":                         "T2 AS (SELECT V.VAL AS VAL, V.PATH AS PATH FROM T1 V, VA A WHERE A.VID = V.VAL AND ((60 / JSON_VAL(A.ATTR, 'age')) >= 2))",
			"g.V.as('x').out.filter{60 / it.age >= 2}.back('x')":                     "VA A WHERE A.VID = V.VAL AND ((60 / JSON_VAL(A.ATTR, 'age')) >= 2))",
			"g.V.filter{it.m / it.k == 1}.as('s').out.loop('s'){it.loops < 3}":       "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0 AND ((JSON_VAL(ATTR, 'm') / JSON_VAL(ATTR, 'k')) = 1)), T2 AS (",
			"g.V.filter{1 / it.k > 0}.ifThenElse{it.age % it.k == 0}{it.out}{it.in}": "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0 AND ((1 / JSON_VAL(ATTR, 'k')) > 0)), T2 AS (SELECT V.VAL AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') % JSON_VAL(A.ATTR, 'k')) = 0))",
		} {
			wants(t, tr(t, q, opts).SQL, want)
		}
	}
}

func TestOrderGroupPathRefusal(t *testing.T) {
	// Like dedup, order/group collapse the PATH column; a later
	// path-dependent step has no representative path to keep.
	for _, q := range []string{
		"g.V.out.order().out.path",
		"g.V.out.groupCount{it.age}.path",
	} {
		err := trErr(t, q, Options{})
		if !strings.Contains(err.Error(), "path-dependent") {
			t.Fatalf("%q: unexpected error %v", q, err)
		}
	}
	// order before a path pipe that already consumed tracking is fine.
	sql := tr(t, "g.V.out.path.order()", Options{}).SQL
	wants(t, sql, "ORDER BY VAL")
}
