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
		// Edge closures join EA; it.label is the LBL column.
		sql = tr(t, "g.E.filter{it.label == 'knows' || it.weight > 0.5}", opts).SQL
		wants(t, sql, "EA A WHERE A.EID = V.VAL", "(A.LBL = 'knows')", "(JSON_VAL(A.ATTR, 'weight') > 0.5)", " OR ")
		// Value closures compare VAL directly, no attribute join.
		sql = tr(t, "g.V.id.filter{it > 2}", opts).SQL
		wants(t, sql, "V WHERE (V.VAL > 2)")
		// String builtins map to scalar functions.
		sql = tr(t, "g.V.filter{it.name.startsWith('ma') && it.name.contains('rko')}", opts).SQL
		wants(t, sql, "STARTSWITH(JSON_VAL(A.ATTR, 'name'), 'ma')", "CONTAINS(JSON_VAL(A.ATTR, 'name'), 'rko')")
		// Negation renders through SQL NOT; unary minus stays prefix.
		sql = tr(t, "g.V.filter{!(it.age == 29) && it.k > -1}", opts).SQL
		wants(t, sql, "(NOT (JSON_VAL(A.ATTR, 'age') = 29))", "> (- 1)")
	}
}

func TestOrderTemplates(t *testing.T) {
	for _, opts := range allOpts {
		// order() sorts the value column in place.
		sql := tr(t, "g.V.out.order()", opts).SQL
		wants(t, sql, "ORDER BY VAL")
		rejects(t, sql, "OKEY")
		// order{key} computes the key, sorts on (key, element), then
		// projects the key away — three CTEs.
		sql = tr(t, "g.V.order{it.age}", opts).SQL
		wants(t, sql,
			"JSON_VAL(A.ATTR, 'age') AS OKEY",
			"ORDER BY OKEY, VAL",
		)
		if !strings.Contains(sql, "SELECT VAL FROM T3") {
			t.Fatalf("keyed order must strip OKEY via a final projection:\n%s", sql)
		}
		// order + range is the paginate shape: pushdown, ORDER BY before
		// LIMIT/OFFSET.
		sql = tr(t, "g.V.order{it.name}.range(0, 9)", opts).SQL
		ob := strings.Index(sql, "ORDER BY OKEY, VAL")
		lim := strings.Index(sql, "LIMIT 10 OFFSET 0")
		if ob < 0 || lim < 0 || lim < ob {
			t.Fatalf("order+range must push ORDER BY before LIMIT (order@%d limit@%d):\n%s", ob, lim, sql)
		}
		// Edge keys resolve label via LBL.
		sql = tr(t, "g.E.order{it.label}", opts).SQL
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
		// groupBy aggregates values with LISTAGG.
		sql = tr(t, "g.V.groupBy{it.lang}{it.name}", opts).SQL
		wants(t, sql,
			"(LIST() || JSON_VAL(A.ATTR, 'lang') || LISTAGG(JSON_VAL(A.ATTR, 'name'))) AS VAL",
			"GROUP BY JSON_VAL(A.ATTR, 'lang')",
		)
		// Edge label grouping goes through LBL.
		sql = tr(t, "g.E.groupCount{it.label}", opts).SQL
		wants(t, sql, "(LIST() || A.LBL || COUNT(*)) AS VAL", "GROUP BY A.LBL")
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
// in the closure evaluator alike), so a dividing closure is one more CTE of
// the one statement and may be followed by any pipe.
func TestDivisionIsOneStatement(t *testing.T) {
	const src = "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0), "
	for _, opts := range allOpts {
		for q, want := range map[string]string{
			"g.V.filter{60 / it.age >= 2}": src +
				"T2 AS (SELECT V.VAL AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL AND ((60 / JSON_VAL(A.ATTR, 'age')) >= 2)) SELECT VAL FROM T2",
			"g.V.order{100 / it.age}": src +
				"T2 AS (SELECT V.VAL AS VAL, (100 / JSON_VAL(A.ATTR, 'age')) AS OKEY FROM T1 V, VA A WHERE A.VID = V.VAL), " +
				"T3 AS (SELECT VAL, OKEY FROM T2 ORDER BY OKEY, VAL), T4 AS (SELECT VAL FROM T3) SELECT VAL FROM T4",
			"g.V.groupCount{it.k % it.m}": src +
				"T2 AS (SELECT (LIST() || (JSON_VAL(A.ATTR, 'k') % JSON_VAL(A.ATTR, 'm')) || COUNT(*)) AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL " +
				"GROUP BY (JSON_VAL(A.ATTR, 'k') % JSON_VAL(A.ATTR, 'm'))), T3 AS (SELECT VAL FROM T2 ORDER BY VAL) SELECT VAL FROM T3",
			"g.V.filter{it.age / 0 == 1}": src +
				"T2 AS (SELECT V.VAL AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') / 0) = 1)) SELECT VAL FROM T2",
		} {
			if got := tr(t, q, opts).SQL; got != want {
				t.Errorf("%q %+v:\n got %s\nwant %s", q, opts, got, want)
			}
		}
		// Pipes that need path bookkeeping, marks or branches after the
		// division translate like after any other filter.
		for _, q := range []string{
			"g.V.filter{60 / it.age >= 2}.out.path",
			"g.V.filter{60 / it.age >= 2}.out.in.simplePath",
			"g.V.as('x').out.filter{60 / it.age >= 2}.back('x')",
			"g.V.filter{it.m / it.k == 1}.as('s').out.loop('s'){it.loops < 3}",
			"g.V.filter{1 / it.k > 0}.ifThenElse{it.age % it.k == 0}{it.out}{it.in}",
		} {
			wants(t, tr(t, q, opts).SQL, " / JSON_VAL(A.ATTR, ", "WITH T1 AS (")
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
