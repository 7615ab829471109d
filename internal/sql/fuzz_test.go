package sql

import (
	"strings"
	"testing"
)

// FuzzParseExpr fuzzes the expression parser. Properties:
//
//  1. ParseExpr never panics, whatever the input.
//  2. Anything ParseExpr accepts renders (SQL) to a form ParseExpr
//     accepts again, and the rendering is a fixed point. Expression
//     indexes and the predicates matched to them meet on this text.
//
// An expression holding a subquery renders it as "(<subquery>)", which
// is not SQL, and is skipped.
//
// Run with: go test -fuzz=FuzzParseExpr ./internal/sql/
func FuzzParseExpr(f *testing.F) {
	seeds := []string{
		// TestExprSQLRendering.
		"a = 1",
		"JSON_VAL(attr,'name')",
		"x IS NOT NULL",
		"a IN (1, 2)",
		"COUNT(*)",
		"path[0]",
		// Attribute index keys, and the predicates matched to them.
		"JSON_VAL(ATTR, 'name')",
		"JSON_VAL(ATTR, 'o''k')",
		"JSON_VAL(P.ATTR, 'weight') = 0.4",
		"JSON_VAL(ATTR, 'k') = 'O''Brien'",
		"JSON_VAL(ATTR, 'na?1me') = 'it''s ?2'",
		"JSON_VAL(ATTR, 'ok') = TRUE",
		"JSON_VAL(ATTR, 'k?') = ?3",
		"JSON_VAL(A.ATTR, 'w') >= ?3 AND JSON_VAL(A.ATTR, 'w') < ?4",
		// The rest of the grammar.
		"a + b * c - d / e % f",
		"x NOT LIKE 'a%'",
		"x NOT IN (1, 2, 3)",
		"NOT (a = b) OR c <> d",
		"COALESCE(a, b, c)",
		"CAST(x AS BIGINT)",
		"(a || b)",
		"-5",
		"-x",
		"- 2.5",
		"1e21 + .5",
		"NULL IS NULL",
		"x IN (SELECT v FROM t)",
		// Forms outside the closed dialect: refused.
		"x NOT BETWEEN 1 AND 10",
		"COUNT(DISTINCT x)",
		"CASE WHEN a = 1 THEN 'x' ELSE 'y' END",
		"CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END",
		"EXISTS (SELECT 1 FROM t)",
		// Near-misses.
		"",
		"JSON_VAL(ATTR, 'open",
		"a = ",
		"CASE END",
		"x IN ()",
		// Once rendered to text that read back as something else.
		"\xff",     // a byte of a multi-byte character lexed as a letter
		`""`,       // an empty quoted name rendered bare
		`"t".a`,    // a lower-case quoted name rendered bare
		`"SELECT"`, // a keyword as a quoted name
		`"f"(1) + CAST(x AS "DOUBLE")`,
		"-0.", // a float rendered as an integer
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseExpr(src) // must never panic
		if err != nil {
			return
		}
		rendered := e.SQL()
		if strings.Contains(rendered, "<subquery>") {
			return
		}
		e2, err := ParseExpr(rendered)
		if err != nil {
			t.Fatalf("round trip: ParseExpr(%q) ok but re-parse of %q failed: %v", src, rendered, err)
		}
		if again := e2.SQL(); again != rendered {
			t.Fatalf("rendering not a fixed point for %q: %q vs %q", src, rendered, again)
		}
	})
}

// parseDialect holds one statement per row of DESIGN §23's table: the
// forms the closed dialect keeps.
var parseDialect = []string{
	"SELECT DISTINCT V.VAL AS VAL, P.X Y FROM T1 V, OPA AS P",
	"WITH T1 AS (SELECT VID AS VAL FROM VA), T2 AS (SELECT VAL FROM T1) SELECT VAL FROM T2",
	"SELECT VAL FROM T1 UNION ALL (SELECT VAL FROM T2 UNION ALL SELECT VAL FROM T3)",
	"SELECT P.VAL FROM T1 V, EA P WHERE V.VAL = P.INV AND P.LBL = 'knows'",
	"SELECT COALESCE(S.VAL, P.VAL) AS VAL FROM T2 P LEFT OUTER JOIN OSA S ON P.VAL = S.VALID LEFT JOIN ISA I ON P.VAL = I.VALID",
	"SELECT T.VAL FROM T1 V, OPA P, TABLE(VALUES(P.VAL0), (P.VAL1)) AS T(VAL) WHERE V.VAL = P.VID AND T.VAL IS NOT NULL",
	"SELECT VAL, COUNT(*) FROM T1 GROUP BY VAL",
	"SELECT VAL FROM T1 ORDER BY - K, VAL",
	"SELECT VAL FROM T1 ORDER BY VAL LIMIT 10 OFFSET 5",
	"SELECT VAL FROM T1 WHERE A = 1 AND B <> 2 OR NOT (C < 3 AND D <= 4 AND E > 5 AND F >= 6)",
	"SELECT VAL FROM T1 WHERE A + B * C - D / E % F = 0",
	"SELECT - JSON_VAL(A.ATTR, 'age') AS VAL FROM VA A",
	"SELECT PATH || LIST(VAL) AS PATH, PATH[0] AS P0 FROM T1",
	"SELECT VAL FROM T1 WHERE X IS NULL AND Y IS NOT NULL",
	"SELECT VID FROM VA WHERE VID IN (1, 2, 3) AND VID IN (?1)",
	"SELECT VAL FROM T1 WHERE VAL IN (SELECT VAL FROM T2) AND VAL NOT IN (SELECT VAL FROM T3)",
	"SELECT VID FROM VA WHERE JSON_VAL(ATTR, 'name') LIKE 'ma%'",
	"SELECT CAST(X AS BIGINT), CAST(Y AS DOUBLE) FROM T",
	"SELECT VID FROM VA WHERE JSON_VAL(ATTR, 'name') = ?",
	"SELECT COALESCE(A, B), CONTAINS(P, VAL), STARTSWITH(P, Q), ISSIMPLEPATH(P), LIST_TRIM(P) FROM T1",
	"SELECT COUNT(*) FROM T1",
	"SELECT LISTAGG(VAL) FROM T1",
}

// parseRefused holds one statement per form outside the closed dialect
// (DESIGN §23): FuzzParse's refused seeds.
var parseRefused = []string{
	"SELECT * FROM t",
	"SELECT t.* FROM t",
	"SELECT (SELECT COUNT(*) FROM u) FROM t",
	"SELECT a FROM t WHERE a = (SELECT b FROM u)",
	"SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
	"SELECT a FROM t WHERE CASE a WHEN 1 THEN TRUE END",
	"SELECT a FROM t WHERE x BETWEEN 1 AND 2",
	"SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2",
	"SELECT a FROM t WHERE EXISTS (SELECT b FROM u)",
	"SELECT a FROM t WHERE NOT EXISTS (SELECT b FROM u)",
	"SELECT a FROM t INTERSECT SELECT b FROM u",
	"SELECT a FROM t EXCEPT SELECT b FROM u",
	"SELECT a FROM t UNION SELECT b FROM u",
	"SELECT k FROM t GROUP BY k HAVING COUNT(*) > 1",
	"SELECT a FROM t ORDER BY x DESC",
	"SELECT a FROM t ORDER BY x ASC",
	"SELECT a FROM t INNER JOIN u ON t.a = u.b",
	"SELECT a FROM t JOIN u ON t.a = u.b",
	"SELECT a FROM t RIGHT JOIN u ON t.a = u.b",
	"SELECT COUNT(DISTINCT a) FROM t",
	"SELECT LISTAGG(DISTINCT a) FROM t",
	"SELECT CAST(a AS VARCHAR) FROM t",
	"SELECT t.v FROM p, TABLES(VALUES(p.a)) AS t(v)",
	"WITH RECURSIVE r AS (SELECT val FROM seed UNION ALL (SELECT val FROM r)) SELECT val FROM r",
	"SELECT val FROM (SELECT val FROM r) x",
	"WITH r(v) AS (SELECT val FROM seed) SELECT v FROM r",
}

// FuzzParse fuzzes the statement parser. Properties:
//
//  1. Parse never panics, whatever the input.
//  2. Every form outside the closed dialect (parseRefused) is an error,
//     never read as another query.
//  3. Every form inside it (parseDialect) parses.
//
// The seeds are both lists and a few near-misses.
//
// Run with: go test -fuzz='FuzzParse$' ./internal/sql/
func FuzzParse(f *testing.F) {
	for _, s := range append(append(parseDialect, parseRefused...), "", "(", "WITH", "WITH T1 AS (SELECT 1) SELECT", "SELECT a FROM t WHERE") {
		f.Add(s)
	}
	want := make(map[string]bool, len(parseDialect)+len(parseRefused))
	for _, s := range parseDialect {
		want[s] = true
	}
	for _, s := range parseRefused {
		want[s] = false
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src) // must never panic
		ok, listed := want[src]
		switch {
		case listed && ok && err != nil:
			t.Fatalf("Parse(%q) refused a form of the closed dialect: %v", src, err)
		case listed && !ok && err == nil:
			t.Fatalf("Parse(%q) accepted a form outside the closed dialect", src)
		}
	})
}
