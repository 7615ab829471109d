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
		"x NOT BETWEEN 1 AND 10",
		"NOT (a = b) OR c <> d",
		"COALESCE(a, b, c)",
		"COUNT(DISTINCT x)",
		"CAST(x AS BIGINT)",
		"(a || b)",
		"CASE WHEN a = 1 THEN 'x' ELSE 'y' END",
		"CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END",
		"-5",
		"-x",
		"- 2.5",
		"1e21 + .5",
		"NULL IS NULL",
		"x IN (SELECT v FROM t)",
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
		`"f"(1) + CAST(x AS "big int")`,
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
