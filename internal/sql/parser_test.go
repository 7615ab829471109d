package sql

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt := mustParse(t, src)
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, stmt)
	}
	return sel
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a1, 'it''s', 3.14, 42, ? FROM t -- comment\n/* block */ WHERE x <= 5")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "A1", ",", "it's", ",", "3.14", ",", "42", ",", "?", "FROM", "T", "WHERE", "X", "<=", "5", ""}
	if len(texts) != len(want) {
		t.Fatalf("token texts = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("tok[%d] = %q, want %q (all: %v)", i, texts[i], want[i], texts)
		}
	}
	if kinds[3] != TokString || kinds[9] != TokParam || kinds[14] != TokSymbol {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "/* unterminated", "SELECT @"} {
		if _, err := Lex(src); err == nil {
			t.Fatalf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b AS bee, t.c FROM t1, t2 AS u WHERE a = 1 AND b <> 'x'")
	body := sel.Body.(*SimpleSelect)
	if len(body.Items) != 3 {
		t.Fatalf("items = %d", len(body.Items))
	}
	if body.Items[1].Alias != "BEE" {
		t.Fatalf("alias = %q", body.Items[1].Alias)
	}
	if c, ok := body.Items[2].Expr.(*ColumnRef); !ok || c.Table != "T" || c.Column != "C" {
		t.Fatalf("t.c item = %+v", body.Items[2])
	}
	if len(body.From) != 2 || body.From[1].Alias != "U" {
		t.Fatalf("from = %+v", body.From)
	}
	if body.Where == nil {
		t.Fatal("missing where")
	}
}

// TestParseSelectStar: * and t.* are outside the closed dialect (every
// emitter names its columns), so both are refused where the projection
// starts; COUNT(*) keeps its star.
func TestParseSelectStar(t *testing.T) {
	for _, src := range []string{"SELECT * FROM t", "SELECT t.* FROM t"} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "found *") {
			t.Fatalf("Parse(%q) = %v, want a refusal at the star", src, err)
		}
	}
	fc := mustSelect(t, "SELECT COUNT(*) FROM t").Body.(*SimpleSelect).Items[0].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Fatalf("count(*) = %+v", fc)
	}
}

func TestParseDistinctCountLimit(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT val FROM t ORDER BY okey, val LIMIT 10 OFFSET 5")
	body := sel.Body.(*SimpleSelect)
	if !body.Distinct {
		t.Fatal("distinct not parsed")
	}
	if len(sel.OrderBy) != 2 || sel.OrderBy[1].SQL() != "VAL" {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Fatal("limit/offset missing")
	}

	sel = mustSelect(t, "SELECT COUNT(*) FROM t")
	fc := sel.Body.(*SimpleSelect).Items[0].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Fatalf("count = %+v", fc)
	}
	sel = mustSelect(t, "SELECT COUNT(x) FROM t")
	fc = sel.Body.(*SimpleSelect).Items[0].Expr.(*FuncCall)
	if fc.Star || len(fc.Args) != 1 {
		t.Fatalf("count(x) = %+v", fc)
	}
}

func TestParseJoins(t *testing.T) {
	// OUTER is optional; every JOIN is a LEFT OUTER JOIN.
	sel := mustSelect(t, "SELECT a.x FROM a LEFT OUTER JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.w")
	body := sel.Body.(*SimpleSelect)
	if len(body.From) != 1 {
		t.Fatalf("from = %d refs", len(body.From))
	}
	joins := body.From[0].Joins
	if len(joins) != 2 || joins[0].Right.Table != "B" || joins[1].On.SQL() != "(B.Z = C.W)" {
		t.Fatalf("joins = %+v", joins)
	}
}

func TestParseCTE(t *testing.T) {
	sel := mustSelect(t, `WITH t1 AS (SELECT vid AS val FROM va), t2(v) AS (SELECT val FROM t1) SELECT COUNT(*) FROM t2`)
	if len(sel.With) != 2 {
		t.Fatalf("with = %d", len(sel.With))
	}
	if sel.With[0].Name != "T1" || sel.With[1].Columns[0] != "V" {
		t.Fatalf("ctes = %+v", sel.With)
	}
}

func TestParseRecursiveCTE(t *testing.T) {
	sel := mustSelect(t, `WITH RECURSIVE r(v, d) AS (
		SELECT val, 0 FROM seed
		UNION ALL
		SELECT e.outv, r.d + 1 FROM r, ea e WHERE e.inv = r.v AND r.d < 5
	) SELECT DISTINCT v FROM r`)
	if len(sel.With) != 1 || !sel.With[0].Recursive {
		t.Fatalf("recursive cte = %+v", sel.With)
	}
	if _, ok := sel.With[0].Query.Body.(*UnionAll); !ok {
		t.Fatal("recursive body should be a UNION ALL")
	}
}

func TestParseTableFunc(t *testing.T) {
	sel := mustSelect(t, `SELECT t.val FROM opa p, TABLE(VALUES(p.val0),(p.val1),(p.val2)) AS t(val) WHERE t.val IS NOT NULL`)
	body := sel.Body.(*SimpleSelect)
	if len(body.From) != 2 {
		t.Fatalf("from = %d", len(body.From))
	}
	fn := body.From[1].TableFn
	if fn == nil || len(fn.Rows) != 3 || fn.Columns[0] != "VAL" {
		t.Fatalf("tablefn = %+v", fn)
	}
}

func TestParseSetOps(t *testing.T) {
	// UNION ALL associates to the left.
	sel := mustSelect(t, "SELECT a FROM x UNION ALL SELECT b FROM y UNION ALL SELECT c FROM z")
	top, ok := sel.Body.(*UnionAll)
	if !ok {
		t.Fatalf("top = %+v", sel.Body)
	}
	if _, ok := top.Left.(*UnionAll); !ok {
		t.Fatalf("left = %+v", top.Left)
	}
	if _, ok := top.Right.(*SimpleSelect); !ok {
		t.Fatalf("right = %+v", top.Right)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"a + b * c - d / e % f",
		"x LIKE '%en'",
		"x NOT LIKE 'a%'",
		"x IN (1, 2, 3)",
		"x NOT IN (SELECT v FROM t)",
		"x IS NULL",
		"x IS NOT NULL",
		"NOT (a = b)",
		"COALESCE(a, b, c)",
		"JSON_VAL(attr, 'name')",
		"CAST(x AS BIGINT)",
		"CAST(x AS DOUBLE)",
		"path[0]",
		"(a || b)",
		"-5",
		"-x",
		"a = ? AND b = ?",
	}
	for _, src := range cases {
		if _, err := ParseExpr(src); err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
	}
}

func TestParamNumbering(t *testing.T) {
	e, err := ParseExpr("a = ? AND b = ? OR c = ?")
	if err != nil {
		t.Fatal(err)
	}
	var idxs []int
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Param:
			idxs = append(idxs, v.Index)
		}
	}
	walk(e)
	if len(idxs) != 3 || idxs[0] != 0 || idxs[1] != 1 || idxs[2] != 2 {
		t.Fatalf("param indexes = %v", idxs)
	}

	// ?N names position N-1 and may repeat; a plain ? takes the position
	// after the highest so far.
	idxs = nil
	if e, err = ParseExpr("a = ?2 AND b = ?1 OR c = ? AND d = ?2"); err != nil {
		t.Fatal(err)
	}
	walk(e)
	if !reflect.DeepEqual(idxs, []int{1, 0, 2, 1}) {
		t.Fatalf("numbered param indexes = %v", idxs)
	}
	if got := e.SQL(); !strings.Contains(got, "A = ?2") || !strings.Contains(got, "C = ?3") {
		t.Fatalf("SQL() = %s", got)
	}
	if _, err := ParseExpr("a = ?0"); err == nil {
		t.Fatal("?0 accepted: parameters are numbered from 1")
	}
}

func TestParseDML(t *testing.T) {
	// Writes are rel transactions, never SQL text: the parser reads
	// queries only.
	for _, src := range []string{
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
		"INSERT INTO t SELECT a FROM u",
		"UPDATE t SET a = 1, b = b + 1 WHERE id = ?",
		"DELETE FROM t WHERE id = 3",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseDDL(t *testing.T) {
	for _, src := range []string{
		"CREATE TABLE va (vid BIGINT PRIMARY KEY, attr JSON)",
		"CREATE UNIQUE INDEX ix ON t (a, JSON_VAL(attr, 'name'))",
		"DROP TABLE t",
	} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
	// An index key list is parsed expression by expression; a bare
	// column and a JSON_VAL both survive as the keys Engine.CreateIndex takes.
	col, err := ParseExpr("a")
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := col.(*ColumnRef); !ok || c.Column != "A" {
		t.Fatalf("index column = %#v", col)
	}
	jv, err := ParseExpr("JSON_VAL(attr, 'name')")
	if err != nil {
		t.Fatal(err)
	}
	if got := jv.SQL(); got != "JSON_VAL(ATTR, 'name')" {
		t.Fatalf("index expression SQL = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"INSERT t VALUES (1)",
		"UPDATE t a = 1",
		"DELETE t",
		"CREATE VIEW v",
		"SELECT * FROM t extra garbage ,",
		"SELECT a FROM t WHERE a IN ()",
		"CASE END",
		"SELECT CAST(a, BIGINT) FROM t",
		// The dialect is closed to what the templates, VerticesByAttr and
		// the figure code emit (DESIGN §23). A form outside it is refused,
		// never read as another query, as a word that is no keyword now
		// could be (an alias, a column, a function name).
		"SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
		"SELECT a FROM t WHERE CASE a WHEN 1 THEN TRUE END",
		"SELECT a FROM t WHERE x BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE EXISTS (SELECT b FROM u)",
		"SELECT a FROM t WHERE NOT EXISTS (SELECT b FROM u)",
		"SELECT a FROM t INTERSECT SELECT b FROM u",
		"SELECT a FROM t EXCEPT SELECT b FROM u",
		"SELECT a FROM t x EXCEPT SELECT b FROM u",
		"SELECT a FROM t UNION SELECT b FROM u",
		"WITH RECURSIVE r(v) AS (SELECT 1 UNION SELECT v + 1 FROM r) SELECT v FROM r",
		"SELECT k FROM t GROUP BY k HAVING COUNT(*) > 1",
		"SELECT a FROM t ORDER BY x DESC",
		"SELECT a FROM t ORDER BY x ASC",
		"SELECT a FROM t INNER JOIN u ON t.a = u.b",
		"SELECT a FROM t JOIN u ON t.a = u.b",
		"SELECT a FROM t RIGHT JOIN u ON t.a = u.b",
		"SELECT COUNT(DISTINCT a) FROM t",
		"SELECT LISTAGG(DISTINCT a) FROM t",
		"SELECT CAST(a AS VARCHAR) FROM t",
		"SELECT CAST(a AS BOOLEAN) FROM t",
		"SELECT t.v FROM p, TABLES(VALUES(p.a)) AS t(v)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParsePaperFigure7(t *testing.T) {
	// The full translated query from paper Figure 7 must parse.
	q := `WITH TEMP_1 AS (
		SELECT VID AS VAL FROM VA WHERE JSON_VAL(ATTR, 'tag') = 'w'
	), TEMP_2_0 AS (
		SELECT T.VAL FROM TEMP_1 V, OPA P, TABLE(VALUES(P.VAL0), (P.VAL1), (P.VAL2)) AS T(VAL)
		WHERE V.VAL = P.VID AND T.VAL IS NOT NULL
	), TEMP_2_1 AS (
		SELECT COALESCE(S.VAL, P.VAL) AS VAL FROM TEMP_2_0 P LEFT OUTER JOIN OSA S ON P.VAL = S.VALID
	), TEMP_2_2 AS (
		SELECT T.VAL FROM TEMP_1 V, IPA P, TABLE(VALUES(P.VAL0), (P.VAL1)) AS T(VAL)
		WHERE V.VAL = P.VID AND T.VAL IS NOT NULL
	), TEMP_2_3 AS (
		SELECT COALESCE(S.VAL, P.VAL) AS VAL FROM TEMP_2_2 P LEFT OUTER JOIN ISA S ON P.VAL = S.VALID
	), TEMP_2_4 AS (
		SELECT VAL FROM TEMP_2_1 UNION ALL SELECT VAL FROM TEMP_2_3
	), TEMP_3 AS (
		SELECT DISTINCT VAL AS VAL FROM TEMP_2_4
	) SELECT COUNT(*) FROM TEMP_3`
	sel := mustSelect(t, q)
	if len(sel.With) != 7 {
		t.Fatalf("with = %d, want 7", len(sel.With))
	}
}

func TestExprSQLRendering(t *testing.T) {
	cases := map[string]string{
		"a = 1":                 "(A = 1)",
		"JSON_VAL(attr,'name')": "JSON_VAL(ATTR, 'name')",
		"x IS NOT NULL":         "X IS NOT NULL",
		"a IN (1, 2)":           "A IN (1, 2)",
		"COUNT(*)":              "COUNT(*)",
		"path[0]":               "PATH[0]",
		"2.0":                   "2.0",
		`"t".a`:                 `"t".A`,
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
		if got := e.SQL(); got != want {
			t.Fatalf("SQL(%q) = %q, want %q", src, got, want)
		}
	}
	// Re-parsing a rendered expression must succeed (stability).
	for src := range cases {
		e, _ := ParseExpr(src)
		if _, err := ParseExpr(e.SQL()); err != nil {
			t.Fatalf("re-parse of %q failed: %v", e.SQL(), err)
		}
	}
}

// TestScalarSubquery: a subquery in expression position is refused; the
// only subquery an expression may hold is the right side of IN.
func TestScalarSubquery(t *testing.T) {
	for _, src := range []string{
		"SELECT (SELECT COUNT(*) FROM u) FROM t",
		"SELECT a FROM t WHERE a = (SELECT b FROM u)",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "expected expression, found SELECT") {
			t.Fatalf("Parse(%q) = %v, want a refusal at the subquery", src, err)
		}
	}
	sel := mustSelect(t, "SELECT a FROM t WHERE a IN (SELECT b FROM u)")
	in, ok := sel.Body.(*SimpleSelect).Where.(*InSubquery)
	if !ok || in.Query == nil {
		t.Fatalf("where = %+v", sel.Body.(*SimpleSelect).Where)
	}
}

// TestParenthesizedSetOpBody: a parenthesized UNION ALL is one operand,
// as the recursive-loop template writes its recursive side.
func TestParenthesizedSetOpBody(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM x UNION ALL (SELECT b FROM y UNION ALL SELECT c FROM z)")
	top := sel.Body.(*UnionAll)
	if _, ok := top.Left.(*SimpleSelect); !ok {
		t.Fatalf("left = %+v", top.Left)
	}
	if _, ok := top.Right.(*UnionAll); !ok {
		t.Fatal("right should be the parenthesized union")
	}
}
