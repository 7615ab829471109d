package translate

import (
	"strings"
	"testing"

	"sqlgraph/internal/gremlin"
)

// TestAttributeStepsFold: every template that reads the attribute row,
// right after each kind of source, folds into the source's own scan of
// VA or EA — one statement reading each row once, in every storage mode.
func TestAttributeStepsFold(t *testing.T) {
	for _, src := range []struct {
		q, id, from, and string
		attr, group      string // the attribute the steps read, and the group key
		gremlinGroup     string
	}{
		{"g.V", "VID", "VA WHERE VID >= 0", " AND ", "age", "JSON_VAL(ATTR, 'age')", "it.age"},
		{"g.V(1, 2)", "VID", "VA WHERE VID >= 0 AND VID IN (?1)", " AND ", "age", "JSON_VAL(ATTR, 'age')", "it.age"},
		{"g.V('name', 'marko')", "VID", "VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'name') = ?1", " AND ", "age", "JSON_VAL(ATTR, 'age')", "it.age"},
		{"g.E", "EID", "EA", " WHERE ", "weight", "LBL", "it.label"},
	} {
		jv := "JSON_VAL(ATTR, '" + src.attr + "')"
		for step, want := range map[string]string{
			".filter{it." + src.attr + " * 2 > 4}": "SELECT " + src.id + " AS VAL FROM " + src.from + src.and + "((" + jv + " * 2) > 4)",
			".order{it." + src.attr + "}": "WITH T1 AS (SELECT " + src.id + " AS VAL, " + jv + " AS OKEY FROM " + src.from + "), " +
				"T2 AS (SELECT VAL, OKEY FROM T1 ORDER BY OKEY, VAL), T3 AS (SELECT VAL FROM T2) SELECT VAL FROM T3",
			".groupCount{" + src.gremlinGroup + "}": "WITH T1 AS (SELECT (LIST() || " + src.group + " || COUNT(*)) AS VAL FROM " + src.from +
				" GROUP BY " + src.group + "), T2 AS (SELECT VAL FROM T1 ORDER BY VAL) SELECT VAL FROM T2",
			".groupBy{" + src.gremlinGroup + "}{it." + src.attr + "}": "WITH T1 AS (SELECT (LIST() || " + src.group + " || LISTAGG(" + jv + ")) AS VAL FROM " + src.from +
				" GROUP BY " + src.group + "), T2 AS (SELECT VAL FROM T1 ORDER BY VAL) SELECT VAL FROM T2",
			"." + src.attr: "SELECT " + jv + " AS VAL FROM " + src.from + src.and + jv + " IS NOT NULL",
		} {
			for _, opts := range allOpts {
				if got := tr(t, src.q+step, opts).Template; got != want {
					t.Errorf("%s%s %+v:\n got %s\nwant %s", src.q, step, opts, got, want)
				}
			}
		}
	}
}

// TestFoldLeavesOtherFormsAlone: a step that is not right after the
// source, a source another CTE reads (aggregate, a loop pass, the arms of
// ifThenElse, an identity pipe between) and anything under path tracking
// but the simple filters translate exactly as before the fold existed.
func TestFoldLeavesOtherFormsAlone(t *testing.T) {
	for q, want := range map[string]string{
		"g.V.filter{it.age * 2 > 4}.out.path":                        "WITH T1 AS (SELECT VID AS VAL, LIST() AS PATH FROM VA WHERE VID >= 0), T2 AS (SELECT V.VAL AS VAL, V.PATH AS PATH FROM T1 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') * 2) > 4)), T3 AS (SELECT P.OUTV AS VAL, (V.PATH || V.VAL) AS PATH FROM T2 V, EA P WHERE P.INV = V.VAL), T4 AS (SELECT (V.PATH || V.VAL) AS VAL FROM T3 V) SELECT VAL FROM T4",
		"g.V.has('age', 1).filter{it.age * 2 > 4}.out.path":          "WITH T1 AS (SELECT VID AS VAL, LIST() AS PATH FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'age') = ?1), T2 AS (SELECT V.VAL AS VAL, V.PATH AS PATH FROM T1 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') * 2) > 4)), T3 AS (SELECT P.OUTV AS VAL, (V.PATH || V.VAL) AS PATH FROM T2 V, EA P WHERE P.INV = V.VAL), T4 AS (SELECT (V.PATH || V.VAL) AS VAL FROM T3 V) SELECT VAL FROM T4",
		"g.V.as('x').has('age', 1).out.back('x')":                    "WITH T1 AS (SELECT VID AS VAL, LIST() AS PATH FROM VA WHERE VID >= 0), T2 AS (SELECT V.VAL AS VAL, V.PATH AS PATH FROM T1 V, VA A WHERE A.VID = V.VAL AND JSON_VAL(A.ATTR, 'age') = ?1), T3 AS (SELECT P.OUTV AS VAL, (V.PATH || V.VAL) AS PATH FROM T2 V, EA P WHERE P.INV = V.VAL), T4 AS (SELECT (V.PATH || V.VAL)[0] AS VAL, LIST_TRIM(V.PATH || V.VAL, 2) AS PATH FROM T3 V) SELECT VAL FROM T4",
		"g.V(1).out.order{it.age}":                                   "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0 AND VID IN (?1)), T2 AS (SELECT P.OUTV AS VAL FROM T1 V, EA P WHERE P.INV = V.VAL), T3 AS (SELECT V.VAL AS VAL, JSON_VAL(A.ATTR, 'age') AS OKEY FROM T2 V, VA A WHERE A.VID = V.VAL), T4 AS (SELECT VAL, OKEY FROM T3 ORDER BY OKEY, VAL), T5 AS (SELECT VAL FROM T4) SELECT VAL FROM T5",
		"g.V(1).out.groupCount{it.age}":                              "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0 AND VID IN (?1)), T2 AS (SELECT P.OUTV AS VAL FROM T1 V, EA P WHERE P.INV = V.VAL), T3 AS (SELECT (LIST() || JSON_VAL(A.ATTR, 'age') || COUNT(*)) AS VAL FROM T2 V, VA A WHERE A.VID = V.VAL GROUP BY JSON_VAL(A.ATTR, 'age')), T4 AS (SELECT VAL FROM T3 ORDER BY VAL) SELECT VAL FROM T4",
		"g.V(1).out.name":                                            "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0 AND VID IN (?1)), T2 AS (SELECT P.OUTV AS VAL FROM T1 V, EA P WHERE P.INV = V.VAL), T3 AS (SELECT JSON_VAL(A.ATTR, 'name') AS VAL FROM T2 V, VA A WHERE A.VID = V.VAL AND JSON_VAL(A.ATTR, 'name') IS NOT NULL) SELECT VAL FROM T3",
		"g.V(1).outE.filter{it.weight * 2 > 1}":                      "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0 AND VID IN (?1)), T2 AS (SELECT P.EID AS VAL FROM T1 V, EA P WHERE P.INV = V.VAL), T3 AS (SELECT V.VAL AS VAL FROM T2 V, EA A WHERE A.EID = V.VAL AND ((JSON_VAL(A.ATTR, 'weight') * 2) > 1)) SELECT VAL FROM T3",
		"g.V.aggregate('x').filter{it.age * 2 > 4}.out.except('x')":  "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0), T2 AS (SELECT VAL FROM T1), T3 AS (SELECT V.VAL AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') * 2) > 4)), T4 AS (SELECT P.OUTV AS VAL FROM T3 V, EA P WHERE P.INV = V.VAL), T5 AS (SELECT VAL FROM T4 WHERE VAL NOT IN (SELECT VAL FROM T2)) SELECT VAL FROM T5",
		"g.V.aggregate('x').order{it.age}":                           "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0), T2 AS (SELECT VAL FROM T1), T3 AS (SELECT V.VAL AS VAL, JSON_VAL(A.ATTR, 'age') AS OKEY FROM T1 V, VA A WHERE A.VID = V.VAL), T4 AS (SELECT VAL, OKEY FROM T3 ORDER BY OKEY, VAL), T5 AS (SELECT VAL FROM T4) SELECT VAL FROM T5",
		"g.V.as('s').filter{it.age * 2 > 4}.loop('s'){it.loops < 3}": "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0), T2 AS (SELECT V.VAL AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') * 2) > 4)), T3 AS (SELECT V.VAL AS VAL FROM T2 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') * 2) > 4)), T4 AS (SELECT V.VAL AS VAL FROM T3 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') * 2) > 4)) SELECT VAL FROM T4",
		"g.V.ifThenElse{it.age * 2 > 4}{it.out}{it.in}":              "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0), T2 AS (SELECT V.VAL AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL AND ((JSON_VAL(A.ATTR, 'age') * 2) > 4)), T3 AS (SELECT V.VAL AS VAL FROM T1 V WHERE V.VAL NOT IN (SELECT VAL FROM T2)), T4 AS (SELECT T.VAL AS VAL FROM T2 V, OPA P, TABLE(VALUES(P.VAL0), (P.VAL1), (P.VAL2)) AS T(VAL) WHERE P.VID = V.VAL AND P.VID >= 0 AND T.VAL IS NOT NULL), T5 AS (SELECT COALESCE(S.VAL, P.VAL) AS VAL FROM T4 P LEFT OUTER JOIN OSA S ON P.VAL = S.VALID), T6 AS (SELECT T.VAL AS VAL FROM T3 V, IPA P, TABLE(VALUES(P.VAL0), (P.VAL1)) AS T(VAL) WHERE P.VID = V.VAL AND P.VID >= 0 AND T.VAL IS NOT NULL), T7 AS (SELECT COALESCE(S.VAL, P.VAL) AS VAL FROM T6 P LEFT OUTER JOIN ISA S ON P.VAL = S.VALID), T8 AS (SELECT VAL FROM T5 UNION ALL SELECT VAL FROM T7) SELECT VAL FROM T8",
		"g.V.table(t).groupCount{it.age}":                            "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0), T2 AS (SELECT (LIST() || JSON_VAL(A.ATTR, 'age') || COUNT(*)) AS VAL FROM T1 V, VA A WHERE A.VID = V.VAL GROUP BY JSON_VAL(A.ATTR, 'age')), T3 AS (SELECT VAL FROM T2 ORDER BY VAL) SELECT VAL FROM T3",
		"g.V.out.order().range(0, 4)":                                "WITH T1 AS (SELECT VID AS VAL FROM VA WHERE VID >= 0), T2 AS (SELECT P.OUTV AS VAL FROM T1 V, EA P WHERE P.INV = V.VAL), T3 AS (SELECT VAL FROM T2 ORDER BY VAL), T4 AS (SELECT VAL FROM T3 LIMIT 5 OFFSET 0) SELECT VAL FROM T4",
	} {
		if got := tr(t, q, Options{}).Template; got != want {
			t.Errorf("%s:\n got %s\nwant %s", q, got, want)
		}
	}
}

// TestRedundantExistenceTerm: a comparison drops a row whose attribute is
// missing by itself, so the scan does not also test that it exists —
// whichever of the two comes first. hasNot's test is not an existence
// test and stays.
func TestRedundantExistenceTerm(t *testing.T) {
	for q, want := range map[string]string{
		"g.V.has('k').has('k', 1)":                    "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') = ?1",
		"g.V.has('k', 1).has('k')":                    "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') = ?1",
		"g.V('k', 1).has('k')":                        "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') = ?1",
		"g.V.has('k').interval('k', 1, 5)":            "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') >= ?1 AND JSON_VAL(ATTR, 'k') < ?2",
		"g.V.has('k', T.gt, 1).k":                     "SELECT JSON_VAL(ATTR, 'k') AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') > ?1",
		"g.V.has('j').has('k', 1)":                    "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'j') IS NOT NULL AND JSON_VAL(ATTR, 'k') = ?1",
		"g.E.has('label').has('label', 'x')":          "SELECT EID AS VAL FROM EA WHERE LBL = ?1",
		"g.V.hasNot('k').has('k', 1)":                 "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') IS NULL AND JSON_VAL(ATTR, 'k') = ?1",
		"g.V.has('k', 1).hasNot('k')":                 "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') = ?1 AND JSON_VAL(ATTR, 'k') IS NULL",
		"g.V.has('k').hasNot('k')":                    "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'k') IS NOT NULL AND JSON_VAL(ATTR, 'k') IS NULL",
		"g.V.has('label').filter{it.label >= 'Team'}": "SELECT VID AS VAL FROM VA WHERE VID >= 0 AND JSON_VAL(ATTR, 'label') >= ?1",
	} {
		if got := tr(t, q, Options{}).Template; got != want {
			t.Errorf("%s:\n got %s\nwant %s", q, got, want)
		}
	}
	// A closure's comparison may keep a row whose attribute is missing
	// (it.k > 1 || true), so it leaves the existence test alone.
	wants(t, tr(t, "g.V.has('k').filter{it.k * 2 > 1}", Options{}).Template, "JSON_VAL(ATTR, 'k') IS NOT NULL AND ((JSON_VAL(ATTR, 'k') * 2) > 1)")
}

// TestFoldedHints: the scan a step folds into carries the estimate the
// CTE the step no longer emits would have carried, and a cut pushed into
// a keyed order's sort caps the sort's estimate.
func TestFoldedHints(t *testing.T) {
	hints := func(query string) map[string]float64 {
		q, err := gremlin.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Translate(q, statsSchema{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(out.Template, " AS ("); n != len(out.Hints) && !(n == 0 && len(out.Hints) == 1) {
			t.Fatalf("%s: %d CTEs, %d hints", query, n, len(out.Hints))
		}
		return out.Hints
	}
	for q, want := range map[string]map[string]float64{
		"g.V.has('k', 1)": {"T1": 10},
		"g.V.filter{it.k * 2 > 1}.has('k').count()": {"T1": 6.25, "T2": 1},
		"g.V.groupCount{it.k}":                      {"T1": 25, "T2": 25},
		"g.V.order{it.k}.range(0, 4)":               {"T1": 100, "T2": 5, "T3": 5},
		"g.V(1, 2).k":                               {"T1": 2},
	} {
		got := hints(q)
		for name, est := range want {
			if got[name] != est {
				t.Errorf("%s: %s est %v, want %v (all: %v)", q, name, got[name], est, got)
			}
		}
	}
}
