package translate

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"sqlgraph/internal/gremlin"
)

// scan is the source CTE while the steps right after it may still fold
// into it: a scan of VA or EA, its projection and WHERE terms.
type scan struct {
	cte   int    // index in translator.ctes
	table string // VA or EA
	id    string // VID or EID
	sel   string
	terms []term
}

// term is one WHERE condition. A comparison from has/interval names the
// attribute it compares (operand), and so does an existence test, marked
// exists: a comparison already drops a row whose operand is NULL, so an
// existence test beside one on the same operand is redundant.
type term struct {
	sql     string
	operand string
	exists  bool
}

func (sc *scan) body() string {
	var sb strings.Builder
	sb.WriteString("SELECT " + sc.sel + " FROM " + sc.table)
	for i, c := range sc.terms {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		sb.WriteString(c.sql)
	}
	return sb.String()
}

// where adds a WHERE term, dropping whichever existence test a comparison
// on the same operand makes redundant.
func (sc *scan) where(c term) {
	if c.operand != "" {
		compares := func(o term) bool { return o.operand == c.operand && !o.exists }
		if c.exists && slices.ContainsFunc(sc.terms, compares) {
			return
		}
		if !c.exists {
			sc.terms = slices.DeleteFunc(sc.terms, func(o term) bool { return o.operand == c.operand && o.exists })
		}
	}
	sc.terms = append(sc.terms, c)
}

// row names the current element for a template that reads it: its id
// and, for vertices and edges, its attribute document and (edges) label.
type row struct {
	id, attr, lbl string
	fold          bool // the template folds into the source scan
}

// foldable lists the steps whose templates read the current elements'
// attribute rows. Only an unbroken run of them right after the source can
// fold into it; any other step ends the run, since from there on another
// CTE reads the source (aggregate, a loop pass, the arms of ifThenElse) or
// its elements are no longer the ones scanned.
func foldable(k gremlin.StepKind) bool {
	switch k {
	case gremlin.StepHas, gremlin.StepHasNot, gremlin.StepInterval, gremlin.StepFilter,
		gremlin.StepProperty, gremlin.StepOrder, gremlin.StepGroupBy, gremlin.StepGroupCount:
		return true
	}
	return false
}

// row decides fold-or-join for a step that reads the current elements,
// and names what the step's template reads them by. A vertex or edge step
// joins its attribute table (VA or EA) on the element id — unless the
// current CTE is the source scan no other CTE has read yet: then the
// step folds into that scan and reads the row it already holds (the
// GraphQuery merge of Section 4.5.1, for every attribute-reading
// template). Under path tracking only simple attribute filters fold:
// any other step would have to carry the PATH column through the scan.
func (t *translator) row(simple bool) row {
	switch {
	case t.typ == ElemValue:
		return row{id: "V.VAL"}
	case t.src != nil && (simple || !t.track):
		r := row{id: t.src.id, attr: "ATTR", fold: true}
		if t.typ == ElemEdge {
			r.lbl = "LBL"
		}
		return r
	case t.typ == ElemEdge:
		return row{id: "V.VAL", attr: "A.ATTR", lbl: "A.LBL"}
	default:
		return row{id: "V.VAL", attr: "A.ATTR"}
	}
}

// emit adds a step's template, SELECT proj ... WHERE cond tail, over the
// elements r names: folded into the source scan, joined with their
// attribute rows, or over plain values. An empty proj keeps the current
// elements (a filter); any other projection, or a tail, makes a folded
// scan what the step yields, so nothing more folds into it.
func (t *translator) emit(r row, proj string, cond term, tail string) {
	if tail != "" {
		tail = " " + tail
	}
	if r.fold {
		sc := t.src
		if cond.sql != "" {
			sc.where(cond)
		}
		if proj != "" || tail != "" {
			sc.sel = cmp.Or(proj, sc.sel)
			t.src = nil
		}
		t.ctes[sc.cte].body = sc.body() + tail
		if t.hints != nil {
			t.hints[t.ctes[sc.cte].name] = t.est
		}
		return
	}
	if proj == "" {
		proj = r.id + " AS VAL" + t.carryPath()
	}
	from := t.cur + " V"
	var where []string
	switch t.typ {
	case ElemVertex:
		from += ", VA A"
		where = append(where, "A.VID = V.VAL")
	case ElemEdge:
		from += ", EA A"
		where = append(where, "A.EID = V.VAL")
	}
	if cond.sql != "" {
		where = append(where, cond.sql)
	}
	body := "SELECT " + proj + " FROM " + from
	if len(where) > 0 {
		body += " WHERE " + strings.Join(where, " AND ")
	}
	t.cur = t.add(body + tail)
}

// attrCond renders a has/hasNot/interval/keyed-filter step as a WHERE
// term over the attributes r names; an edge's "label" is its LBL column.
func (t *translator) attrCond(s *gremlin.Step, r row) (term, error) {
	operand := fmt.Sprintf("JSON_VAL(%s, %s)", r.attr, strLit(s.Key))
	switch s.Kind {
	case gremlin.StepHas, gremlin.StepFilter:
		if s.Key == "" {
			break // a general closure, not a simple predicate
		}
		if s.Key == "label" && r.lbl != "" {
			operand = r.lbl
		}
		if s.Op == "" {
			return term{sql: operand + " IS NOT NULL", operand: operand, exists: true}, nil
		}
		op, err := sqlOp(s.Op)
		if err != nil {
			return term{}, err
		}
		return term{sql: fmt.Sprintf("%s %s %s", operand, op, param(s.Arg)), operand: operand}, nil
	case gremlin.StepHasNot:
		return term{sql: operand + " IS NULL"}, nil
	case gremlin.StepInterval:
		return term{sql: fmt.Sprintf("%s >= %s AND %s < %s", operand, param(s.Arg), operand, param(s.Arg+1)), operand: operand}, nil
	}
	return term{}, fmt.Errorf("translate: unsupported %s filter %v", t.typ, s.Kind)
}
