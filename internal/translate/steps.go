package translate

import (
	"fmt"
	"strings"

	"sqlgraph/internal/gremlin"
)

// direction of a traversal step.
type direction int

const (
	dirOut direction = iota
	dirIn
)

// step translates one non-loop pipe.
func (t *translator) step(s *gremlin.Step) error {
	switch s.Kind {
	case gremlin.StepOut:
		return t.adjacency(s.Labels, []direction{dirOut}, false)
	case gremlin.StepIn:
		return t.adjacency(s.Labels, []direction{dirIn}, false)
	case gremlin.StepBoth:
		return t.adjacency(s.Labels, []direction{dirOut, dirIn}, false)
	case gremlin.StepOutE:
		return t.adjacency(s.Labels, []direction{dirOut}, true)
	case gremlin.StepInE:
		return t.adjacency(s.Labels, []direction{dirIn}, true)
	case gremlin.StepBothE:
		return t.adjacency(s.Labels, []direction{dirOut, dirIn}, true)
	case gremlin.StepOutV, gremlin.StepInV, gremlin.StepBothV:
		return t.edgeEndpoints(s.Kind)
	case gremlin.StepID:
		if t.typ == ElemValue {
			return fmt.Errorf("translate: id on values")
		}
		// VAL already holds the element id; only the type changes.
		t.typ = ElemValue
		return nil
	case gremlin.StepLabel:
		if t.typ != ElemEdge {
			return fmt.Errorf("translate: label requires edges")
		}
		t.cur = t.add(fmt.Sprintf(
			"SELECT P.LBL AS VAL%s FROM %s V, EA P WHERE P.EID = V.VAL", t.extendPath(), t.cur))
		t.bumpDepth(ElemValue)
		return nil
	case gremlin.StepProperty:
		return t.property(s.Key)
	case gremlin.StepPath:
		if !t.track {
			return fmt.Errorf("translate: internal: path pipe without tracking")
		}
		t.cur = t.add(fmt.Sprintf("SELECT (V.PATH || V.VAL) AS VAL FROM %s V", t.cur))
		t.typ = ElemValue
		t.track = false // paths are now plain values
		return nil
	case gremlin.StepCount:
		t.cur = t.add(fmt.Sprintf("SELECT COUNT(*) AS VAL FROM %s", t.cur))
		t.typ = ElemValue
		t.track = false
		t.depth = 1
		t.typeHistReset(ElemValue)
		return nil
	case gremlin.StepHas, gremlin.StepFilter, gremlin.StepHasNot, gremlin.StepInterval:
		return t.filter(s)
	case gremlin.StepDedup:
		// Gremlin dedups on the element, not its path, so a DISTINCT over
		// (VAL, PATH) would keep one row per distinct path and overcount
		// downstream. Collapse to VAL and stop tracking; if a later step
		// still needs paths there is no single representative to keep, so
		// refuse rather than answer wrongly.
		if t.track && needsPathTracking(t.rest) {
			return fmt.Errorf("translate: dedup() before a path-dependent step is unsupported")
		}
		t.cur = t.add(fmt.Sprintf("SELECT DISTINCT VAL FROM %s", t.cur))
		t.track = false
		return nil
	case gremlin.StepRange:
		lo := s.Lo.(int64)
		hi := s.Hi.(int64)
		n := hi - lo + 1
		if n < 0 {
			n = 0
		}
		if t.sorted {
			// range right after order{key}: the sort keeps only what the
			// cut returns, and the projection after it reads no more.
			sort := &t.ctes[len(t.ctes)-2]
			sort.body += fmt.Sprintf(" LIMIT %d OFFSET %d", n, lo)
			t.sorted = false
			return nil
		}
		t.cur = t.add(fmt.Sprintf("SELECT VAL%s FROM %s LIMIT %d OFFSET %d",
			t.pathSel(), t.cur, n, lo))
		return nil
	case gremlin.StepSimplePath:
		if !t.track {
			return fmt.Errorf("translate: internal: simplePath without tracking")
		}
		t.cur = t.add(fmt.Sprintf(
			"SELECT V.VAL AS VAL, V.PATH AS PATH FROM %s V WHERE ISSIMPLEPATH(V.PATH || V.VAL) = 1", t.cur))
		return nil
	case gremlin.StepExcept, gremlin.StepRetain:
		agg, ok := t.aggs[s.Name]
		if !ok {
			return fmt.Errorf("translate: %s(%s) references an unknown aggregate", s.Kind, s.Name)
		}
		op := "NOT IN"
		if s.Kind == gremlin.StepRetain {
			op = "IN"
		}
		t.cur = t.add(fmt.Sprintf("SELECT VAL%s FROM %s WHERE VAL %s (SELECT VAL FROM %s)",
			t.pathSel(), t.cur, op, agg))
		return nil
	case gremlin.StepBack:
		return t.back(s)
	case gremlin.StepAs:
		t.marks[s.Name] = mark{depth: t.depth, typ: t.typ}
		return nil
	case gremlin.StepAggregate:
		t.aggs[s.Name] = t.add(fmt.Sprintf("SELECT VAL FROM %s", t.cur))
		return nil
	case gremlin.StepTable, gremlin.StepIterate:
		// Side-effect pipes are identity functions (paper Section 4.4).
		return nil
	case gremlin.StepOrder:
		return t.order(s)
	case gremlin.StepGroupBy, gremlin.StepGroupCount:
		return t.group(s)
	case gremlin.StepIfThenElse:
		return t.ifThenElse(s)
	default:
		return fmt.Errorf("translate: unsupported pipe %v", s.Kind)
	}
}

// pathSel renders ", PATH" for plain column carries.
func (t *translator) pathSel() string {
	if !t.track {
		return ""
	}
	return ", PATH"
}

// typeHist tracks the element type at each static path position; back()
// needs it to restore the element type.
func (t *translator) bumpDepth(newType ElemType) {
	if t.hist == nil {
		t.hist = []ElemType{t.typ}
	}
	t.hist = append(t.hist, newType)
	t.depth++
	t.typ = newType
}

func (t *translator) typeHistReset(typ ElemType) {
	t.hist = []ElemType{typ}
}

// useEA reports whether adjacency steps should use the EA copy: single
// lookup queries, or the ForceEA ablation (paper Section 3.5 / 4.3).
func (t *translator) useEA() bool {
	if t.opts.ForceHashTables {
		return false
	}
	return t.opts.ForceEA || t.traversal <= 1
}

// adjacency translates out/in/both and their edge variants.
func (t *translator) adjacency(labels []string, dirs []direction, toEdges bool) error {
	if t.typ != ElemVertex {
		return fmt.Errorf("translate: adjacency step on %s input", t.typ)
	}
	// A label argument list is a membership test: out('a', 'a') matches an
	// 'a'-edge once. The hash-table translation expands one branch per
	// label, so duplicates would double-count rows.
	labels = uniqueLabels(labels)
	var branches []string
	for _, d := range dirs {
		if t.useEA() {
			branches = append(branches, t.adjacencyEA(labels, d, toEdges))
		} else {
			name, err := t.adjacencyHash(labels, d, toEdges)
			if err != nil {
				return err
			}
			branches = append(branches, name)
		}
	}
	if len(branches) == 1 {
		t.cur = branches[0]
	} else {
		t.cur = t.add(fmt.Sprintf("SELECT VAL%s FROM %s UNION ALL SELECT VAL%s FROM %s",
			t.pathSel(), branches[0], t.pathSel(), branches[1]))
	}
	newType := ElemVertex
	if toEdges {
		newType = ElemEdge
	}
	t.bumpDepth(newType)
	return nil
}

// adjacencyEA emits the single-lookup EA template. Note the paper's EA
// column naming: INV is the edge's source, OUTV its target.
func (t *translator) adjacencyEA(labels []string, d direction, toEdges bool) string {
	srcCol, dstCol := "INV", "OUTV"
	if d == dirIn {
		srcCol, dstCol = "OUTV", "INV"
	}
	sel := "P." + dstCol
	if toEdges {
		sel = "P.EID"
	}
	cond := fmt.Sprintf("P.%s = V.VAL", srcCol)
	if len(labels) == 1 {
		cond += fmt.Sprintf(" AND P.LBL = %s", strLit(labels[0]))
	} else if len(labels) > 1 {
		quoted := make([]string, len(labels))
		for i, l := range labels {
			quoted[i] = strLit(l)
		}
		cond += " AND P.LBL IN (" + strings.Join(quoted, ", ") + ")"
	}
	return t.add(fmt.Sprintf("SELECT %s AS VAL%s FROM %s V, EA P WHERE %s",
		sel, t.extendPath(), t.cur, cond))
}

// adjacencyHash emits the OPA/OSA (or IPA/ISA) two-CTE template of
// Table 8.
func (t *translator) adjacencyHash(labels []string, d direction, toEdges bool) (string, error) {
	primary, secondary := "OPA", "OSA"
	cols := t.sch.OutColumns()
	colFor := t.sch.OutColumnFor
	if d == dirIn {
		primary, secondary = "IPA", "ISA"
		cols = t.sch.InColumns()
		colFor = t.sch.InColumnFor
	}

	var primaries []string
	if len(labels) == 0 {
		// All labels: unnest every column triad.
		var values []string
		for k := 0; k < cols; k++ {
			if toEdges {
				values = append(values, fmt.Sprintf("(P.EID%d, P.VAL%d)", k, k))
			} else {
				values = append(values, fmt.Sprintf("(P.VAL%d)", k))
			}
		}
		var body string
		if toEdges {
			body = fmt.Sprintf(
				"SELECT T.EID AS EID, T.VAL AS VAL%s FROM %s V, %s P, TABLE(VALUES%s) AS T(EID, VAL) WHERE P.VID = V.VAL AND P.VID >= 0 AND T.VAL IS NOT NULL",
				t.extendPath(), t.cur, primary, strings.Join(values, ", "))
		} else {
			body = fmt.Sprintf(
				"SELECT T.VAL AS VAL%s FROM %s V, %s P, TABLE(VALUES%s) AS T(VAL) WHERE P.VID = V.VAL AND P.VID >= 0 AND T.VAL IS NOT NULL",
				t.extendPath(), t.cur, primary, strings.Join(values, ", "))
		}
		primaries = append(primaries, t.add(body))
	} else {
		for _, label := range labels {
			k := colFor(label)
			var body string
			if toEdges {
				body = fmt.Sprintf(
					"SELECT P.EID%d AS EID, P.VAL%d AS VAL%s FROM %s V, %s P WHERE P.VID = V.VAL AND P.VID >= 0 AND P.LBL%d = %s AND P.VAL%d IS NOT NULL",
					k, k, t.extendPath(), t.cur, primary, k, strLit(label), k)
			} else {
				body = fmt.Sprintf(
					"SELECT P.VAL%d AS VAL%s FROM %s V, %s P WHERE P.VID = V.VAL AND P.VID >= 0 AND P.LBL%d = %s AND P.VAL%d IS NOT NULL",
					k, t.extendPath(), t.cur, primary, k, strLit(label), k)
			}
			primaries = append(primaries, t.add(body))
		}
	}
	prim := primaries[0]
	if len(primaries) > 1 {
		var parts []string
		sel := "SELECT VAL" + t.pathSel()
		if toEdges {
			sel = "SELECT EID, VAL" + t.pathSel()
		}
		for _, p := range primaries {
			parts = append(parts, sel+" FROM "+p)
		}
		prim = t.add(strings.Join(parts, " UNION ALL "))
	}

	// Secondary expansion: direct values pass through COALESCE; list ids
	// fan out into the secondary table.
	var body string
	pathCarry := ""
	if t.track {
		pathCarry = ", P.PATH AS PATH"
	}
	if toEdges {
		body = fmt.Sprintf(
			"SELECT COALESCE(S.EID, P.EID) AS VAL%s FROM %s P LEFT OUTER JOIN %s S ON P.VAL = S.VALID",
			pathCarry, prim, secondary)
	} else {
		body = fmt.Sprintf(
			"SELECT COALESCE(S.VAL, P.VAL) AS VAL%s FROM %s P LEFT OUTER JOIN %s S ON P.VAL = S.VALID",
			pathCarry, prim, secondary)
	}
	return t.add(body), nil
}

// edgeEndpoints translates outV/inV/bothV. Gremlin's outV is the edge's
// source vertex, stored in EA.INV (paper column naming).
func (t *translator) edgeEndpoints(kind gremlin.StepKind) error {
	if t.typ != ElemEdge {
		return fmt.Errorf("translate: %v requires edges", kind)
	}
	switch kind {
	case gremlin.StepOutV:
		t.cur = t.add(fmt.Sprintf("SELECT P.INV AS VAL%s FROM %s V, EA P WHERE P.EID = V.VAL",
			t.extendPath(), t.cur))
	case gremlin.StepInV:
		t.cur = t.add(fmt.Sprintf("SELECT P.OUTV AS VAL%s FROM %s V, EA P WHERE P.EID = V.VAL",
			t.extendPath(), t.cur))
	default: // bothV
		t.cur = t.add(fmt.Sprintf(
			"SELECT T.VAL AS VAL%s FROM %s V, EA P, TABLE(VALUES(P.INV), (P.OUTV)) AS T(VAL) WHERE P.EID = V.VAL",
			t.extendPath(), t.cur))
	}
	t.bumpDepth(ElemVertex)
	return nil
}

// property translates property access: JSON attribute lookup in VA or EA.
func (t *translator) property(key string) error {
	switch {
	case t.typ == ElemValue:
		return fmt.Errorf("translate: property access on values")
	case t.typ == ElemEdge && key == "label":
		return t.step(&gremlin.Step{Kind: gremlin.StepLabel})
	}
	r := t.row(false)
	jv := fmt.Sprintf("JSON_VAL(%s, %s)", r.attr, strLit(key))
	t.emit(r, jv+" AS VAL"+t.extendPath(), term{sql: jv + " IS NOT NULL", operand: jv, exists: true}, "")
	t.bumpDepth(ElemValue)
	return nil
}

// filter translates has/hasNot/filter/interval.
func (t *translator) filter(s *gremlin.Step) error {
	if s.Kind == gremlin.StepFilter && s.Key == "" && s.FilterExpr != nil {
		// A general closure compiles to a WHERE condition over the element
		// and its attribute row, so SQL's three-valued WHERE gives exactly
		// the evaluator's truthy-or-drop rule.
		r := t.row(false)
		cond, err := t.renderExpr(s.FilterExpr, r)
		if err != nil {
			return err
		}
		t.emit(r, "", term{sql: cond}, "")
		return nil
	}
	r := t.row(true)
	if t.typ != ElemValue {
		cond, err := t.attrCond(s, r)
		if err != nil {
			return err
		}
		t.emit(r, "", cond, "")
		return nil
	}
	// Value filter compares VAL directly.
	if s.Kind != gremlin.StepFilter && s.Kind != gremlin.StepHas {
		return fmt.Errorf("translate: %v unsupported on values", s.Kind)
	}
	if s.Op == "" {
		return fmt.Errorf("translate: existence test unsupported on values")
	}
	op, err := sqlOp(s.Op)
	if err != nil {
		return err
	}
	t.emit(r, "", term{sql: fmt.Sprintf("V.VAL %s %s", op, param(s.Arg))}, "")
	return nil
}

// order translates order() / order{key}. The sort happens inside the
// emitted CTE; every downstream template scans its input in order, so
// the ordering survives until a dedup or aggregation. A keyed order
// needs three CTEs — compute the key alongside the element, sort on
// (key, element), then project the key away — because ORDER BY resolves
// against the projected columns only.
func (t *translator) order(s *gremlin.Step) error {
	if t.track && needsPathTracking(t.rest) {
		return fmt.Errorf("translate: order() before a path-dependent step is unsupported")
	}
	if s.KeyExpr == nil {
		t.cur = t.add(fmt.Sprintf("SELECT VAL FROM %s ORDER BY VAL", t.cur))
		t.track = false
		return nil
	}
	r := t.row(false)
	key, err := t.renderExpr(s.KeyExpr, r)
	if err != nil {
		return err
	}
	t.emit(r, r.id+" AS VAL, "+key+" AS OKEY", term{}, "")
	t.cur = t.add(fmt.Sprintf("SELECT VAL, OKEY FROM %s ORDER BY OKEY, VAL", t.cur))
	t.cur = t.add(fmt.Sprintf("SELECT VAL FROM %s", t.cur))
	t.sorted = true
	t.track = false
	return nil
}

// group translates groupBy{key}{value} and groupCount{key} into a GROUP
// BY CTE whose VAL packs each group into one list — (key, count) for
// groupCount, (key, sorted values) for groupBy — followed by an ORDER BY
// VAL strip for a deterministic group order.
func (t *translator) group(s *gremlin.Step) error {
	if t.track && needsPathTracking(t.rest) {
		return fmt.Errorf("translate: %v before a path-dependent step is unsupported", s.Kind)
	}
	r := t.row(false)
	key, err := t.renderExpr(s.KeyExpr, r)
	if err != nil {
		return err
	}
	agg := "COUNT(*)"
	if s.Kind == gremlin.StepGroupBy {
		val, err := t.renderExpr(s.ValueExpr, r)
		if err != nil {
			return err
		}
		agg = fmt.Sprintf("LISTAGG(%s)", val)
	}
	t.emit(r, fmt.Sprintf("(LIST() || %s || %s) AS VAL", key, agg), term{}, "GROUP BY "+key)
	t.cur = t.add(fmt.Sprintf("SELECT VAL FROM %s ORDER BY VAL", t.cur))
	t.typ = ElemValue
	t.track = false
	t.depth = 1
	t.typeHistReset(ElemValue)
	return nil
}

// back translates back(n) / back('name') using the statically known path
// positions (every transform pipe appends exactly one element).
func (t *translator) back(s *gremlin.Step) error {
	if !t.track {
		return fmt.Errorf("translate: internal: back without tracking")
	}
	var targetDepth int
	if s.Name != "" {
		m, ok := t.marks[s.Name]
		if !ok {
			return fmt.Errorf("translate: back(%q) has no matching as(%q)", s.Name, s.Name)
		}
		targetDepth = m.depth
	} else {
		targetDepth = t.depth - s.BackN
	}
	if targetDepth < 1 || targetDepth > t.depth {
		return fmt.Errorf("translate: back target out of range")
	}
	if targetDepth == t.depth {
		return nil // back(0): identity
	}
	drop := t.depth - targetDepth // elements to remove from the full path
	idx := targetDepth - 1        // 0-based index of the target in the full path
	t.cur = t.add(fmt.Sprintf(
		"SELECT (V.PATH || V.VAL)[%d] AS VAL, LIST_TRIM(V.PATH || V.VAL, %d) AS PATH FROM %s V",
		idx, drop+1, t.cur))
	t.depth = targetDepth
	if t.hist != nil && idx < len(t.hist) {
		t.typ = t.hist[idx]
		t.hist = t.hist[:idx+1]
	}
	return nil
}

// ifThenElse splits the stream on an attribute predicate, translates both
// branches, and unions the results (paper Section 4.3's branch handling,
// restricted to simple predicates per Section 4.4).
func (t *translator) ifThenElse(s *gremlin.Step) error {
	if t.typ == ElemValue {
		return fmt.Errorf("translate: ifThenElse on values")
	}
	r := t.row(true)
	var cond term
	var err error
	if s.Test == nil && s.TestExpr != nil {
		cond.sql, err = t.renderExpr(s.TestExpr, r)
	} else {
		cond, err = t.attrCond(&gremlin.Step{Kind: gremlin.StepFilter, Key: s.Test.Key, Op: s.Test.Op, Value: s.Test.Value, Arg: s.Arg}, r)
	}
	if err != nil {
		return err
	}

	in := t.cur
	t.emit(r, "", cond, "")
	thenIn := t.cur
	elseIn := t.add(fmt.Sprintf("SELECT V.VAL AS VAL%s FROM %s V WHERE V.VAL NOT IN (SELECT VAL FROM %s)",
		t.carryPath(), in, thenIn))

	savedDepth, savedType := t.depth, t.typ
	savedHist := append([]ElemType(nil), t.hist...)

	t.cur = thenIn
	if err := t.pipeline(s.Then); err != nil {
		return err
	}
	thenOut, thenDepth, thenType := t.cur, t.depth, t.typ

	t.cur, t.depth, t.typ = elseIn, savedDepth, savedType
	t.hist = savedHist
	if err := t.pipeline(s.Else); err != nil {
		return err
	}
	elseOut, elseDepth, elseType := t.cur, t.depth, t.typ

	if thenType != elseType || (t.track && thenDepth != elseDepth) {
		return fmt.Errorf("translate: ifThenElse branches diverge (%s depth %d vs %s depth %d)",
			thenType, thenDepth, elseType, elseDepth)
	}
	t.depth, t.typ = thenDepth, thenType
	t.cur = t.add(fmt.Sprintf("SELECT VAL%s FROM %s UNION ALL SELECT VAL%s FROM %s",
		t.pathSel(), thenOut, t.pathSel(), elseOut))
	return nil
}

// loop translates loop pipes by unrolling: the parser bounds every loop,
// so its depth is known statically.
func (t *translator) loop(steps []gremlin.Step, loopIdx int, s *gremlin.Step) error {
	segment := loopSegment(steps, loopIdx)
	if len(segment) == 0 {
		return fmt.Errorf("translate: loop has an empty segment")
	}
	if s.LoopMax < 1 {
		return fmt.Errorf("translate: loop bound must be positive")
	}
	// The segment has already run once; repeat LoopMax-1 times.
	for pass := 1; pass < s.LoopMax; pass++ {
		if err := t.pipeline(segment); err != nil {
			return err
		}
	}
	return nil
}

// uniqueLabels drops duplicate labels, preserving first-seen order.
func uniqueLabels(labels []string) []string {
	if len(labels) < 2 {
		return labels
	}
	seen := make(map[string]bool, len(labels))
	out := labels[:0:0]
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}
