// Package translate compiles side-effect-free Gremlin queries into a
// single SQL statement over the SQLGraph schema, following the CTE
// templates of the paper's Section 4.3 and Table 8. Each pipe maps the
// current result table (a CTE with a VAL column and, when path tracking
// is needed, a PATH column) to a new CTE; the final statement is one
// WITH ... SELECT handed to the relational optimizer in one shot.
package translate

import (
	"fmt"
	"strconv"
	"strings"

	"sqlgraph/internal/gremlin"
)

// ElemType tracks what the VAL column currently holds.
type ElemType int

// Element types.
const (
	ElemVertex ElemType = iota
	ElemEdge
	ElemValue
)

func (e ElemType) String() string {
	switch e {
	case ElemVertex:
		return "vertex"
	case ElemEdge:
		return "edge"
	default:
		return "value"
	}
}

// Schema describes the physical layout the translator emits against.
type Schema interface {
	OutColumns() int
	InColumns() int
	OutColumnFor(label string) int
	InColumnFor(label string) int
}

// GraphStats exposes graph-level cardinalities. When the Schema value
// also implements it (discovered by type assertion, so translation
// Options — and with them the prepared-query cache key — are unchanged),
// the translator maintains a running frontier estimate and snapshots it
// per emitted CTE into Translation.Hints; the engine's cost-based planner
// folds those hints into join costing, and EXPLAIN ANALYZE reports them
// as est= on cte lines.
type GraphStats interface {
	// VertexCount returns the live vertex count.
	VertexCount() float64
	// EdgeCount returns the live edge count.
	EdgeCount() float64
	// OutFanout estimates the out-edges per frontier vertex matching the
	// label set (empty = all labels); InFanout the in-edge analogue.
	OutFanout(labels []string) float64
	InFanout(labels []string) float64
}

// Hint-model selectivities for predicates the translator cannot cost
// (coarse on purpose: hints are advisory, and the estimate-vs-actual
// corpus pins per-query q-error bounds rather than exact numbers).
const (
	hintSelEq     = 0.1  // attribute equality
	hintSelFilter = 0.25 // any other attribute predicate
)

// Options tune the translation (defaults reproduce the paper's choices).
type Options struct {
	// ForceEA answers every adjacency step from the EA table (the paper's
	// Figure 6 comparison: EA-only path computation).
	ForceEA bool
	// ForceHashTables answers every adjacency step from OPA/OSA + IPA/ISA
	// even for single-lookup queries (Table 4's other side).
	ForceHashTables bool
	// RecursiveLoops translates single-step loop segments into a
	// recursive CTE instead of unrolling (paper Section 4.3's fallback
	// for loops whose depth the engine should iterate).
	RecursiveLoops bool
}

// Translation is the compiled form of a Gremlin query: one statement per
// query shape, and what this query's arguments make of it.
type Translation struct {
	// Template is the statement with ?N where the query's N-th argument
	// (gremlin.Query.Args, from 1) goes: a comparison value, or after IN
	// an id list. It depends on the query's shape and the Options only,
	// so it can be executed for any query of that shape, bound to that
	// query's arguments.
	Template string
	// SQL is the template with this query's arguments written in as
	// literals: executable on its own, and what /translate, EXPLAIN and
	// the trace show.
	SQL      string
	ElemType ElemType
	// Hints maps emitted CTE names to the translator's estimated row
	// counts for this query's arguments (nil when the Schema does not
	// implement GraphStats). HintsFor gives them for another query of
	// the shape.
	Hints map[string]float64

	hintFns map[string]estimate
	idArg   int // position of the id list among the arguments, -1 without one
	ids     int // its length in the query translated
}

// estimate is a cardinality as a function of the length of the query's
// id list — the one property of the arguments the hint model reads.
type estimate func(ids float64) float64

// HintsFor returns the hints for a query of this translation's shape with
// the given arguments: Hints itself unless its id list is of another
// length.
func (tr *Translation) HintsFor(args []gremlin.Arg) map[string]float64 {
	if tr.hintFns == nil || tr.idArg < 0 || len(args[tr.idArg].IDs) == tr.ids {
		return tr.Hints
	}
	return evalHints(tr.hintFns, len(args[tr.idArg].IDs))
}

func evalHints(fns map[string]estimate, ids int) map[string]float64 {
	hints := make(map[string]float64, len(fns))
	for name, f := range fns {
		hints[name] = max(f(float64(ids)), 0)
	}
	return hints
}

// Render writes args into the template as literals. An argument is
// rendered the way the translator always wrote a Gremlin value into SQL,
// so the text is the one a translation of the query itself carries as SQL.
func (tr *Translation) Render(args []gremlin.Arg) string {
	var sb strings.Builder
	sb.Grow(len(tr.Template))
	t := tr.Template
	for i := 0; i < len(t); {
		switch t[i] {
		case '\'':
			// A key or label: copied through to its closing quote ('' is an
			// escaped one and reads as two strings back to back).
			end := i + 1 + strings.IndexByte(t[i+1:], '\'')
			sb.WriteString(t[i : end+1])
			i = end + 1
		case '?':
			end := i + 1
			for end < len(t) && t[end] >= '0' && t[end] <= '9' {
				end++
			}
			n, _ := strconv.Atoi(t[i+1 : end])
			writeArg(&sb, args[n-1])
			i = end
		default:
			sb.WriteByte(t[i])
			i++
		}
	}
	return sb.String()
}

// ArgSQL renders a Gremlin argument as the SQL text Render writes for it.
func ArgSQL(a gremlin.Arg) string {
	var sb strings.Builder
	writeArg(&sb, a)
	return sb.String()
}

func writeArg(sb *strings.Builder, a gremlin.Arg) {
	for i, id := range a.IDs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatInt(id, 10))
	}
	if a.IDs == nil {
		sb.WriteString(valueSQL(a.Val))
	}
}

// valueSQL renders a Gremlin value as a SQL literal. Only Render (an
// argument) and sqlExprLit (a general closure's constant, which belongs
// to the shape) write one into SQL; the translator itself writes
// parameters.
func valueSQL(v any) string {
	switch x := v.(type) {
	case string:
		return strLit(x)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	case nil:
		return "NULL"
	default:
		return fmt.Sprint(x)
	}
}

// Translate compiles a parsed Gremlin query.
func Translate(q *gremlin.Query, sch Schema, opts Options) (*Translation, error) {
	return newTranslator(sch, opts).translate(q)
}

// TranslateWithTail is Translate with a nil tail: every query compiles
// whole. Its sole caller is the frozen benchmark harness (benchmark/).
func TranslateWithTail(q *gremlin.Query, sch Schema, opts Options) (*Translation, []gremlin.Step, error) {
	tr, err := Translate(q, sch, opts)
	return tr, nil, err
}

func newTranslator(sch Schema, opts Options) *translator {
	tr := &translator{
		sch:   sch,
		opts:  opts,
		marks: map[string]mark{},
		aggs:  map[string]string{},
	}
	if gs, ok := sch.(GraphStats); ok && gs != nil {
		tr.gstats = gs
		tr.hints = map[string]estimate{}
	}
	return tr
}

type mark struct {
	depth int // static path position of the marked element
	typ   ElemType
}

type translator struct {
	sch  Schema
	opts Options

	ctes    []cte
	nameSeq int

	cur       string // current CTE name
	typ       ElemType
	track     bool           // path tracking enabled
	rest      []gremlin.Step // steps after the one being translated (innermost pipeline first)
	depth     int            // static number of elements in the full path so far (>=1)
	hist      []ElemType     // element type at each static path position
	marks     map[string]mark
	aggs      map[string]string // aggregate name -> CTE
	traversal int               // total adjacency steps in the query (for the EA optimization)
	src       *scan             // the source CTE while steps may fold into it (row)
	sorted    bool              // the last two CTEs are a keyed order's sort and projection

	gstats GraphStats          // nil = no cardinality hints
	est    estimate            // running frontier cardinality estimate
	hints  map[string]estimate // CTE name -> estimate snapshot at add()
}

// estConst sets the running estimate to x whatever the arguments.
func (t *translator) estConst(x float64) {
	t.est = func(float64) float64 { return x }
}

// estMap passes the running estimate through f.
func (t *translator) estMap(f func(est float64) float64) {
	if prev := t.est; prev != nil {
		t.est = func(ids float64) float64 { return f(prev(ids)) }
	}
}

// estScale multiplies the running estimate by x.
func (t *translator) estScale(x float64) {
	t.estMap(func(est float64) float64 { return est * x })
}

type cte struct {
	name string
	body string
}

func (t *translator) fresh() string {
	t.nameSeq++
	return fmt.Sprintf("T%d", t.nameSeq)
}

// add appends a CTE. It reads the current one, so the source scan takes
// no more folds and a keyed order's sort no more cut.
func (t *translator) add(body string) string {
	t.src, t.sorted = nil, false
	name := t.fresh()
	t.ctes = append(t.ctes, cte{name: name, body: body})
	if t.hints != nil {
		t.hints[name] = t.est
	}
	return name
}

// pathCols renders the projection of the path column for a step that
// appends the current element ("V" is the input alias).
func (t *translator) pathAppend() string {
	return "(V.PATH || V.VAL) AS PATH"
}

// carry renders ", V.PATH AS PATH" style carriers for steps that do not
// move to a new element.
func (t *translator) carryPath() string {
	if !t.track {
		return ""
	}
	return ", V.PATH AS PATH"
}

func (t *translator) extendPath() string {
	if !t.track {
		return ""
	}
	return ", " + t.pathAppend()
}

// needsPathTracking reports whether any pipe requires path bookkeeping.
func needsPathTracking(steps []gremlin.Step) bool {
	for i := range steps {
		switch steps[i].Kind {
		case gremlin.StepPath, gremlin.StepSimplePath, gremlin.StepBack:
			return true
		case gremlin.StepIfThenElse:
			if needsPathTracking(steps[i].Then) || needsPathTracking(steps[i].Else) {
				return true
			}
		}
	}
	return false
}

// countTraversals counts adjacency steps (loop segments count their full
// expansion) to drive the EA-vs-hash-table choice of Section 3.5.
func countTraversals(steps []gremlin.Step) int {
	n := 0
	for i := range steps {
		switch steps[i].Kind {
		case gremlin.StepOut, gremlin.StepIn, gremlin.StepBoth,
			gremlin.StepOutE, gremlin.StepInE, gremlin.StepBothE:
			n++
		case gremlin.StepLoop:
			// The segment already ran once; each extra pass repeats it.
			n += (steps[i].LoopMax - 1) * countTraversals(loopSegment(steps, i))
		case gremlin.StepIfThenElse:
			n += countTraversals(steps[i].Then) + countTraversals(steps[i].Else)
		}
	}
	return n
}

func loopSegment(steps []gremlin.Step, loopIdx int) []gremlin.Step {
	s := &steps[loopIdx]
	if s.Name != "" {
		for j := loopIdx - 1; j >= 0; j-- {
			if steps[j].Kind == gremlin.StepAs && steps[j].Name == s.Name {
				return steps[j+1 : loopIdx]
			}
		}
		return nil
	}
	start := loopIdx - s.BackN
	if start < 0 {
		return nil
	}
	return steps[start:loopIdx]
}

func (t *translator) translate(q *gremlin.Query) (*Translation, error) {
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("translate: empty query")
	}
	t.track = needsPathTracking(q.Steps)
	t.traversal = countTraversals(q.Steps)

	if err := t.source(&q.Steps[0]); err != nil {
		return nil, err
	}
	if err := t.pipeline(q.Steps[1:]); err != nil {
		return nil, err
	}

	var sb strings.Builder
	if len(t.ctes) == 1 && !t.track {
		sb.WriteString(t.ctes[0].body)
	} else {
		sb.WriteString("WITH ")
		for i, c := range t.ctes {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.name)
			sb.WriteString(" AS (")
			sb.WriteString(c.body)
			sb.WriteString(")")
		}
		sb.WriteString(" SELECT VAL FROM ")
		sb.WriteString(t.ctes[len(t.ctes)-1].name)
	}
	tr := &Translation{Template: sb.String(), ElemType: t.typ, hintFns: t.hints, idArg: -1}
	if src := &q.Steps[0]; len(src.StartIDs) > 0 {
		tr.idArg, tr.ids = src.Arg, len(src.StartIDs)
	}
	if t.hints != nil {
		tr.Hints = evalHints(t.hints, tr.ids)
	}
	tr.SQL = tr.Render(q.Args)
	return tr, nil
}

// pipeline translates a run of steps.
func (t *translator) pipeline(steps []gremlin.Step) error {
	outer := t.rest
	defer func() { t.rest = outer }()
	for i := 0; i < len(steps); i++ {
		s := &steps[i]
		// Expose the downstream steps (this pipeline's tail, then the
		// enclosing pipeline's) so steps like dedup() can check whether
		// path tracking is still needed.
		t.rest = append(append([]gremlin.Step{}, steps[i+1:]...), outer...)
		var err error
		if !foldable(s.Kind) {
			t.src = nil
		}
		if s.Kind == gremlin.StepLoop {
			err = t.loop(steps, i, s)
		} else {
			t.estimateStep(s)
			err = t.step(s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// strLit renders a property key or an edge label as a SQL string. Keys
// and labels are part of a query's shape; its values are arguments and
// reach the statement as parameters (param).
func strLit(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// param renders the parameter that reads the query's argument at pos.
func param(pos int) string { return "?" + strconv.Itoa(pos+1) }

func sqlOp(op gremlin.CmpOp) (string, error) {
	switch op {
	case gremlin.OpEq:
		return "=", nil
	case gremlin.OpNeq:
		return "<>", nil
	case gremlin.OpLt:
		return "<", nil
	case gremlin.OpLte:
		return "<=", nil
	case gremlin.OpGt:
		return ">", nil
	case gremlin.OpGte:
		return ">=", nil
	default:
		return "", fmt.Errorf("translate: unsupported operator %q", op)
	}
}

// source emits the first CTE, a scan of VA or EA, and leaves it open for
// the steps right after it to fold into (row).
func (t *translator) source(s *gremlin.Step) error {
	sc := &scan{}
	switch s.Kind {
	case gremlin.StepV:
		t.typ = ElemVertex
		t.estSource(s, GraphStats.VertexCount)
		sc.table, sc.id = "VA", "VID"
		sc.terms = append(sc.terms, term{sql: "VID >= 0"})
	case gremlin.StepE:
		t.typ = ElemEdge
		t.estSource(s, GraphStats.EdgeCount)
		sc.table, sc.id = "EA", "EID"
	default:
		return fmt.Errorf("translate: query must start with V or E")
	}
	if len(s.StartIDs) > 0 {
		sc.terms = append(sc.terms, term{sql: sc.id + " IN (" + param(s.Arg) + ")"})
	}
	sc.sel = sc.id + " AS VAL"
	if t.track {
		sc.sel += ", LIST() AS PATH"
	}
	t.cur = t.add(sc.body())
	sc.cte = len(t.ctes) - 1
	t.src = sc
	t.depth = 1
	t.hist = []ElemType{t.typ}
	if s.StartKey != "" {
		// V(key, value) is has(key, value) folded into the scan.
		r := t.row(true)
		c, err := t.attrCond(&gremlin.Step{Kind: gremlin.StepHas, Key: s.StartKey, Op: gremlin.OpEq, Arg: s.Arg}, r)
		if err != nil {
			return err
		}
		t.emit(r, "", c, "")
	}
	return nil
}

// estSource starts the running estimate at a source step: the length of
// its id list, or the count of every element, times the selectivity of a
// key lookup.
func (t *translator) estSource(s *gremlin.Step, count func(GraphStats) float64) {
	if t.gstats == nil {
		return
	}
	if len(s.StartIDs) > 0 {
		t.est = func(ids float64) float64 { return ids }
	} else {
		t.estConst(count(t.gstats))
	}
	if s.StartKey != "" {
		t.estScale(hintSelEq)
	}
}
