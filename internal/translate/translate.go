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

// Options tune the translation (defaults reproduce the paper's choices).
type Options struct {
	// ForceEA answers every adjacency step from the EA table (the paper's
	// Figure 6 comparison: EA-only path computation).
	ForceEA bool
	// ForceHashTables answers every adjacency step from OPA/OSA + IPA/ISA
	// even for single-lookup queries (Table 4's other side).
	ForceHashTables bool
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
	// Hints is always nil: nothing estimates a CTE's cardinality. Its
	// sole reader is the frozen benchmark harness (benchmark/).
	Hints map[string]float64
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
		sort:  -1,
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
	sort      int               // the CTE of an order's sort, which a range right after it cuts; -1 when there is none
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
// no more folds and an order's sort no more cut.
func (t *translator) add(body string) string {
	t.src, t.sort = nil, -1
	name := t.fresh()
	t.ctes = append(t.ctes, cte{name: name, body: body})
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
	tr := &Translation{Template: sb.String(), ElemType: t.typ}
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
		sc.table, sc.id = "VA", "VID"
		sc.terms = append(sc.terms, term{sql: "VID >= 0"})
	case gremlin.StepE:
		t.typ = ElemEdge
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
