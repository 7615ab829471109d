// Package gremlin implements a hand-written parser for the subset of the
// Gremlin graph traversal language (TinkerPop 2 dialect) that the paper's
// translation covers: side-effect-free traversal pipes plus the update
// operations, with closures restricted to simple comparisons (paper
// Section 4.4's stated limitation).
package gremlin

import (
	"fmt"
	"strconv"
	"strings"

	"sqlgraph/internal/gremlin/expr"
)

// StepKind enumerates supported pipes.
type StepKind int

// Step kinds, grouped as in paper Table 5.
const (
	// Sources.
	StepV StepKind = iota // g.V, g.V(id), g.V('key', val)
	StepE                 // g.E, g.E(id)

	// Transform pipes.
	StepOut      // out('lbl'...)
	StepIn       // in('lbl'...)
	StepBoth     // both('lbl'...)
	StepOutE     // outE('lbl'...)
	StepInE      // inE('lbl'...)
	StepBothE    // bothE('lbl'...)
	StepOutV     // outV (edge -> source vertex)
	StepInV      // inV (edge -> target vertex)
	StepBothV    // bothV
	StepID       // id
	StepLabel    // label
	StepProperty // property('key') or bare .key access
	StepPath     // path
	StepCount    // count()

	// Filter pipes.
	StepHas        // has('key'), has('key', val), has('key', T.op, val)
	StepHasNot     // hasNot('key')
	StepInterval   // interval('key', lo, hi)
	StepFilter     // filter{it.key op val}
	StepDedup      // dedup()
	StepRange      // range(lo, hi)
	StepSimplePath // simplePath
	StepExcept     // except('name')
	StepRetain     // retain('name')
	StepBack       // back(n) or back('name')

	// Side effect pipes (identity semantics plus bookkeeping).
	StepAs        // as('name')
	StepAggregate // aggregate(x)
	StepTable     // table(t) — identity (paper §4.4)
	StepIterate   // iterate() — drain

	// Branch pipes.
	StepIfThenElse // ifThenElse{test}{then}{else}
	StepLoop       // loop('name'|n){it.loops < k}

	// Ordering and grouping pipes.
	StepOrder      // order() or order{keyExpr}
	StepGroupBy    // groupBy{keyExpr}{valueExpr}
	StepGroupCount // groupCount{keyExpr}
)

var stepNames = map[StepKind]string{
	StepV: "V", StepE: "E", StepOut: "out", StepIn: "in", StepBoth: "both",
	StepOutE: "outE", StepInE: "inE", StepBothE: "bothE", StepOutV: "outV",
	StepInV: "inV", StepBothV: "bothV", StepID: "id", StepLabel: "label",
	StepProperty: "property", StepPath: "path", StepCount: "count",
	StepHas: "has", StepHasNot: "hasNot", StepInterval: "interval",
	StepFilter: "filter", StepDedup: "dedup", StepRange: "range",
	StepSimplePath: "simplePath", StepExcept: "except", StepRetain: "retain",
	StepBack: "back", StepAs: "as", StepAggregate: "aggregate",
	StepTable: "table", StepIterate: "iterate",
	StepIfThenElse: "ifThenElse", StepLoop: "loop",
	StepOrder: "order", StepGroupBy: "groupBy", StepGroupCount: "groupCount",
}

// String returns the pipe name.
func (k StepKind) String() string {
	if n, ok := stepNames[k]; ok {
		return n
	}
	return fmt.Sprintf("StepKind(%d)", int(k))
}

// CmpOp is a comparison operator inside has/filter/interval closures.
type CmpOp string

// Supported comparison operators.
const (
	OpEq  CmpOp = "=="
	OpNeq CmpOp = "!="
	OpLt  CmpOp = "<"
	OpLte CmpOp = "<="
	OpGt  CmpOp = ">"
	OpGte CmpOp = ">="
)

// Predicate is a simple comparison on the current element: it.Key Op
// Value, or a key-only existence test when Op is empty.
type Predicate struct {
	Key   string
	Op    CmpOp
	Value any // nil + empty Op = existence test
}

func (p *Predicate) String() string {
	if p.Op == "" {
		return fmt.Sprintf("it.%s", p.Key)
	}
	return fmt.Sprintf("it.%s %s %s", p.Key, p.Op, formatVal(p.Value))
}

// Step is one pipe in a pipeline.
type Step struct {
	Kind   StepKind
	Labels []string // edge labels for traversal pipes

	// Filter payloads.
	Key   string
	Op    CmpOp
	Value any
	Lo    any // interval / range low
	Hi    any // interval / range high

	// Naming payloads.
	Name  string // as/back/aggregate/except/retain/table/loop target
	BackN int    // back(n) / loop(n) numeric form; 0 when named

	// Source payloads.
	StartIDs []int64 // V(1), E(7)
	StartKey string  // V('key', val)
	StartVal any

	// Arg is the position in Query.Args of the step's first argument: the
	// id list or the value of a source, the value of has/filter or of an
	// ifThenElse test, the low bound of interval (the high bound follows
	// it). Meaningless for a step that carries none.
	Arg int

	// Branch payloads.
	Test     *Predicate
	Then     []Step
	Else     []Step
	LoopMax  int // loop {it.loops < N}
	LoopPred *Predicate

	// Closure expression payloads. FilterExpr carries a general
	// filter{...} body (when it reduces to a simple predicate the
	// Key/Op/Value fields above are ALSO populated and take precedence,
	// preserving the original simple-closure semantics). TestExpr is the
	// ifThenElse test; KeyExpr/ValueExpr are the order/groupBy/groupCount
	// closures (a nil KeyExpr on order means order() by value).
	FilterExpr expr.Node
	TestExpr   expr.Node
	KeyExpr    expr.Node
	ValueExpr  expr.Node
}

// Arg is one literal a query carries beside its shape: the id list of
// V(...)/E(...), or the comparison value of V(key, v), has, interval, a
// filter closure of the form it.key op literal, or an ifThenElse test of
// that form.
type Arg struct {
	Val any     // int64, float64, string or bool; nil for an id list
	IDs []int64 // the ids of V(...)/E(...)
}

// Query is a parsed Gremlin query: a pipeline rooted at a source step.
//
// Shape is the query with its arguments cut out: String() with a marker
// in place of each Arg — ?* for an id list, ?i ?f ?s ?b for a value of
// that kind — so g.V(1, 2).out and g.V(7, 8, 9).out share a shape, and
// has('k', 1) and has('k', 'x') do not. Labels, property keys,
// comparison operators, loop and range bounds and general closure
// bodies are what a translation's structure depends on and stay in the
// shape. Args holds the arguments in the order of their markers.
type Query struct {
	Steps []Step
	Text  string // original query text
	Shape string
	Args  []Arg
}

// String reconstructs a canonical form of the query.
func (q *Query) String() string {
	var sb strings.Builder
	q.write(&sb, nil)
	return sb.String()
}

// write renders the query: in full when args is nil, else as its shape,
// the arguments going to args and their positions to the steps.
func (q *Query) write(sb *strings.Builder, args *[]Arg) {
	sb.WriteString("g")
	for i := range q.Steps {
		sb.WriteByte('.')
		writeStep(sb, &q.Steps[i], args)
	}
}

// writeVal renders a comparison value, or in a shape the marker of its
// kind.
func writeVal(sb *strings.Builder, v any, args *[]Arg) {
	if args == nil {
		sb.WriteString(formatVal(v))
		return
	}
	kind := byte('i')
	switch v.(type) {
	case float64:
		kind = 'f'
	case string:
		kind = 's'
	case bool:
		kind = 'b'
	}
	sb.WriteByte('?')
	sb.WriteByte(kind)
	*args = append(*args, Arg{Val: v})
}

// writeQuoted renders pipe('name').
func writeQuoted(sb *strings.Builder, pipe, name string) {
	sb.WriteString(pipe)
	sb.WriteByte('(')
	writeQuote(sb, name)
	sb.WriteByte(')')
}

func writeStep(sb *strings.Builder, s *Step, args *[]Arg) {
	if args != nil {
		s.Arg = len(*args)
	}
	switch s.Kind {
	case StepV, StepE:
		sb.WriteString(s.Kind.String())
		switch {
		case len(s.StartIDs) > 0 && args != nil:
			sb.WriteString("(?*)")
			*args = append(*args, Arg{IDs: s.StartIDs})
		case len(s.StartIDs) > 0:
			sb.WriteByte('(')
			for i, id := range s.StartIDs {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(strconv.FormatInt(id, 10))
			}
			sb.WriteByte(')')
		case s.StartKey != "":
			sb.WriteByte('(')
			writeQuote(sb, s.StartKey)
			sb.WriteString(", ")
			writeVal(sb, s.StartVal, args)
			sb.WriteByte(')')
		}
	case StepOut, StepIn, StepBoth, StepOutE, StepInE, StepBothE:
		sb.WriteString(s.Kind.String())
		if len(s.Labels) > 0 {
			sb.WriteByte('(')
			for i, l := range s.Labels {
				if i > 0 {
					sb.WriteString(", ")
				}
				writeQuote(sb, l)
			}
			sb.WriteByte(')')
		}
	case StepHas:
		sb.WriteString("has(")
		writeQuote(sb, s.Key)
		if s.Op != "" {
			if s.Op != OpEq {
				sb.WriteString(", T.")
				sb.WriteString(opToken(s.Op))
			}
			sb.WriteString(", ")
			writeVal(sb, s.Value, args)
		}
		sb.WriteByte(')')
	case StepHasNot:
		writeQuoted(sb, "hasNot", s.Key)
	case StepInterval:
		sb.WriteString("interval(")
		writeQuote(sb, s.Key)
		sb.WriteString(", ")
		writeVal(sb, s.Lo, args)
		sb.WriteString(", ")
		writeVal(sb, s.Hi, args)
		sb.WriteByte(')')
	case StepFilter:
		sb.WriteString("filter{")
		switch {
		case s.Key == "" && s.FilterExpr != nil:
			sb.WriteString(s.FilterExpr.String())
		case s.Op == "" && s.Value == nil:
			sb.WriteString("it." + s.Key) // existence test
		default:
			writePredicate(sb, s.Key, s.Op, s.Value, args)
		}
		sb.WriteByte('}')
	case StepRange:
		fmt.Fprintf(sb, "range(%v, %v)", s.Lo, s.Hi)
	case StepProperty:
		sb.WriteString(s.Key)
	case StepBack:
		if s.Name != "" {
			writeQuoted(sb, "back", s.Name)
		} else {
			fmt.Fprintf(sb, "back(%d)", s.BackN)
		}
	case StepAs, StepAggregate, StepExcept, StepRetain, StepTable:
		writeQuoted(sb, s.Kind.String(), s.Name)
	case StepIfThenElse:
		sb.WriteString("ifThenElse{")
		switch {
		case s.Test == nil && s.TestExpr != nil:
			sb.WriteString(s.TestExpr.String())
		case s.Test.Op == "":
			sb.WriteString("it." + s.Test.Key)
		default:
			writePredicate(sb, s.Test.Key, s.Test.Op, s.Test.Value, args)
		}
		sb.WriteString("}{")
		writeSteps(sb, s.Then, args)
		sb.WriteString("}{")
		writeSteps(sb, s.Else, args)
		sb.WriteByte('}')
	case StepLoop:
		target := quote(s.Name)
		if s.Name == "" {
			target = strconv.Itoa(s.BackN)
		}
		fmt.Fprintf(sb, "loop(%s){it.loops < %d}", target, s.LoopMax)
	case StepOrder:
		if s.KeyExpr == nil {
			sb.WriteString("order()")
		} else {
			fmt.Fprintf(sb, "order{%s}", s.KeyExpr)
		}
	case StepGroupBy:
		fmt.Fprintf(sb, "groupBy{%s}{%s}", s.KeyExpr, s.ValueExpr)
	case StepGroupCount:
		fmt.Fprintf(sb, "groupCount{%s}", s.KeyExpr)
	case StepCount, StepDedup, StepIterate:
		sb.WriteString(s.Kind.String())
		sb.WriteString("()")
	default:
		sb.WriteString(s.Kind.String())
	}
}

// writePredicate renders it.key op value.
func writePredicate(sb *strings.Builder, key string, op CmpOp, val any, args *[]Arg) {
	sb.WriteString("it.")
	sb.WriteString(key)
	sb.WriteByte(' ')
	sb.WriteString(string(op))
	sb.WriteByte(' ')
	writeVal(sb, val, args)
}

func writeSteps(sb *strings.Builder, steps []Step, args *[]Arg) {
	sb.WriteString("it")
	for i := range steps {
		sb.WriteByte('.')
		writeStep(sb, &steps[i], args)
	}
}

func opToken(op CmpOp) string {
	switch op {
	case OpEq:
		return "eq"
	case OpNeq:
		return "neq"
	case OpLt:
		return "lt"
	case OpLte:
		return "lte"
	case OpGt:
		return "gt"
	case OpGte:
		return "gte"
	}
	return "?"
}

// writeQuote renders a string literal, escaping the characters the lexer
// treats specially so String() output always re-parses to the same
// value (the FuzzParse round-trip property).
func writeQuote(sb *strings.Builder, s string) {
	sb.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('\'')
}

func quote(s string) string {
	var sb strings.Builder
	writeQuote(&sb, s)
	return sb.String()
}

func formatVal(v any) string {
	switch x := v.(type) {
	case string:
		return quote(x)
	case float64:
		// Never exponent notation: the lexer has no exponent syntax, and
		// String() output must re-parse (the FuzzParse round trip).
		return expr.FormatFloat(x)
	default:
		return fmt.Sprint(x)
	}
}
