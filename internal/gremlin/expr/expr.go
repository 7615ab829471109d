// Package expr implements the closure-body expression language used by
// Gremlin's filter{...}, ifThenElse{...}{...}{...}, loop(...){...},
// order{...}, groupBy{...}{...}, and groupCount{...} pipes: literals
// (int/float/string/bool), `it` property/id/label/loops access,
// arithmetic (+ - * / %), comparisons, boolean composition (&& || !),
// parentheses, and the string methods contains/startsWith.
//
// The evaluator mirrors the SQL engine's expression semantics exactly
// (three-valued AND/OR, null-propagating comparisons via rel.Compare,
// the engine's arithmetic promotion rules) so that a closure evaluated
// here, in the interpreter oracle, or pushed down as a rendered SQL
// expression produces the same value. That parity is what the
// differential harness leans on.
package expr

import (
	"strings"

	"sqlgraph/internal/rel"
)

// Node is one expression AST node. String renders a canonical form that
// Parse accepts and re-renders identically (a fixed point, which the
// parser fuzzer checks).
type Node interface {
	String() string
	prec() int
}

// Rendering precedence levels, used only to decide where String needs
// parentheses. Higher binds tighter.
const (
	precOr      = 1
	precAnd     = 2
	precCmp     = 3
	precAdd     = 4
	precMul     = 5
	precUnary   = 6
	precPrimary = 7
)

// Lit is a literal: int64, float64, string, or bool.
type Lit struct {
	Val any
}

func (l *Lit) prec() int      { return precPrimary }
func (l *Lit) String() string { return FormatLit(l.Val) }

// It is an access on the closure variable `it`. Field "" is the bare
// element (`it`); "id" and "loops" are the reserved accessors; any other
// field is a property lookup. Note "label" is deliberately NOT reserved:
// it resolves per element type (edge label for edges, the "label"
// attribute for vertices), which the Env implementation decides.
type It struct {
	Field string
}

func (i *It) prec() int { return precPrimary }
func (i *It) String() string {
	if i.Field == "" {
		return "it"
	}
	return "it." + i.Field
}

// Unary is `!x` or `-x`.
type Unary struct {
	Op string // "!" or "-"
	X  Node
}

func (u *Unary) prec() int { return precUnary }
func (u *Unary) String() string {
	x := u.X.String()
	if u.X.prec() < precUnary {
		x = "(" + x + ")"
	}
	return u.Op + x
}

// Binary is a binary operator application. Ops: && || == != < <= > >=
// + - * / %.
type Binary struct {
	Op   string
	L, R Node
}

func binPrec(op string) int {
	switch op {
	case "||":
		return precOr
	case "&&":
		return precAnd
	case "==", "!=", "<", "<=", ">", ">=":
		return precCmp
	case "+", "-":
		return precAdd
	default: // * / %
		return precMul
	}
}

func (b *Binary) prec() int { return binPrec(b.Op) }

func (b *Binary) String() string {
	p := binPrec(b.Op)
	l, r := b.L.String(), b.R.String()
	// Comparisons are non-associative (the parser accepts at most one),
	// so a comparison operand on either side needs parens. Everything
	// else is left-associative: parens on the left only below this
	// level, on the right at or below it.
	if b.L.prec() < p || (p == precCmp && b.L.prec() == p) {
		l = "(" + l + ")"
	}
	if b.R.prec() <= p {
		r = "(" + r + ")"
	}
	return l + " " + b.Op + " " + r
}

// Call is a method call on a receiver: contains or startsWith, each
// taking exactly one argument.
type Call struct {
	Recv Node
	Name string // "contains" or "startsWith"
	Arg  Node
}

func (c *Call) prec() int { return precPrimary }
func (c *Call) String() string {
	recv := c.Recv.String()
	if c.Recv.prec() < precPrimary {
		recv = "(" + recv + ")"
	}
	return recv + "." + c.Name + "(" + c.Arg.String() + ")"
}

// Env resolves `it` accesses for one pipeline item. Implementations
// return rel.Null for accessors that don't apply (e.g. ID of a value
// item, a missing property).
type Env interface {
	// Prop returns the named property. For edges the property "label"
	// resolves to the edge label; for vertices it is an ordinary
	// attribute lookup.
	Prop(name string) rel.Value
	// ID returns the element id, or Null for plain values.
	ID() rel.Value
	// Loops returns the current loop iteration counter.
	Loops() rel.Value
	// Self returns the value the item projects to (the element id for
	// vertices/edges, the value itself otherwise) — what bare `it`
	// evaluates to.
	Self() rel.Value
}

// Eval evaluates the expression over one item. Semantics match the SQL
// engine: AND/OR are three-valued and short-circuiting, comparisons and
// arithmetic propagate NULL, division/modulo by zero is NULL, and so is
// negating what is not a number. It is total, as the engine's compiled
// expressions are: which items a closure is evaluated on cannot decide
// whether a query fails.
func Eval(n Node, env Env) rel.Value {
	switch x := n.(type) {
	case *Lit:
		return rel.FromAny(x.Val)
	case *It:
		switch x.Field {
		case "":
			return env.Self()
		case "id":
			return env.ID()
		case "loops":
			return env.Loops()
		default:
			return env.Prop(x.Field)
		}
	case *Unary:
		inner := Eval(x.X, env)
		if x.Op == "-" {
			switch inner.Kind() {
			case rel.KindInt:
				return rel.NewInt(-inner.Int())
			case rel.KindFloat:
				return rel.NewFloat(-inner.Float())
			}
			return rel.Null
		}
		// !
		if inner.IsNull() {
			return rel.Null
		}
		return rel.NewBool(!inner.Truthy())
	case *Binary:
		return evalBinary(x, env)
	}
	// Node is sealed (prec is unexported): what is left is a Call, which
	// the parser builds for contains and startsWith only.
	x := n.(*Call)
	recv, arg := Eval(x.Recv, env), Eval(x.Arg, env)
	// Matches the engine's CONTAINS/STARTSWITH builtins: NULL unless both
	// sides are strings.
	if recv.Kind() != rel.KindString || arg.Kind() != rel.KindString {
		return rel.Null
	}
	if x.Name == "contains" {
		return rel.NewBool(strings.Contains(recv.Str(), arg.Str()))
	}
	return rel.NewBool(strings.HasPrefix(recv.Str(), arg.Str()))
}

func evalBinary(b *Binary, env Env) rel.Value {
	switch b.Op {
	case "&&":
		l := Eval(b.L, env)
		if !l.IsNull() && !l.Truthy() {
			return rel.NewBool(false)
		}
		r := Eval(b.R, env)
		if !r.IsNull() && !r.Truthy() {
			return rel.NewBool(false)
		}
		if l.IsNull() || r.IsNull() {
			return rel.Null
		}
		return rel.NewBool(true)
	case "||":
		l := Eval(b.L, env)
		if !l.IsNull() && l.Truthy() {
			return rel.NewBool(true)
		}
		r := Eval(b.R, env)
		if !r.IsNull() && r.Truthy() {
			return rel.NewBool(true)
		}
		if l.IsNull() || r.IsNull() {
			return rel.Null
		}
		return rel.NewBool(false)
	}
	l, r := Eval(b.L, env), Eval(b.R, env)
	switch b.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return rel.Null
		}
		c := rel.Compare(l, r)
		var out bool
		switch b.Op {
		case "==":
			out = c == 0
		case "!=":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return rel.NewBool(out)
	}
	return arith(b.Op, l, r)
}

// arith mirrors the engine's arithmetic exactly: NULL propagates,
// integer ops stay integral only when both sides are ints, modulo always
// coerces to int, division and modulo by a zero divisor are NULL.
func arith(op string, l, r rel.Value) rel.Value {
	if l.IsNull() || r.IsNull() {
		return rel.Null
	}
	intOp := l.Kind() == rel.KindInt && r.Kind() == rel.KindInt
	switch op {
	case "+":
		if intOp {
			return rel.NewInt(l.Int() + r.Int())
		}
		return rel.NewFloat(l.Float() + r.Float())
	case "-":
		if intOp {
			return rel.NewInt(l.Int() - r.Int())
		}
		return rel.NewFloat(l.Float() - r.Float())
	case "*":
		if intOp {
			return rel.NewInt(l.Int() * r.Int())
		}
		return rel.NewFloat(l.Float() * r.Float())
	case "/":
		switch {
		case r.Float() == 0:
			return rel.Null
		case intOp:
			return rel.NewInt(l.Int() / r.Int())
		}
		return rel.NewFloat(l.Float() / r.Float())
	}
	// %
	if r.Int() == 0 {
		return rel.Null
	}
	return rel.NewInt(l.Int() % r.Int())
}

// Truthy reports whether a closure result keeps the item: non-null and
// truthy under the engine's rules (matching SQL WHERE semantics, where
// NULL filters the row out).
func Truthy(v rel.Value) bool {
	return !v.IsNull() && v.Truthy()
}

// ToAny converts a rel.Value to the plain-Go value domain the query
// layer reports results in (mirrors core's result conversion: int64,
// float64, string, bool, nil, nested []any).
func ToAny(v rel.Value) any {
	switch v.Kind() {
	case rel.KindNull:
		return nil
	case rel.KindBool:
		return v.Bool()
	case rel.KindInt:
		return v.Int()
	case rel.KindFloat:
		return v.Float()
	case rel.KindString:
		return v.Str()
	case rel.KindList:
		items := v.List()
		out := make([]any, len(items))
		for i, it := range items {
			out[i] = ToAny(it)
		}
		return out
	default:
		return v.Str()
	}
}

// Walk calls fn for every node in the tree, parent before children.
func Walk(n Node, fn func(Node)) {
	fn(n)
	switch x := n.(type) {
	case *Unary:
		Walk(x.X, fn)
	case *Binary:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Call:
		Walk(x.Recv, fn)
		Walk(x.Arg, fn)
	}
}

// UsesLoops reports whether the expression references it.loops.
func UsesLoops(n Node) bool {
	found := false
	Walk(n, func(m Node) {
		if it, ok := m.(*It); ok && it.Field == "loops" {
			found = true
		}
	})
	return found
}

// OnlyLoops reports whether every `it` access in the expression is
// it.loops — the requirement for loop termination closures, which are
// probed against the iteration counter alone.
func OnlyLoops(n Node) bool {
	ok := true
	Walk(n, func(m Node) {
		if it, isIt := m.(*It); isIt && it.Field != "loops" {
			ok = false
		}
	})
	return ok
}
