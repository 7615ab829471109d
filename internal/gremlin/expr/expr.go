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
	"fmt"
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
// arithmetic propagate NULL, division/modulo by zero is NULL.
func Eval(n Node, env Env) (rel.Value, error) {
	switch x := n.(type) {
	case *Lit:
		return rel.FromAny(x.Val), nil
	case *It:
		switch x.Field {
		case "":
			return env.Self(), nil
		case "id":
			return env.ID(), nil
		case "loops":
			return env.Loops(), nil
		default:
			return env.Prop(x.Field), nil
		}
	case *Unary:
		inner, err := Eval(x.X, env)
		if err != nil {
			return rel.Null, err
		}
		switch x.Op {
		case "!":
			if inner.IsNull() {
				return rel.Null, nil
			}
			return rel.NewBool(!inner.Truthy()), nil
		case "-":
			switch inner.Kind() {
			case rel.KindInt:
				return rel.NewInt(-inner.Int()), nil
			case rel.KindFloat:
				return rel.NewFloat(-inner.Float()), nil
			case rel.KindNull:
				return rel.Null, nil
			default:
				return rel.Null, fmt.Errorf("expr: cannot negate %s", inner.Kind())
			}
		}
		return rel.Null, fmt.Errorf("expr: unknown unary op %s", x.Op)
	case *Binary:
		return evalBinary(x, env)
	case *Call:
		recv, err := Eval(x.Recv, env)
		if err != nil {
			return rel.Null, err
		}
		arg, err := Eval(x.Arg, env)
		if err != nil {
			return rel.Null, err
		}
		// Matches the engine's CONTAINS/STARTSWITH builtins: NULL unless
		// both sides are strings.
		if recv.Kind() != rel.KindString || arg.Kind() != rel.KindString {
			return rel.Null, nil
		}
		switch x.Name {
		case "contains":
			return rel.NewBool(strings.Contains(recv.Str(), arg.Str())), nil
		case "startsWith":
			return rel.NewBool(strings.HasPrefix(recv.Str(), arg.Str())), nil
		}
		return rel.Null, fmt.Errorf("expr: unknown method %s", x.Name)
	}
	return rel.Null, fmt.Errorf("expr: unknown node %T", n)
}

func evalBinary(b *Binary, env Env) (rel.Value, error) {
	switch b.Op {
	case "&&":
		l, err := Eval(b.L, env)
		if err != nil {
			return rel.Null, err
		}
		if !l.IsNull() && !l.Truthy() {
			return rel.NewBool(false), nil
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return rel.Null, err
		}
		if !r.IsNull() && !r.Truthy() {
			return rel.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return rel.Null, nil
		}
		return rel.NewBool(true), nil
	case "||":
		l, err := Eval(b.L, env)
		if err != nil {
			return rel.Null, err
		}
		if !l.IsNull() && l.Truthy() {
			return rel.NewBool(true), nil
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return rel.Null, err
		}
		if !r.IsNull() && r.Truthy() {
			return rel.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return rel.Null, nil
		}
		return rel.NewBool(false), nil
	}
	l, err := Eval(b.L, env)
	if err != nil {
		return rel.Null, err
	}
	r, err := Eval(b.R, env)
	if err != nil {
		return rel.Null, err
	}
	switch b.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return rel.Null, nil
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
		return rel.NewBool(out), nil
	case "+", "-", "*", "/", "%":
		return arith(b.Op, l, r)
	}
	return rel.Null, fmt.Errorf("expr: unknown binary op %s", b.Op)
}

// arith mirrors the engine's arithmetic exactly: NULL propagates,
// integer ops stay integral only when both sides are ints, modulo always
// coerces to int, division and modulo by a zero divisor are NULL.
func arith(op string, l, r rel.Value) (rel.Value, error) {
	if l.IsNull() || r.IsNull() {
		return rel.Null, nil
	}
	intOp := l.Kind() == rel.KindInt && r.Kind() == rel.KindInt
	switch op {
	case "+":
		if intOp {
			return rel.NewInt(l.Int() + r.Int()), nil
		}
		return rel.NewFloat(l.Float() + r.Float()), nil
	case "-":
		if intOp {
			return rel.NewInt(l.Int() - r.Int()), nil
		}
		return rel.NewFloat(l.Float() - r.Float()), nil
	case "*":
		if intOp {
			return rel.NewInt(l.Int() * r.Int()), nil
		}
		return rel.NewFloat(l.Float() * r.Float()), nil
	case "/":
		switch {
		case r.Float() == 0:
			return rel.Null, nil
		case intOp:
			return rel.NewInt(l.Int() / r.Int()), nil
		}
		return rel.NewFloat(l.Float() / r.Float()), nil
	case "%":
		if r.Int() == 0 {
			return rel.Null, nil
		}
		return rel.NewInt(l.Int() % r.Int()), nil
	}
	return rel.Null, fmt.Errorf("expr: unknown arithmetic op %s", op)
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
