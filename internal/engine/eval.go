package engine

import (
	"fmt"
	"math"
	"strings"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/sqljson"
)

// ScalarFunc is a user-defined scalar function (paper Section 4.3 defines
// UDFs such as isSimplePath for filter pipes SQL cannot express natively).
type ScalarFunc func(args []rel.Value) (rel.Value, error)

// evalCtx carries everything expression evaluation needs.
type evalCtx struct {
	eng    *Engine
	scope  *scope
	row    []rel.Value
	params []rel.Value
	aggs   map[sql.Expr]rel.Value // bound aggregate results, post-grouping
	q      *queryState
}

func (e *Engine) eval(ctx *evalCtx, x sql.Expr) (rel.Value, error) {
	switch v := x.(type) {
	case *sql.Literal:
		return rel.FromAny(v.Val), nil
	case *sql.Param:
		if v.Index >= len(ctx.params) {
			return rel.Null, fmt.Errorf("engine: missing parameter %d", v.Index+1)
		}
		return ctx.params[v.Index], nil
	case *sql.ColumnRef:
		i, err := ctx.scope.resolve(v.Table, v.Column)
		if err != nil {
			return rel.Null, err
		}
		return ctx.row[i], nil
	case *sql.Unary:
		return e.evalUnary(ctx, v)
	case *sql.Binary:
		return e.evalBinary(ctx, v)
	case *sql.IsNull:
		inner, err := e.eval(ctx, v.X)
		if err != nil {
			return rel.Null, err
		}
		return rel.NewBool(inner.IsNull() != v.Not), nil
	case *sql.InList:
		return e.evalInList(ctx, v)
	case *sql.InSubquery:
		return e.evalInSubquery(ctx, v)
	case *sql.Exists:
		rows, err := e.subquery(ctx, v.Query)
		if err != nil {
			return rel.Null, err
		}
		return rel.NewBool((len(rows.rows) > 0) != v.Not), nil
	case *sql.ScalarSubquery:
		rows, err := e.subquery(ctx, v.Query)
		if err != nil {
			return rel.Null, err
		}
		if len(rows.rows) == 0 {
			return rel.Null, nil
		}
		if len(rows.rows) > 1 || len(rows.rows[0]) != 1 {
			return rel.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(rows.rows))
		}
		return rows.rows[0][0], nil
	case *sql.Between:
		return e.evalBetween(ctx, v)
	case *sql.FuncCall:
		if ctx.aggs != nil {
			if bound, ok := ctx.aggs[v]; ok {
				return bound, nil
			}
		}
		return e.evalFunc(ctx, v)
	case *sql.Cast:
		inner, err := e.eval(ctx, v.X)
		if err != nil {
			return rel.Null, err
		}
		return castValue(inner, v.Type)
	case *sql.Subscript:
		base, err := e.eval(ctx, v.X)
		if err != nil {
			return rel.Null, err
		}
		idx, err := e.eval(ctx, v.Index)
		if err != nil {
			return rel.Null, err
		}
		list := base.List()
		i := int(idx.Int())
		if i < 0 {
			i += len(list) // negative indexes count from the end
		}
		if i < 0 || i >= len(list) {
			return rel.Null, nil
		}
		return list[i], nil
	case *sql.CaseExpr:
		return e.evalCase(ctx, v)
	default:
		return rel.Null, fmt.Errorf("engine: unsupported expression %T", x)
	}
}

func (e *Engine) evalUnary(ctx *evalCtx, v *sql.Unary) (rel.Value, error) {
	inner, err := e.eval(ctx, v.X)
	if err != nil {
		return rel.Null, err
	}
	switch v.Op {
	case "NOT":
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
			return rel.Null, fmt.Errorf("engine: cannot negate %s", inner.Kind())
		}
	default:
		return rel.Null, fmt.Errorf("engine: unknown unary op %s", v.Op)
	}
}

func (e *Engine) evalBinary(ctx *evalCtx, v *sql.Binary) (rel.Value, error) {
	// AND/OR short-circuit with three-valued logic.
	switch v.Op {
	case "AND":
		l, err := e.eval(ctx, v.L)
		if err != nil {
			return rel.Null, err
		}
		if !l.IsNull() && !l.Truthy() {
			return rel.NewBool(false), nil
		}
		r, err := e.eval(ctx, v.R)
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
	case "OR":
		l, err := e.eval(ctx, v.L)
		if err != nil {
			return rel.Null, err
		}
		if !l.IsNull() && l.Truthy() {
			return rel.NewBool(true), nil
		}
		r, err := e.eval(ctx, v.R)
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
	l, err := e.eval(ctx, v.L)
	if err != nil {
		return rel.Null, err
	}
	r, err := e.eval(ctx, v.R)
	if err != nil {
		return rel.Null, err
	}
	switch v.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return rel.Null, nil
		}
		c := rel.Compare(l, r)
		var out bool
		switch v.Op {
		case "=":
			out = c == 0
		case "<>":
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
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return rel.Null, nil
		}
		return rel.NewBool(likeMatch(valueText(l), valueText(r))), nil
	case "||":
		return concatValues(l, r), nil
	case "+", "-", "*", "/", "%":
		return arith(v.Op, l, r)
	default:
		return rel.Null, fmt.Errorf("engine: unknown binary op %s", v.Op)
	}
}

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
		if intOp {
			if r.Int() == 0 {
				return rel.Null, fmt.Errorf("engine: division by zero")
			}
			return rel.NewInt(l.Int() / r.Int()), nil
		}
		if r.Float() == 0 {
			return rel.Null, fmt.Errorf("engine: division by zero")
		}
		return rel.NewFloat(l.Float() / r.Float()), nil
	case "%":
		if r.Int() == 0 {
			return rel.Null, fmt.Errorf("engine: division by zero")
		}
		return rel.NewInt(l.Int() % r.Int()), nil
	}
	return rel.Null, fmt.Errorf("engine: unknown arithmetic op %s", op)
}

// concatValues implements ||: list append when the left side is a LIST
// (the translator's path tracking builds paths with `v.path || v.val`),
// string concatenation otherwise.
func concatValues(l, r rel.Value) rel.Value {
	if l.Kind() == rel.KindList {
		out := make([]rel.Value, 0, len(l.List())+1)
		out = append(out, l.List()...)
		if r.Kind() == rel.KindList {
			out = append(out, r.List()...)
		} else {
			out = append(out, r)
		}
		return rel.NewList(out)
	}
	if l.IsNull() || r.IsNull() {
		return rel.Null
	}
	return rel.NewString(valueText(l) + valueText(r))
}

func (e *Engine) evalInList(ctx *evalCtx, v *sql.InList) (rel.Value, error) {
	x, err := e.eval(ctx, v.X)
	if err != nil {
		return rel.Null, err
	}
	if x.IsNull() {
		return rel.Null, nil
	}
	sawNull := false
	for _, item := range v.List {
		iv, err := e.eval(ctx, item)
		if err != nil {
			return rel.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if rel.Equal(x, iv) {
			return rel.NewBool(!v.Not), nil
		}
	}
	if sawNull {
		return rel.Null, nil
	}
	return rel.NewBool(v.Not), nil
}

func (e *Engine) evalInSubquery(ctx *evalCtx, v *sql.InSubquery) (rel.Value, error) {
	x, err := e.eval(ctx, v.X)
	if err != nil {
		return rel.Null, err
	}
	set, err := e.subqueryKeySet(ctx, v.Query)
	if err != nil {
		return rel.Null, err
	}
	if x.IsNull() {
		return rel.Null, nil
	}
	_, found := set[x.Key()]
	return rel.NewBool(found != v.Not), nil
}

func (e *Engine) evalBetween(ctx *evalCtx, v *sql.Between) (rel.Value, error) {
	x, err := e.eval(ctx, v.X)
	if err != nil {
		return rel.Null, err
	}
	lo, err := e.eval(ctx, v.Lo)
	if err != nil {
		return rel.Null, err
	}
	hi, err := e.eval(ctx, v.Hi)
	if err != nil {
		return rel.Null, err
	}
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return rel.Null, nil
	}
	in := rel.Compare(x, lo) >= 0 && rel.Compare(x, hi) <= 0
	return rel.NewBool(in != v.Not), nil
}

func (e *Engine) evalCase(ctx *evalCtx, v *sql.CaseExpr) (rel.Value, error) {
	var operand rel.Value
	hasOperand := v.Operand != nil
	if hasOperand {
		var err error
		operand, err = e.eval(ctx, v.Operand)
		if err != nil {
			return rel.Null, err
		}
	}
	for _, w := range v.Whens {
		c, err := e.eval(ctx, w.Cond)
		if err != nil {
			return rel.Null, err
		}
		matched := false
		if hasOperand {
			matched = !operand.IsNull() && !c.IsNull() && rel.Equal(operand, c)
		} else {
			matched = !c.IsNull() && c.Truthy()
		}
		if matched {
			return e.eval(ctx, w.Result)
		}
	}
	if v.Else != nil {
		return e.eval(ctx, v.Else)
	}
	return rel.Null, nil
}

func (e *Engine) evalFunc(ctx *evalCtx, v *sql.FuncCall) (rel.Value, error) {
	name := strings.ToUpper(v.Name)
	switch name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG", "LISTAGG":
		return rel.Null, fmt.Errorf("engine: aggregate %s used outside aggregation context", name)
	}
	args := make([]rel.Value, len(v.Args))
	for i, a := range v.Args {
		av, err := e.eval(ctx, a)
		if err != nil {
			return rel.Null, err
		}
		args[i] = av
	}
	switch name {
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return rel.Null, nil
	case "JSON_VAL":
		if len(args) != 2 {
			return rel.Null, fmt.Errorf("engine: JSON_VAL takes 2 arguments")
		}
		return jsonVal(args[0], args[1]), nil
	case "LENGTH", "LEN":
		if len(args) != 1 {
			return rel.Null, fmt.Errorf("engine: %s takes 1 argument", name)
		}
		if args[0].IsNull() {
			return rel.Null, nil
		}
		if args[0].Kind() == rel.KindList {
			return rel.NewInt(int64(len(args[0].List()))), nil
		}
		return rel.NewInt(int64(len(valueText(args[0])))), nil
	case "UPPER":
		if args[0].IsNull() {
			return rel.Null, nil
		}
		return rel.NewString(strings.ToUpper(valueText(args[0]))), nil
	case "LOWER":
		if args[0].IsNull() {
			return rel.Null, nil
		}
		return rel.NewString(strings.ToLower(valueText(args[0]))), nil
	case "ABS":
		if args[0].IsNull() {
			return rel.Null, nil
		}
		if args[0].Kind() == rel.KindInt {
			n := args[0].Int()
			if n < 0 {
				n = -n
			}
			return rel.NewInt(n), nil
		}
		return rel.NewFloat(math.Abs(args[0].Float())), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || args[0].IsNull() {
			return rel.Null, nil
		}
		s := valueText(args[0])
		start := int(args[1].Int()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return rel.NewString(""), nil
		}
		end := len(s)
		if len(args) >= 3 {
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		return rel.NewString(s[start:end]), nil
	case "LIST":
		// LIST(a, b, ...) constructs a LIST value (used to seed traversal
		// paths in the translation).
		return rel.NewList(args), nil
	case "CONTAINS", "STARTSWITH":
		// String predicates backing the Gremlin closure methods
		// it.x.contains(y) / it.x.startsWith(y). NULL unless both sides
		// are strings, matching the closure evaluator.
		if len(args) != 2 {
			return rel.Null, fmt.Errorf("engine: %s takes 2 arguments", name)
		}
		if args[0].Kind() != rel.KindString || args[1].Kind() != rel.KindString {
			return rel.Null, nil
		}
		if name == "CONTAINS" {
			return rel.NewBool(strings.Contains(args[0].Str(), args[1].Str())), nil
		}
		return rel.NewBool(strings.HasPrefix(args[0].Str(), args[1].Str())), nil
	case "CARDINALITY":
		if args[0].Kind() != rel.KindList {
			return rel.Null, nil
		}
		return rel.NewInt(int64(len(args[0].List()))), nil
	}
	if fn, ok := e.scalarFunc(name); ok {
		return fn(args)
	}
	return rel.Null, fmt.Errorf("engine: unknown function %s", name)
}

// jsonVal implements JSON_VAL(doc, 'path'): extract a value from a JSON
// column, returning SQL NULL when the path is absent.
func jsonVal(doc, path rel.Value) rel.Value {
	return jsonValPath(doc, sqljson.CompilePath(valueText(path)))
}

// jsonValPath is jsonVal for a path compiled ahead of the row loop.
func jsonValPath(doc rel.Value, path sqljson.Path) rel.Value {
	var d *sqljson.Doc
	switch doc.Kind() {
	case rel.KindJSON:
		d = doc.JSON()
	case rel.KindString:
		parsed, err := sqljson.Parse(doc.Str())
		if err != nil {
			return rel.Null
		}
		d = parsed
	default:
		return rel.Null
	}
	v, err := d.ValPath(path)
	if err != nil {
		return rel.Null
	}
	return rel.FromAny(v)
}

// valueText renders a value the way string functions see it.
func valueText(v rel.Value) string {
	if v.Kind() == rel.KindString {
		return v.Str()
	}
	return v.String()
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char).
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// castValue implements CAST.
func castValue(v rel.Value, typ string) (rel.Value, error) {
	if v.IsNull() {
		return rel.Null, nil
	}
	switch strings.ToUpper(typ) {
	case "BIGINT", "INTEGER", "INT":
		return rel.NewInt(v.Int()), nil
	case "DOUBLE", "FLOAT", "DECIMAL":
		return rel.NewFloat(v.Float()), nil
	case "VARCHAR", "TEXT", "STRING":
		return rel.NewString(valueText(v)), nil
	case "BOOLEAN":
		return rel.NewBool(v.Truthy()), nil
	default:
		return rel.Null, fmt.Errorf("engine: unsupported cast target %s", typ)
	}
}
