package engine

import (
	"strings"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/sqljson"
)

// compiledExpr is an expression specialized against a fixed scope: column
// references are resolved to positions once, constants folded, and the
// evaluation runs as closure calls instead of AST walks. The executor
// compiles filter predicates, join keys, and projections once per
// operator and then runs them per row — the difference between an
// interpreted and a compiled query plan.
type compiledExpr func(row []rel.Value) (rel.Value, error)

// compile builds a compiledExpr. Expressions containing subqueries fall
// back to the tree-walking evaluator (they carry their own state).
func (e *Engine) compile(q *queryState, sc *scope, x sql.Expr) (compiledExpr, error) {
	switch v := x.(type) {
	case *sql.Literal:
		val := rel.FromAny(v.Val)
		return func([]rel.Value) (rel.Value, error) { return val, nil }, nil
	case *sql.Param:
		if v.Index >= len(q.params) {
			break // let the interpreter produce the error
		}
		val := q.params[v.Index]
		return func([]rel.Value) (rel.Value, error) { return val, nil }, nil
	case *sql.ColumnRef:
		i, err := sc.resolve(v.Table, v.Column)
		if err != nil {
			return nil, err
		}
		return func(row []rel.Value) (rel.Value, error) { return row[i], nil }, nil
	case *sql.IsNull:
		inner, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(row []rel.Value) (rel.Value, error) {
			iv, err := inner(row)
			if err != nil {
				return rel.Null, err
			}
			return rel.NewBool(iv.IsNull() != not), nil
		}, nil
	case *sql.Unary:
		inner, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "NOT":
			return func(row []rel.Value) (rel.Value, error) {
				iv, err := inner(row)
				if err != nil || iv.IsNull() {
					return rel.Null, err
				}
				return rel.NewBool(!iv.Truthy()), nil
			}, nil
		case "-":
			return func(row []rel.Value) (rel.Value, error) {
				iv, err := inner(row)
				if err != nil || iv.IsNull() {
					return rel.Null, err
				}
				if iv.Kind() == rel.KindFloat {
					return rel.NewFloat(-iv.Float()), nil
				}
				return rel.NewInt(-iv.Int()), nil
			}, nil
		}
	case *sql.Binary:
		return e.compileBinary(q, sc, v)
	case *sql.Between:
		xe, err1 := e.compile(q, sc, v.X)
		lo, err2 := e.compile(q, sc, v.Lo)
		hi, err3 := e.compile(q, sc, v.Hi)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, firstErr(err1, err2, err3)
		}
		not := v.Not
		return func(row []rel.Value) (rel.Value, error) {
			xv, err := xe(row)
			if err != nil {
				return rel.Null, err
			}
			lv, err := lo(row)
			if err != nil {
				return rel.Null, err
			}
			hv, err := hi(row)
			if err != nil {
				return rel.Null, err
			}
			if xv.IsNull() || lv.IsNull() || hv.IsNull() {
				return rel.Null, nil
			}
			in := rel.Compare(xv, lv) >= 0 && rel.Compare(xv, hv) <= 0
			return rel.NewBool(in != not), nil
		}, nil
	case *sql.InList:
		xe, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(v.List))
		allConst := true
		for i, it := range v.List {
			ce, err := e.compile(q, sc, it)
			if err != nil {
				return nil, err
			}
			items[i] = ce
			if !isConstExpr(it) {
				allConst = false
			}
		}
		not := v.Not
		if allConst {
			// Constant IN-list: evaluate once into a hash set. An all-BIGINT
			// list — the id list of g.V(ids) — is held as ints, and BIGINT
			// operands looked up as such; canonical string keys are built
			// only if an operand of another kind ever shows up.
			var vals []rel.Value
			sawNull, allInt := false, true
			for _, ce := range items {
				iv, err := ce(nil)
				if err != nil {
					return nil, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				allInt = allInt && iv.Kind() == rel.KindInt
				vals = append(vals, iv)
			}
			var ints map[int64]struct{}
			if allInt {
				ints = make(map[int64]struct{}, len(vals))
				for _, iv := range vals {
					ints[iv.Int()] = struct{}{}
				}
			}
			var keys map[string]bool
			return func(row []rel.Value) (rel.Value, error) {
				xv, err := xe(row)
				if err != nil || xv.IsNull() {
					return rel.Null, err
				}
				var hit bool
				if ints != nil && xv.Kind() == rel.KindInt {
					_, hit = ints[xv.Int()]
				} else {
					if keys == nil {
						keys = make(map[string]bool, len(vals))
						for _, iv := range vals {
							keys[iv.Key()] = true
						}
					}
					hit = keys[xv.Key()]
				}
				if hit {
					return rel.NewBool(!not), nil
				}
				if sawNull {
					return rel.Null, nil
				}
				return rel.NewBool(not), nil
			}, nil
		}
		return func(row []rel.Value) (rel.Value, error) {
			xv, err := xe(row)
			if err != nil || xv.IsNull() {
				return rel.Null, err
			}
			sawNull := false
			for _, ce := range items {
				iv, err := ce(row)
				if err != nil {
					return rel.Null, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if rel.Equal(xv, iv) {
					return rel.NewBool(!not), nil
				}
			}
			if sawNull {
				return rel.Null, nil
			}
			return rel.NewBool(not), nil
		}, nil
	case *sql.Cast:
		inner, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		typ := v.Type
		return func(row []rel.Value) (rel.Value, error) {
			iv, err := inner(row)
			if err != nil {
				return rel.Null, err
			}
			return castValue(iv, typ)
		}, nil
	case *sql.Subscript:
		base, err1 := e.compile(q, sc, v.X)
		idx, err2 := e.compile(q, sc, v.Index)
		if err1 != nil || err2 != nil {
			return nil, firstErr(err1, err2)
		}
		return func(row []rel.Value) (rel.Value, error) {
			bv, err := base(row)
			if err != nil {
				return rel.Null, err
			}
			ix, err := idx(row)
			if err != nil {
				return rel.Null, err
			}
			list := bv.List()
			i := int(ix.Int())
			if i < 0 {
				i += len(list)
			}
			if i < 0 || i >= len(list) {
				return rel.Null, nil
			}
			return list[i], nil
		}, nil
	case *sql.FuncCall:
		return e.compileFunc(q, sc, v)
	case *sql.CaseExpr:
		return e.compileCase(q, sc, v)
	}
	// Fallback: subqueries and anything unhandled go through the
	// tree-walking evaluator.
	ctx := &evalCtx{eng: e, scope: sc, params: q.params, q: q}
	expr := x
	return func(row []rel.Value) (rel.Value, error) {
		ctx.row = row
		return e.eval(ctx, expr)
	}, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) compileBinary(q *queryState, sc *scope, v *sql.Binary) (compiledExpr, error) {
	l, err := e.compile(q, sc, v.L)
	if err != nil {
		return nil, err
	}
	r, err := e.compile(q, sc, v.R)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "AND":
		return func(row []rel.Value) (rel.Value, error) {
			lv, err := l(row)
			if err != nil {
				return rel.Null, err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return rel.NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return rel.Null, err
			}
			if !rv.IsNull() && !rv.Truthy() {
				return rel.NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return rel.Null, nil
			}
			return rel.NewBool(true), nil
		}, nil
	case "OR":
		return func(row []rel.Value) (rel.Value, error) {
			lv, err := l(row)
			if err != nil {
				return rel.Null, err
			}
			if !lv.IsNull() && lv.Truthy() {
				return rel.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return rel.Null, err
			}
			if !rv.IsNull() && rv.Truthy() {
				return rel.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return rel.Null, nil
			}
			return rel.NewBool(false), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := v.Op
		return func(row []rel.Value) (rel.Value, error) {
			lv, err := l(row)
			if err != nil {
				return rel.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return rel.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return rel.Null, nil
			}
			c := rel.Compare(lv, rv)
			var out bool
			switch op {
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
			default:
				out = c >= 0
			}
			return rel.NewBool(out), nil
		}, nil
	case "LIKE":
		return func(row []rel.Value) (rel.Value, error) {
			lv, err := l(row)
			if err != nil {
				return rel.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return rel.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return rel.Null, nil
			}
			return rel.NewBool(likeMatch(valueText(lv), valueText(rv))), nil
		}, nil
	case "||":
		return func(row []rel.Value) (rel.Value, error) {
			lv, err := l(row)
			if err != nil {
				return rel.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return rel.Null, err
			}
			return concatValues(lv, rv), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := v.Op
		return func(row []rel.Value) (rel.Value, error) {
			lv, err := l(row)
			if err != nil {
				return rel.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return rel.Null, err
			}
			return arith(op, lv, rv)
		}, nil
	}
	// Unknown operator: interpreter will produce the error.
	ctx := &evalCtx{eng: e, scope: sc, params: q.params, q: q}
	expr := v
	return func(row []rel.Value) (rel.Value, error) {
		ctx.row = row
		return e.eval(ctx, expr)
	}, nil
}

func (e *Engine) compileFunc(q *queryState, sc *scope, v *sql.FuncCall) (compiledExpr, error) {
	name := strings.ToUpper(v.Name)
	// JSON_VAL with a constant path is the hot case (every attribute
	// filter in the translation).
	if name == "JSON_VAL" && len(v.Args) == 2 {
		if lit, ok := v.Args[1].(*sql.Literal); ok {
			if text, ok := lit.Val.(string); ok {
				doc, err := e.compile(q, sc, v.Args[0])
				if err != nil {
					return nil, err
				}
				path := sqljson.CompilePath(text)
				return func(row []rel.Value) (rel.Value, error) {
					dv, err := doc(row)
					if err != nil {
						return rel.Null, err
					}
					return jsonValPath(dv, path), nil
				}, nil
			}
		}
	}
	if name == "COALESCE" {
		args := make([]compiledExpr, len(v.Args))
		for i, a := range v.Args {
			ce, err := e.compile(q, sc, a)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return func(row []rel.Value) (rel.Value, error) {
			for _, a := range args {
				av, err := a(row)
				if err != nil {
					return rel.Null, err
				}
				if !av.IsNull() {
					return av, nil
				}
			}
			return rel.Null, nil
		}, nil
	}
	// Everything else goes through the generic evaluator (still with
	// pre-resolved scope, via the fallback in compile).
	ctx := &evalCtx{eng: e, scope: sc, params: q.params, q: q}
	expr := v
	return func(row []rel.Value) (rel.Value, error) {
		ctx.row = row
		return e.eval(ctx, expr)
	}, nil
}

func (e *Engine) compileCase(q *queryState, sc *scope, v *sql.CaseExpr) (compiledExpr, error) {
	ctx := &evalCtx{eng: e, scope: sc, params: q.params, q: q}
	expr := v
	return func(row []rel.Value) (rel.Value, error) {
		ctx.row = row
		return e.eval(ctx, expr)
	}, nil
}

// compilePredicates compiles a set of conjuncts into one boolean test.
// Callers pass exactly the conjuncts they intend to apply.
func (e *Engine) compilePredicates(q *queryState, sc *scope, conjs []*conjunct) (func(row []rel.Value) (bool, error), error) {
	var compiled []compiledExpr
	for _, c := range conjs {
		ce, err := e.compile(q, sc, c.expr)
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, ce)
	}
	return func(row []rel.Value) (bool, error) {
		for _, ce := range compiled {
			v, err := ce(row)
			if err != nil {
				return false, err
			}
			if v.IsNull() || !v.Truthy() {
				return false, nil
			}
		}
		return true, nil
	}, nil
}
