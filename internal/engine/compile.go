package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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

// compile builds a compiledExpr. It is the engine's one evaluator: every
// sql.Expr compiles or the statement fails here, before any row is read.
// A closure may be called from several goroutines at once (an expression
// index's key function is); morsel workers nevertheless compile their own
// (stage.open). One holding a subquery runs it against q and stays on the
// dispatching goroutine (pipe.serial).
func (e *Engine) compile(q *queryState, sc *scope, x sql.Expr) (compiledExpr, error) {
	switch v := x.(type) {
	case *sql.Literal:
		val := rel.FromAny(v.Val)
		return func([]rel.Value) (rel.Value, error) { return val, nil }, nil
	case *sql.Param:
		if v.Index >= len(q.params) {
			return nil, fmt.Errorf("engine: missing parameter %d", v.Index+1)
		}
		if q.params[v.Index].IDs != nil {
			return nil, fmt.Errorf("engine: parameter %d is an id list: it can only be read as x IN (?)", v.Index+1)
		}
		val := q.params[v.Index].Val
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
				if err != nil {
					return rel.Null, err
				}
				switch iv.Kind() {
				case rel.KindNull:
					return rel.Null, nil
				case rel.KindInt:
					return rel.NewInt(-iv.Int()), nil
				case rel.KindFloat:
					return rel.NewFloat(-iv.Float()), nil
				}
				return rel.Null, fmt.Errorf("engine: cannot negate %s", iv.Kind())
			}, nil
		}
		return nil, fmt.Errorf("engine: unknown unary op %s", v.Op)
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
		if ids, ok := q.idList(v); ok {
			set, not := newIDSet(ids), v.Not
			return func(row []rel.Value) (rel.Value, error) {
				xv, err := xe(row)
				if err != nil || xv.IsNull() {
					return rel.Null, err
				}
				return rel.NewBool(set.has(xv) != not), nil
			}, nil
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
			var keysOnce sync.Once
			return func(row []rel.Value) (rel.Value, error) {
				xv, err := xe(row)
				if err != nil || xv.IsNull() {
					return rel.Null, err
				}
				var hit bool
				if ints != nil && xv.Kind() == rel.KindInt {
					_, hit = ints[xv.Int()]
				} else {
					keysOnce.Do(func() {
						keys = make(map[string]bool, len(vals))
						for _, iv := range vals {
							keys[iv.Key()] = true
						}
					})
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
	case *sql.InSubquery:
		xe, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		query, not := v.Query, v.Not
		return func(row []rel.Value) (rel.Value, error) {
			xv, err := xe(row)
			if err != nil {
				return rel.Null, err
			}
			res, err := e.subquery(q, query)
			if err != nil {
				return rel.Null, err
			}
			set, err := res.keySet()
			if err != nil || xv.IsNull() {
				return rel.Null, err
			}
			return rel.NewBool(set[xv.Key()] != not), nil
		}, nil
	case *sql.Exists:
		query, not := v.Query, v.Not
		return func([]rel.Value) (rel.Value, error) {
			res, err := e.subquery(q, query)
			if err != nil {
				return rel.Null, err
			}
			return rel.NewBool((res.count() > 0) != not), nil
		}, nil
	case *sql.ScalarSubquery:
		query := v.Query
		return func([]rel.Value) (rel.Value, error) {
			res, err := e.subquery(q, query)
			if err != nil {
				return rel.Null, err
			}
			switch rows := res.rowsOf(); {
			case len(rows) == 0:
				return rel.Null, nil
			case len(rows) > 1 || len(rows[0]) != 1:
				return rel.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(rows))
			default:
				return rows[0][0], nil
			}
		}, nil
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", x)
}

// idList returns the ids x IN (?) tests against when its parameter is
// bound to an id list.
func (q *queryState) idList(v *sql.InList) ([]int64, bool) {
	if len(v.List) != 1 {
		return nil, false
	}
	p, ok := v.List[0].(*sql.Param)
	if !ok || p.Index >= len(q.params) || q.params[p.Index].IDs == nil {
		return nil, false
	}
	return q.params[p.Index].IDs, true
}

// idSet tests membership in an id list: by comparing with each of a few
// ids, through an intSet with many.
type idSet struct {
	ids []int64
	set *intSet
}

func newIDSet(ids []int64) *idSet {
	s := &idSet{ids: ids}
	if len(ids) > 8 {
		s.set = &intSet{}
		s.set.reserve(len(ids))
		for _, id := range ids {
			s.set.add(id)
		}
	}
	return s
}

// has reports whether v equals one of the ids, as rel.Compare has it: a
// DOUBLE with an integral value equals that BIGINT.
func (s *idSet) has(v rel.Value) bool {
	var x int64
	switch v.Kind() {
	case rel.KindInt:
		x = v.Int()
	case rel.KindFloat:
		f := v.Float()
		if f != math.Trunc(f) || math.Abs(f) >= 1<<53 {
			return false
		}
		x = int64(f)
	default:
		return false
	}
	if s.set != nil {
		return s.set.has(x)
	}
	return slices.Contains(s.ids, x)
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
	return nil, fmt.Errorf("engine: unknown binary op %s", v.Op)
}

// compileFunc compiles a function call. Under a grouping scope an
// aggregate call is a read of the slot its result was put in; anywhere
// else it is an error. JSON_VAL with a constant path (every attribute
// filter in the translation, its document column read in place) and
// COALESCE (every multi-valued hop) skip the argument vector; every other
// function is looked up once, here (scalarFunc).
func (e *Engine) compileFunc(q *queryState, sc *scope, v *sql.FuncCall) (compiledExpr, error) {
	if i := slices.Index(sc.aggs, v); i >= 0 {
		slot := sc.aggBase + i
		return func(row []rel.Value) (rel.Value, error) { return row[slot], nil }, nil
	}
	name := strings.ToUpper(v.Name)
	if isAggregateName(name) {
		return nil, fmt.Errorf("engine: aggregate %s used outside aggregation context", name)
	}
	args := make([]compiledExpr, len(v.Args))
	for i, a := range v.Args {
		ce, err := e.compile(q, sc, a)
		if err != nil {
			return nil, err
		}
		args[i] = ce
	}
	if name == "JSON_VAL" && len(args) == 2 {
		if lit, ok := v.Args[1].(*sql.Literal); ok {
			if text, ok := lit.Val.(string); ok {
				doc, path := args[0], sqljson.CompilePath(text)
				if cr, ok := v.Args[0].(*sql.ColumnRef); ok {
					col, _ := sc.resolve(cr.Table, cr.Column) // resolved above
					return func(row []rel.Value) (rel.Value, error) { return jsonValPath(row[col], path), nil }, nil
				}
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
	fn, err := e.scalarFunc(name, len(args))
	if err != nil {
		return nil, err
	}
	return func(row []rel.Value) (rel.Value, error) {
		vals := make([]rel.Value, len(args))
		for i, a := range args {
			var err error
			if vals[i], err = a(row); err != nil {
				return rel.Null, err
			}
		}
		return fn(vals)
	}, nil
}

// compileCase compiles CASE: with an operand the first arm equal to it
// wins, without one the first arm that is true.
func (e *Engine) compileCase(q *queryState, sc *scope, v *sql.CaseExpr) (compiledExpr, error) {
	// The operand and ELSE may be absent: nil stands for that.
	optional := func(x sql.Expr) (compiledExpr, error) {
		if x == nil {
			return nil, nil
		}
		return e.compile(q, sc, x)
	}
	operand, err := optional(v.Operand)
	if err != nil {
		return nil, err
	}
	els, err := optional(v.Else)
	if err != nil {
		return nil, err
	}
	conds, results := make([]compiledExpr, len(v.Whens)), make([]compiledExpr, len(v.Whens))
	for i, w := range v.Whens {
		if conds[i], err = e.compile(q, sc, w.Cond); err != nil {
			return nil, err
		}
		if results[i], err = e.compile(q, sc, w.Result); err != nil {
			return nil, err
		}
	}
	return func(row []rel.Value) (rel.Value, error) {
		var ov rel.Value
		if operand != nil {
			var err error
			if ov, err = operand(row); err != nil {
				return rel.Null, err
			}
		}
		for i, cond := range conds {
			c, err := cond(row)
			if err != nil {
				return rel.Null, err
			}
			matched := !c.IsNull() && c.Truthy()
			if operand != nil {
				matched = !ov.IsNull() && !c.IsNull() && rel.Equal(ov, c)
			}
			if matched {
				return results[i](row)
			}
		}
		if els != nil {
			return els(row)
		}
		return rel.Null, nil
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
