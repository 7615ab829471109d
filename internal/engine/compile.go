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
// interpreted and a compiled query plan. It is total: every row yields a
// value, NULL where SQL has none to give (DESIGN.md §16), so no plan can
// make a statement fail by the rows it evaluates an expression on.
type compiledExpr func(row []rel.Value) rel.Value

// compile builds a compiledExpr. It is the engine's one evaluator: every
// sql.Expr compiles or the statement fails here, before any row is read.
// A closure may be called from several goroutines at once (an expression
// index's key function is); morsel workers nevertheless compile their own
// (stage.open). An IN subquery runs here, against q, so one holding it is
// compiled on the dispatching goroutine only (pipe.serial).
func (e *Engine) compile(q *queryState, sc *scope, x sql.Expr) (compiledExpr, error) {
	switch v := x.(type) {
	case *sql.Literal:
		val := rel.FromAny(v.Val)
		return func([]rel.Value) rel.Value { return val }, nil
	case *sql.Param:
		if v.Index >= len(q.params) {
			return nil, fmt.Errorf("engine: missing parameter %d", v.Index+1)
		}
		if q.params[v.Index].IDs != nil {
			return nil, fmt.Errorf("engine: parameter %d is an id list: it can only be read as x IN (?)", v.Index+1)
		}
		val := q.params[v.Index].Val
		return func([]rel.Value) rel.Value { return val }, nil
	case *sql.ColumnRef:
		i, err := sc.resolve(v.Table, v.Column)
		if err != nil {
			return nil, err
		}
		return func(row []rel.Value) rel.Value { return row[i] }, nil
	case *sql.IsNull:
		inner, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(row []rel.Value) rel.Value { return rel.NewBool(inner(row).IsNull() != not) }, nil
	case *sql.Unary:
		inner, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "NOT":
			return func(row []rel.Value) rel.Value {
				iv := inner(row)
				if iv.IsNull() {
					return rel.Null
				}
				return rel.NewBool(!iv.Truthy())
			}, nil
		case "-":
			return func(row []rel.Value) rel.Value { return negate(inner(row)) }, nil
		}
		return nil, fmt.Errorf("engine: unknown unary op %s", v.Op)
	case *sql.Binary:
		return e.compileBinary(q, sc, v)
	case *sql.InList:
		xe, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		if ids, ok := q.idList(v); ok {
			set, not := newIDSet(ids), v.Not
			return func(row []rel.Value) rel.Value {
				xv := xe(row)
				if xv.IsNull() {
					return rel.Null
				}
				return rel.NewBool(set.has(xv) != not)
			}, nil
		}
		// The list is constants: the translation's labels and bound
		// parameters. It is evaluated once into a hash set. An all-BIGINT
		// list — the id list of g.V(ids) — is held as ints, and BIGINT
		// operands looked up as such; canonical string keys are built only
		// if an operand of another kind ever shows up.
		var vals []rel.Value
		sawNull, allInt, not := false, true, v.Not
		for _, it := range v.List {
			if !isConstExpr(it) {
				return nil, fmt.Errorf("engine: IN list item %s is not a constant", it.SQL())
			}
			iv, err := e.constValue(q, it)
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
		return func(row []rel.Value) rel.Value {
			xv := xe(row)
			if xv.IsNull() {
				return rel.Null
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
				return rel.NewBool(!not)
			}
			if sawNull {
				return rel.Null
			}
			return rel.NewBool(not)
		}, nil
	case *sql.Cast:
		inner, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		toInt := v.Type == "BIGINT" // the parser admits BIGINT and DOUBLE
		return func(row []rel.Value) rel.Value {
			iv := inner(row)
			switch {
			case iv.IsNull():
				return rel.Null
			case toInt:
				return rel.NewInt(iv.Int())
			}
			return rel.NewFloat(iv.Float())
		}, nil
	case *sql.Subscript:
		base, err1 := e.compile(q, sc, v.X)
		idx, err2 := e.compile(q, sc, v.Index)
		if err1 != nil || err2 != nil {
			return nil, firstErr(err1, err2)
		}
		return func(row []rel.Value) rel.Value {
			list := base(row).List()
			i := int(idx(row).Int())
			if i < 0 {
				i += len(list)
			}
			if i < 0 || i >= len(list) {
				return rel.Null
			}
			return list[i]
		}, nil
	case *sql.FuncCall:
		return e.compileFunc(q, sc, v)
	case *sql.InSubquery:
		xe, err := e.compile(q, sc, v.X)
		if err != nil {
			return nil, err
		}
		set, err := e.subquerySet(q, v.Query)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(row []rel.Value) rel.Value {
			xv := xe(row)
			if xv.IsNull() {
				return rel.Null
			}
			return rel.NewBool(set[xv.Key()] != not)
		}, nil
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", x)
}

// negate implements unary minus: a number negated, NULL for anything
// else — a string, a boolean, a list or a document has no negative, and
// an error would make the rows an expression is evaluated on observable
// (DESIGN.md §16). gremlin/expr.Eval negates alike.
func negate(v rel.Value) rel.Value {
	switch v.Kind() {
	case rel.KindInt:
		return rel.NewInt(-v.Int())
	case rel.KindFloat:
		return rel.NewFloat(-v.Float())
	}
	return rel.Null
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
		return func(row []rel.Value) rel.Value {
			lv := l(row)
			if !lv.IsNull() && !lv.Truthy() {
				return rel.NewBool(false)
			}
			rv := r(row)
			if !rv.IsNull() && !rv.Truthy() {
				return rel.NewBool(false)
			}
			if lv.IsNull() || rv.IsNull() {
				return rel.Null
			}
			return rel.NewBool(true)
		}, nil
	case "OR":
		return func(row []rel.Value) rel.Value {
			lv := l(row)
			if !lv.IsNull() && lv.Truthy() {
				return rel.NewBool(true)
			}
			rv := r(row)
			if !rv.IsNull() && rv.Truthy() {
				return rel.NewBool(true)
			}
			if lv.IsNull() || rv.IsNull() {
				return rel.Null
			}
			return rel.NewBool(false)
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		op := v.Op
		return func(row []rel.Value) rel.Value {
			lv, rv := l(row), r(row)
			if lv.IsNull() || rv.IsNull() {
				return rel.Null
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
			return rel.NewBool(out)
		}, nil
	case "LIKE":
		return func(row []rel.Value) rel.Value {
			lv, rv := l(row), r(row)
			if lv.IsNull() || rv.IsNull() {
				return rel.Null
			}
			return rel.NewBool(likeMatch(valueText(lv), valueText(rv)))
		}, nil
	case "||":
		return func(row []rel.Value) rel.Value { return concatValues(l(row), r(row)) }, nil
	case "+", "-", "*", "/", "%":
		op := v.Op
		return func(row []rel.Value) rel.Value { return arith(op, l(row), r(row)) }, nil
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
		return func(row []rel.Value) rel.Value { return row[slot] }, nil
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
					return func(row []rel.Value) rel.Value { return jsonValPath(row[col], path) }, nil
				}
				return func(row []rel.Value) rel.Value { return jsonValPath(doc(row), path) }, nil
			}
		}
	}
	if name == "COALESCE" {
		return func(row []rel.Value) rel.Value {
			for _, a := range args {
				if av := a(row); !av.IsNull() {
					return av
				}
			}
			return rel.Null
		}, nil
	}
	fn, err := scalarFunc(name, len(args))
	if err != nil {
		return nil, err
	}
	return func(row []rel.Value) rel.Value {
		vals := make([]rel.Value, len(args))
		for i, a := range args {
			vals[i] = a(row)
		}
		return fn(vals)
	}, nil
}

// compilePredicates compiles a set of conjuncts into one boolean test.
// Callers pass exactly the conjuncts they intend to apply. The test stops
// at the first conjunct that is not true: every conjunct is total, so
// which of them it evaluates cannot change what it answers.
func (e *Engine) compilePredicates(q *queryState, sc *scope, conjs []*conjunct) (func(row []rel.Value) bool, error) {
	var compiled []compiledExpr
	for _, c := range conjs {
		ce, err := e.compile(q, sc, c.expr)
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, ce)
	}
	return func(row []rel.Value) bool {
		for _, ce := range compiled {
			if v := ce(row); v.IsNull() || !v.Truthy() {
				return false
			}
		}
		return true
	}, nil
}
