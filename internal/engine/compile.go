package engine

import (
	"fmt"
	"math"
	"slices"
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
		if _, ok := q.idList(v); ok {
			return inProbe(xe, q.idSets[v.List[0].(*sql.Param).Index], false, v.Not), nil
		}
		// The list is constants: the translation's labels and bound
		// parameters, evaluated once into a set.
		var vals []rel.Value
		sawNull := false
		for _, it := range v.List {
			if !isConstExpr(it) {
				return nil, fmt.Errorf("engine: IN list item %s is not a constant", it.SQL())
			}
			iv, err := e.constValue(q, it)
			if err != nil {
				return nil, err
			}
			sawNull = sawNull || iv.IsNull()
			vals = append(vals, iv)
		}
		return inProbe(xe, newValueSet(vals), sawNull, v.Not), nil
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
		return inProbe(xe, set, false, v.Not), nil
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

// valueSet is what an IN predicate probes: its list's or subquery's
// non-NULL values, in an idSet when every one is a BIGINT — an id list,
// a subquery of element ids — else by canonical key. A probe allocates
// nothing.
type valueSet struct {
	ids  idSet
	keys map[string]bool // non-nil: a value is not a BIGINT, and ids is unused
}

func newValueSet(vals []rel.Value) *valueSet {
	s := &valueSet{}
	if slices.ContainsFunc(vals, func(v rel.Value) bool { return v.Kind() != rel.KindInt && !v.IsNull() }) {
		s.keys = map[string]bool{}
	}
	for _, v := range vals {
		switch {
		case v.IsNull():
		case s.keys != nil:
			s.keys[v.Key()] = true
		default:
			s.ids.add(v.Int())
		}
	}
	return s
}

// has reports whether v equals one of the set's values, as rel.Compare
// has it: a DOUBLE with an integral value equals that BIGINT.
func (s *valueSet) has(v rel.Value) bool {
	if s.keys != nil {
		var b [64]byte
		return s.keys[string(v.AppendKey(b[:0]))]
	}
	id, ok := valueID(v)
	return ok && s.ids.has(id)
}

// valueID returns the id v is equal to: a BIGINT's value, or a DOUBLE's
// when it is integral and exact (the values rel.Value.Key gives an
// integer's key).
func valueID(v rel.Value) (int64, bool) {
	switch v.Kind() {
	case rel.KindInt:
		return v.Int(), true
	case rel.KindFloat:
		if f := v.Float(); f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return int64(f), true
		}
	}
	return 0, false
}

// inProbe compiles x IN set: NULL for a NULL x, and for a value not in a
// set that held a NULL.
func inProbe(xe compiledExpr, set *valueSet, sawNull, not bool) compiledExpr {
	return func(row []rel.Value) rel.Value {
		switch xv := xe(row); {
		case xv.IsNull():
			return rel.Null
		case set.has(xv):
			return rel.NewBool(!not)
		case sawNull:
			return rel.Null
		}
		return rel.NewBool(not)
	}
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
