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
// evaluation runs as closure calls instead of AST walks. A core's
// expressions are compiled once (corePlan) and shared by its executions
// and their workers, which pass their arguments in the frame. It is total:
// every row yields a value, NULL where SQL has none to give (DESIGN.md
// §16), so no plan can make a statement fail by the rows it reads.
type compiledExpr func(f *frame, row []rel.Value) rel.Value

// predicate is a conjunction of compiled terms (prep.predicates).
type predicate func(f *frame, row []rel.Value) bool

// frame is one execution of a prepared core or statement: the query whose
// arguments its closures read, and its IN subqueries' sets (prep.subs).
type frame struct {
	e    *Engine
	q    *queryState
	sim  PageModel // the buffer-pool model attached when the execution bound, if any
	sets []*valueSet
}

// prep is what compiling a core's expressions leaves to each execution:
// the parameters they read, checked when it binds (prep.frame), and the
// IN subqueries, run when the stage holding one opens (frame.bind).
type prep struct {
	params []paramUse
	subs   []subSlot
}

type paramUse struct {
	index int
	list  bool // x IN (?): an id list may be bound to it
}

type subSlot struct {
	slot int // in frame.sets
	stmt *sql.SelectStmt
}

// since returns the subqueries compiled after mark.
func (p *prep) since(mark int) []subSlot { return p.subs[mark:len(p.subs):len(p.subs)] }

// frame binds an execution's arguments to what p compiled.
func (p *prep) frame(e *Engine, q *queryState) (*frame, error) {
	for _, u := range p.params {
		switch {
		case u.index >= len(q.params):
			return nil, fmt.Errorf("engine: missing parameter %d", u.index+1)
		case q.params[u.index].IDs == nil:
		case !u.list:
			return nil, fmt.Errorf("engine: parameter %d is an id list: it can only be read as x IN (?)", u.index+1)
		default:
			q.idSet(u.index)
		}
	}
	return &frame{e: e, q: q, sim: e.ioSim(), sets: make([]*valueSet, len(p.subs))}, nil
}

// bind runs the subqueries a stage holds, once per statement each
// (subquerySet), before the stage reads a row.
func (f *frame) bind(subs []subSlot) error {
	for _, s := range subs {
		if f.sets[s.slot] == nil {
			set, err := f.e.subquerySet(f.q, s.stmt)
			if err != nil {
				return err
			}
			f.sets[s.slot] = set
		}
	}
	return nil
}

// compile builds a compiledExpr: the engine's one evaluator.
func (p *prep) compile(sc *scope, x sql.Expr) (compiledExpr, error) {
	switch v := x.(type) {
	case *sql.Literal:
		val := rel.FromAny(v.Val)
		return func(*frame, []rel.Value) rel.Value { return val }, nil
	case *sql.Param:
		i := v.Index
		p.params = append(p.params, paramUse{index: i})
		return func(f *frame, _ []rel.Value) rel.Value { return f.q.params[i].Val }, nil
	case *sql.ColumnRef:
		i, err := sc.resolve(v.Table, v.Column)
		if err != nil {
			return nil, err
		}
		return func(_ *frame, row []rel.Value) rel.Value { return row[i] }, nil
	case *sql.IsNull:
		inner, err := p.compile(sc, v.X)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(f *frame, row []rel.Value) rel.Value { return rel.NewBool(inner(f, row).IsNull() != not) }, nil
	case *sql.Unary:
		inner, err := p.compile(sc, v.X)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "NOT":
			return func(f *frame, row []rel.Value) rel.Value {
				iv := inner(f, row)
				if iv.IsNull() {
					return rel.Null
				}
				return rel.NewBool(!iv.Truthy())
			}, nil
		case "-":
			return func(f *frame, row []rel.Value) rel.Value { return negate(inner(f, row)) }, nil
		}
		return nil, fmt.Errorf("engine: unknown unary op %s", v.Op)
	case *sql.Binary:
		return p.compileBinary(sc, v)
	case *sql.InList:
		return p.compileInList(sc, v)
	case *sql.Cast:
		inner, err := p.compile(sc, v.X)
		if err != nil {
			return nil, err
		}
		toInt := v.Type == "BIGINT" // the parser admits BIGINT and DOUBLE
		return func(f *frame, row []rel.Value) rel.Value {
			iv := inner(f, row)
			switch {
			case iv.IsNull():
				return rel.Null
			case toInt:
				return rel.NewInt(iv.Int())
			}
			return rel.NewFloat(iv.Float())
		}, nil
	case *sql.Subscript:
		base, err := p.compile(sc, v.X)
		if err != nil {
			return nil, err
		}
		idx, err := p.compile(sc, v.Index)
		if err != nil {
			return nil, err
		}
		return func(f *frame, row []rel.Value) rel.Value {
			list := base(f, row).List()
			i := int(idx(f, row).Int())
			if i < 0 {
				i += len(list)
			}
			if i < 0 || i >= len(list) {
				return rel.Null
			}
			return list[i]
		}, nil
	case *sql.FuncCall:
		return p.compileFunc(sc, v)
	case *sql.InSubquery:
		xe, err := p.compile(sc, v.X)
		if err != nil {
			return nil, err
		}
		p.subs = append(p.subs, subSlot{slot: len(p.subs), stmt: v.Query})
		return inProbe(xe, nil, len(p.subs)-1, v.Not), nil
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", x)
}

// compileInList compiles x IN (list): a list of literals is a set built
// here; x IN (?) probes the bound id list's set (prep.frame builds it) or
// compares with the value, as another list holding a parameter does.
func (p *prep) compileInList(sc *scope, v *sql.InList) (compiledExpr, error) {
	xe, err := p.compile(sc, v.X)
	if err != nil {
		return nil, err
	}
	if pv, ok := v.List[0].(*sql.Param); ok && len(v.List) == 1 { // the parser admits no empty list
		i, not := pv.Index, v.Not
		p.params = append(p.params, paramUse{index: i, list: true})
		return func(f *frame, row []rel.Value) rel.Value {
			xv, a := xe(f, row), f.q.params[i]
			if a.IDs != nil {
				return inResult(xv, f.q.idSets[i].has(xv), false, not)
			}
			return inResult(xv, !a.Val.IsNull() && rel.Compare(xv, a.Val) == 0, a.Val.IsNull(), not)
		}, nil
	}
	params := len(p.params)
	items := make([]compiledExpr, len(v.List))
	for i, it := range v.List {
		if !isConstExpr(it) || hasSubquery(it) {
			return nil, fmt.Errorf("engine: IN list item %s is not a constant", it.SQL())
		}
		if items[i], err = p.compile(noCols, it); err != nil {
			return nil, err
		}
	}
	if len(p.params) == params {
		vals := make([]rel.Value, len(items))
		for i, it := range items {
			vals[i] = it(nil, nil)
		}
		return inProbe(xe, newValueSet(vals), -1, v.Not), nil
	}
	not := v.Not
	return func(f *frame, row []rel.Value) rel.Value {
		xv, found, sawNull := xe(f, row), false, false
		for _, it := range items {
			iv := it(f, row)
			sawNull = sawNull || iv.IsNull()
			found = found || !iv.IsNull() && rel.Compare(xv, iv) == 0
		}
		return inResult(xv, found, sawNull, not)
	}, nil
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
	null bool            // the list held a NULL: a value not in it is NULL, not false
}

func newValueSet(vals []rel.Value) *valueSet {
	s := &valueSet{}
	if slices.ContainsFunc(vals, func(v rel.Value) bool { return v.Kind() != rel.KindInt && !v.IsNull() }) {
		s.keys = map[string]bool{}
	}
	for _, v := range vals {
		switch {
		case v.IsNull():
			s.null = true
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

// inProbe compiles x IN set — the set itself, or, when slot is not -1,
// the subquery's set in that slot of the frame.
func inProbe(xe compiledExpr, set *valueSet, slot int, not bool) compiledExpr {
	return func(f *frame, row []rel.Value) rel.Value {
		s, xv := set, xe(f, row)
		if slot >= 0 {
			s = f.sets[slot]
		}
		return inResult(xv, s.has(xv), s.null, not)
	}
}

// inResult is the value of x IN list: NULL for a NULL x, and for a value
// not in a list that held a NULL.
func inResult(xv rel.Value, found, sawNull, not bool) rel.Value {
	switch {
	case xv.IsNull():
		return rel.Null
	case found:
		return rel.NewBool(!not)
	case sawNull:
		return rel.Null
	}
	return rel.NewBool(not)
}

func (p *prep) compileBinary(sc *scope, v *sql.Binary) (compiledExpr, error) {
	l, err := p.compile(sc, v.L)
	if err != nil {
		return nil, err
	}
	r, err := p.compile(sc, v.R)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "AND":
		return func(f *frame, row []rel.Value) rel.Value {
			lv := l(f, row)
			if !lv.IsNull() && !lv.Truthy() {
				return rel.NewBool(false)
			}
			rv := r(f, row)
			if !rv.IsNull() && !rv.Truthy() {
				return rel.NewBool(false)
			}
			if lv.IsNull() || rv.IsNull() {
				return rel.Null
			}
			return rel.NewBool(true)
		}, nil
	case "OR":
		return func(f *frame, row []rel.Value) rel.Value {
			lv := l(f, row)
			if !lv.IsNull() && lv.Truthy() {
				return rel.NewBool(true)
			}
			rv := r(f, row)
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
		return func(f *frame, row []rel.Value) rel.Value {
			lv, rv := l(f, row), r(f, row)
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
		return func(f *frame, row []rel.Value) rel.Value {
			lv, rv := l(f, row), r(f, row)
			if lv.IsNull() || rv.IsNull() {
				return rel.Null
			}
			return rel.NewBool(likeMatch(valueText(lv), valueText(rv)))
		}, nil
	case "||":
		return func(f *frame, row []rel.Value) rel.Value { return concatValues(l(f, row), r(f, row)) }, nil
	case "+", "-", "*", "/", "%":
		op := v.Op
		return func(f *frame, row []rel.Value) rel.Value { return arith(op, l(f, row), r(f, row)) }, nil
	}
	return nil, fmt.Errorf("engine: unknown binary op %s", v.Op)
}

// compileFunc compiles a function call. Under a grouping scope an
// aggregate call is a read of the slot its result was put in; anywhere
// else it is an error. JSON_VAL with a constant path (every attribute
// filter in the translation, its document column read in place) and
// COALESCE (every multi-valued hop) skip the argument vector; every other
// function is looked up once, here (scalarFunc).
func (p *prep) compileFunc(sc *scope, v *sql.FuncCall) (compiledExpr, error) {
	if i := slices.Index(sc.aggs, v); i >= 0 {
		slot := sc.aggBase + i
		return func(f *frame, row []rel.Value) rel.Value { return row[slot] }, nil
	}
	name := strings.ToUpper(v.Name)
	if isAggregateName(name) {
		return nil, fmt.Errorf("engine: aggregate %s used outside aggregation context", name)
	}
	args, err := p.compileAll(sc, v.Args)
	if err != nil {
		return nil, err
	}
	if name == "JSON_VAL" && len(args) == 2 {
		if lit, ok := v.Args[1].(*sql.Literal); ok {
			if text, ok := lit.Val.(string); ok {
				doc, path := args[0], sqljson.CompilePath(text)
				if cr, ok := v.Args[0].(*sql.ColumnRef); ok {
					col, _ := sc.resolve(cr.Table, cr.Column) // resolved above
					return func(f *frame, row []rel.Value) rel.Value { return jsonValPath(row[col], path) }, nil
				}
				return func(f *frame, row []rel.Value) rel.Value { return jsonValPath(doc(f, row), path) }, nil
			}
		}
	}
	if name == "COALESCE" {
		return func(f *frame, row []rel.Value) rel.Value {
			for _, a := range args {
				if av := a(f, row); !av.IsNull() {
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
	return func(f *frame, row []rel.Value) rel.Value {
		vals := make([]rel.Value, len(args))
		for i, a := range args {
			vals[i] = a(f, row)
		}
		return fn(vals)
	}, nil
}

// predicates compiles a set of conjuncts into one boolean test. Callers
// pass exactly the conjuncts they intend to apply. The test stops at the
// first conjunct that is not true: every conjunct is total, so which of
// them it evaluates cannot change what it answers.
func (p *prep) predicates(sc *scope, conjs []*conjunct) (predicate, error) {
	compiled := make([]compiledExpr, len(conjs))
	for i := 0; i < len(conjs); i++ {
		var err error
		if compiled[i], err = p.compile(sc, conjs[i].expr); err != nil {
			return nil, err
		}
	}
	return func(f *frame, row []rel.Value) bool {
		for _, ce := range compiled {
			if v := ce(f, row); v.IsNull() || !v.Truthy() {
				return false
			}
		}
		return true
	}, nil
}

// compileAll compiles every expression of xs against sc.
func (p *prep) compileAll(sc *scope, xs []sql.Expr) (fns []compiledExpr, err error) {
	fns = make([]compiledExpr, len(xs))
	for i := 0; i < len(xs) && err == nil; i++ {
		fns[i], err = p.compile(sc, xs[i])
	}
	return fns, err
}
