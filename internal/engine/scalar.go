package engine

import (
	"fmt"
	"math"
	"strings"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
)

// ScalarFunc is a user-defined scalar function (paper Section 4.3 defines
// UDFs such as isSimplePath for filter pipes SQL cannot express natively).
type ScalarFunc func(args []rel.Value) (rel.Value, error)

// arith implements + - * / %. NULL propagates; the result is an integer
// only when both sides are; % coerces both sides to integers. Division and
// modulo by a zero divisor are NULL (the SQLite/MySQL rule), not an error:
// no expression's outcome then depends on which rows it is evaluated for,
// so the planner may push a predicate below a join or a filter past
// another without changing what the statement returns (DESIGN.md §16).
// gremlin/expr.arith is the same function over closure values.
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

// builtin is a built-in scalar function and the number of arguments it
// takes (max < 0: any number from min up).
type builtin struct {
	min, max int
	fn       ScalarFunc
}

// builtins is the one table of scalar functions; user-defined functions
// (RegisterFunc) are looked up after it.
var builtins = map[string]builtin{
	// JSON_VAL(doc, 'path') extracts a value from a JSON column, NULL when
	// the path is absent.
	"JSON_VAL": {2, 2, func(a []rel.Value) (rel.Value, error) {
		return jsonValPath(a[0], sqljson.CompilePath(valueText(a[1]))), nil
	}},
	"LENGTH": {1, 1, length},
	"LEN":    {1, 1, length},
	"UPPER":  {1, 1, textFunc(strings.ToUpper)},
	"LOWER":  {1, 1, textFunc(strings.ToLower)},
	"ABS": {1, 1, func(a []rel.Value) (rel.Value, error) {
		switch a[0].Kind() {
		case rel.KindNull:
			return rel.Null, nil
		case rel.KindInt:
			return rel.NewInt(max(a[0].Int(), -a[0].Int())), nil
		}
		return rel.NewFloat(math.Abs(a[0].Float())), nil
	}},
	"SUBSTR":    {2, 3, substr},
	"SUBSTRING": {2, 3, substr},
	// LIST(a, b, ...) constructs a LIST value (used to seed traversal
	// paths in the translation).
	"LIST": {0, -1, func(a []rel.Value) (rel.Value, error) { return rel.NewList(a), nil }},
	// String predicates backing the Gremlin closure methods
	// it.x.contains(y) / it.x.startsWith(y). NULL unless both sides are
	// strings, matching the closure evaluator.
	"CONTAINS":   {2, 2, stringPred(strings.Contains)},
	"STARTSWITH": {2, 2, stringPred(strings.HasPrefix)},
	"CARDINALITY": {1, 1, func(a []rel.Value) (rel.Value, error) {
		if a[0].Kind() != rel.KindList {
			return rel.Null, nil
		}
		return rel.NewInt(int64(len(a[0].List()))), nil
	}},
}

// scalarFunc resolves a function name (upper-cased) called with n
// arguments: a built-in, then a registered user-defined function.
func (e *Engine) scalarFunc(name string, n int) (ScalarFunc, error) {
	if b, ok := builtins[name]; ok {
		if n < b.min || b.max >= 0 && n > b.max {
			return nil, fmt.Errorf("engine: %s does not take %d arguments", name, n)
		}
		return b.fn, nil
	}
	e.funcsMu.RLock()
	defer e.funcsMu.RUnlock()
	if fn, ok := e.funcs[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("engine: unknown function %s", name)
}

func length(a []rel.Value) (rel.Value, error) {
	switch a[0].Kind() {
	case rel.KindNull:
		return rel.Null, nil
	case rel.KindList:
		return rel.NewInt(int64(len(a[0].List()))), nil
	}
	return rel.NewInt(int64(len(valueText(a[0])))), nil
}

func textFunc(f func(string) string) ScalarFunc {
	return func(a []rel.Value) (rel.Value, error) {
		if a[0].IsNull() {
			return rel.Null, nil
		}
		return rel.NewString(f(valueText(a[0]))), nil
	}
}

func stringPred(f func(s, arg string) bool) ScalarFunc {
	return func(a []rel.Value) (rel.Value, error) {
		if a[0].Kind() != rel.KindString || a[1].Kind() != rel.KindString {
			return rel.Null, nil
		}
		return rel.NewBool(f(a[0].Str(), a[1].Str())), nil
	}
}

// substr implements SUBSTR(s, start[, n]); start is 1-based.
func substr(a []rel.Value) (rel.Value, error) {
	if a[0].IsNull() {
		return rel.Null, nil
	}
	s := valueText(a[0])
	start := min(max(int(a[1].Int())-1, 0), len(s))
	end := len(s)
	if len(a) == 3 {
		if n := int(a[2].Int()); start+n < end {
			end = max(start+n, start)
		}
	}
	return rel.NewString(s[start:end]), nil
}

// jsonValPath extracts the value at a compiled path from a JSON column,
// NULL when the path is absent.
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
