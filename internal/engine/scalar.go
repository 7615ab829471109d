package engine

import (
	"fmt"
	"strings"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
)

// ScalarFunc is a scalar function (paper Section 4.3 defines UDFs such as
// isSimplePath for filter pipes SQL cannot express natively). Like every
// compiled expression it is total (compiledExpr).
type ScalarFunc func(args []rel.Value) rel.Value

// arith implements + - * / % (compileBinary passes it no other op). NULL
// propagates; the result is an integer only when both sides are; %
// coerces both sides to integers. Division and modulo by a zero divisor
// are NULL (the SQLite/MySQL rule), not an error: no expression's outcome
// then depends on which rows it is evaluated for, so the planner may push
// a predicate below a join or a filter past another without changing
// what the statement returns (DESIGN.md §16). gremlin/expr.arith is the
// same function over closure values.
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

// builtins is the one table of scalar functions: those the translation's
// templates call.
var builtins = map[string]builtin{
	// JSON_VAL(doc, 'key') extracts the value at one top-level key of a
	// JSON column, the key taken literally, NULL when it is absent.
	"JSON_VAL": {2, 2, func(a []rel.Value) rel.Value {
		return jsonValPath(a[0], sqljson.CompilePath(valueText(a[1])))
	}},
	// LIST(a, b, ...) constructs a LIST value (used to seed traversal
	// paths in the translation).
	"LIST": {0, -1, func(a []rel.Value) rel.Value { return rel.NewList(a) }},
	// String predicates backing the Gremlin closure methods
	// it.x.contains(y) / it.x.startsWith(y). NULL unless both sides are
	// strings, matching the closure evaluator.
	"CONTAINS":   {2, 2, stringPred(strings.Contains)},
	"STARTSWITH": {2, 2, stringPred(strings.HasPrefix)},
	// ISSIMPLEPATH(path) is 1 when no element of the path list repeats, 0
	// otherwise: the paper's UDF for simplePath (§4.3).
	"ISSIMPLEPATH": {1, 1, func(a []rel.Value) rel.Value {
		list := a[0].List()
		seen := make(map[string]bool, len(list))
		for _, v := range list {
			k := v.Key()
			if seen[k] {
				return rel.NewInt(0)
			}
			seen[k] = true
		}
		return rel.NewInt(1)
	}},
	// LIST_TRIM(path, n) drops the last n elements of a path list (back).
	"LIST_TRIM": {2, 2, func(a []rel.Value) rel.Value {
		list, n := a[0].List(), int(a[1].Int())
		if n <= 0 {
			return a[0]
		}
		if n >= len(list) {
			return rel.NewList(nil)
		}
		return rel.NewList(list[:len(list)-n])
	}},
}

// scalarFunc resolves a function name (upper-cased) called with n
// arguments.
func scalarFunc(name string, n int) (ScalarFunc, error) {
	b, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown function %s", name)
	}
	if n < b.min || b.max >= 0 && n > b.max {
		return nil, fmt.Errorf("engine: %s does not take %d arguments", name, n)
	}
	return b.fn, nil
}

func stringPred(f func(s, arg string) bool) ScalarFunc {
	return func(a []rel.Value) rel.Value {
		if a[0].Kind() != rel.KindString || a[1].Kind() != rel.KindString {
			return rel.Null
		}
		return rel.NewBool(f(a[0].Str(), a[1].Str()))
	}
}

// jsonValPath extracts the value at a compiled key from a JSON column,
// NULL when the key is absent. A scalar is read straight from the
// document's record, and a string result shares the record's bytes, so
// neither allocates; a nested object is a JSON value sharing its record.
func jsonValPath(doc rel.Value, path sqljson.Path) rel.Value {
	var d sqljson.Doc
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
	it, ok := d.Lookup(path)
	if !ok {
		return rel.Null
	}
	return itemValue(it)
}

// itemValue is a document item as a value; an array is a list.
func itemValue(it sqljson.Item) rel.Value {
	switch it.Kind() {
	case sqljson.KindBool:
		return rel.NewBool(it.Bool())
	case sqljson.KindInt:
		return rel.NewInt(it.Int())
	case sqljson.KindFloat:
		return rel.NewFloat(it.Float())
	case sqljson.KindString:
		return rel.NewString(it.Str())
	case sqljson.KindObject:
		obj := it.Doc()
		return rel.NewJSON(&obj)
	case sqljson.KindArray:
		list := make([]rel.Value, it.Len())
		for i := range list {
			list[i] = itemValue(it.Index(i))
		}
		return rel.NewList(list)
	}
	return rel.Null
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
