package translate

import (
	"fmt"

	"sqlgraph/internal/gremlin/expr"
)

// renderExpr compiles a closure expression into a SQL scalar expression
// over the current element, which r names (see row): `it.<prop>` resolves
// in r's attribute document. The SQL engine's expression semantics (3VL
// AND/OR, null propagation, mixed int/float arithmetic, NULL for a zero
// divisor) are the reference semantics the closure evaluator copies, so
// rendering is a direct syntax mapping.
func (t *translator) renderExpr(n expr.Node, r row) (string, error) {
	switch x := n.(type) {
	case *expr.Lit:
		return sqlExprLit(x.Val), nil
	case *expr.It:
		return t.renderIt(x, r)
	case *expr.Unary:
		sub, err := t.renderExpr(x.X, r)
		if err != nil {
			return "", err
		}
		if x.Op == "!" {
			return fmt.Sprintf("(NOT %s)", sub), nil
		}
		return fmt.Sprintf("(- %s)", sub), nil
	case *expr.Binary:
		l, err := t.renderExpr(x.L, r)
		if err != nil {
			return "", err
		}
		r, err := t.renderExpr(x.R, r)
		if err != nil {
			return "", err
		}
		op := x.Op
		switch x.Op {
		case "&&":
			op = "AND"
		case "||":
			op = "OR"
		case "==":
			op = "="
		case "!=":
			op = "<>"
		}
		return fmt.Sprintf("(%s %s %s)", l, op, r), nil
	case *expr.Call:
		recv, err := t.renderExpr(x.Recv, r)
		if err != nil {
			return "", err
		}
		arg, err := t.renderExpr(x.Arg, r)
		if err != nil {
			return "", err
		}
		fn := "CONTAINS"
		if x.Name == "startsWith" {
			fn = "STARTSWITH"
		}
		return fmt.Sprintf("%s(%s, %s)", fn, recv, arg), nil
	default:
		return "", fmt.Errorf("translate: unsupported closure node %T", n)
	}
}

func (t *translator) renderIt(x *expr.It, r row) (string, error) {
	switch x.Field {
	case "":
		return r.id, nil
	case "loops":
		// Loop closures are resolved to a static bound at parse time;
		// it.loops anywhere else has no SQL counterpart.
		return "", fmt.Errorf("translate: it.loops outside a loop closure")
	case "id":
		if t.typ == ElemValue {
			return "NULL", nil
		}
		return r.id, nil
	default:
		switch t.typ {
		case ElemVertex:
			return fmt.Sprintf("JSON_VAL(%s, %s)", r.attr, strLit(x.Field)), nil
		case ElemEdge:
			if x.Field == "label" {
				return r.lbl, nil
			}
			return fmt.Sprintf("JSON_VAL(%s, %s)", r.attr, strLit(x.Field)), nil
		default:
			// Plain values carry no attributes.
			return "NULL", nil
		}
	}
}

// sqlExprLit renders the constant of a general closure as SQL. Such a
// constant is part of the query's shape, not an argument (its rendering
// is the closure's own: floats in fixed-point notation with a forced
// decimal point, so they stay floats), and is written into the template.
func sqlExprLit(v any) string {
	if f, ok := v.(float64); ok {
		return expr.FormatFloat(f)
	}
	return valueSQL(v)
}
