package sql

import (
	"strings"
)

// Statement is a parsed SQL statement; *SelectStmt is the only kind.
type Statement interface{ stmt() }

// Expr is any scalar expression node.
type Expr interface {
	expr()
	// SQL renders the expression back to SQL text (used for error messages
	// and to match expression indexes).
	SQL() string
}

// --- Statements ---

// SelectStmt is a full query: an optional WITH clause wrapping a
// UNION ALL tree of simple selects, plus ORDER BY (ascending keys) and
// LIMIT / OFFSET.
type SelectStmt struct {
	With    []CTE
	Body    SelectBody
	OrderBy []Expr
	Limit   Expr // nil when absent
	Offset  Expr // nil when absent
}

func (*SelectStmt) stmt() {}

// CTE is one WITH entry. Recursive marks `WITH RECURSIVE` queries whose
// body unions a base case with a self-referencing recursive case.
type CTE struct {
	Name      string
	Columns   []string // optional explicit column names
	Query     *SelectStmt
	Recursive bool
}

// SelectBody is a simple SELECT or UNION ALL of two bodies.
type SelectBody interface{ body() }

// UnionAll is Left UNION ALL Right.
type UnionAll struct {
	Left  SelectBody
	Right SelectBody
}

func (*UnionAll) body() {}

// SimpleSelect is one SELECT ... FROM ... WHERE ... GROUP BY.
type SimpleSelect struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
}

func (*SimpleSelect) body() {}

// SelectItem is one output column.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef is a named table, a derived table, or a lateral VALUES
// unnesting, optionally chained with LEFT OUTER JOIN clauses.
type TableRef struct {
	// Exactly one of Table, Subquery, TableFn is set.
	Table    string
	Subquery *SelectStmt
	TableFn  *TableFunc
	Alias    string
	Joins    []JoinClause
}

// TableFunc is the paper's TABLE(VALUES (e1),(e2),...) AS t(col) lateral
// construct: each row of the preceding FROM item is expanded into one row
// per VALUES entry, with the entry's value bound to the declared column.
type TableFunc struct {
	Rows    [][]Expr // each inner slice is one VALUES row
	Columns []string // declared output column names
}

// JoinClause is one LEFT OUTER JOIN attached to a TableRef.
type JoinClause struct {
	Right TableRef
	On    Expr
}

// --- Expressions ---

// ColumnRef references a column, optionally qualified by table alias.
type ColumnRef struct {
	Table  string
	Column string
}

func (*ColumnRef) expr() {}
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return ident(c.Table) + "." + ident(c.Column)
	}
	return ident(c.Column)
}

// ident renders a name so the lexer reads it back as itself: bare when it
// is an upper-case identifier and no keyword, in double quotes otherwise.
func ident(name string) string {
	bare := name != "" && isIdentStart(name[0]) && !keywords[name]
	for i := 0; bare && i < len(name); i++ {
		bare = isIdentPart(name[i]) && !('a' <= name[i] && name[i] <= 'z')
	}
	if bare {
		return name
	}
	return `"` + name + `"`
}

// Literal is a constant. Val holds nil, bool, int64, float64, or string.
type Literal struct{ Val any }

func (*Literal) expr() {}
func (l *Literal) SQL() string {
	switch v := l.Val.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	case bool:
		if v {
			return "TRUE"
		}
		return "FALSE"
	default:
		return toString(v)
	}
}

// Param is a parameter. Index counts from 0: a plain ? takes the position
// after the highest one before it, ?N names position N-1, so one argument
// can be read in several places (the Table-8 templates: an unrolled loop
// repeats its segment's parameters).
type Param struct{ Index int }

func (*Param) expr()         {}
func (p *Param) SQL() string { return "?" + itoa(int64(p.Index+1)) }

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT", "-"
	X  Expr
}

func (*Unary) expr()         {}
func (u *Unary) SQL() string { return u.Op + " (" + u.X.SQL() + ")" }

// Binary is a binary operation: arithmetic, comparison, AND/OR, LIKE, ||.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) expr()         {}
func (b *Binary) SQL() string { return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")" }

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

func (*IsNull) expr() {}
func (i *IsNull) SQL() string {
	if i.Not {
		return i.X.SQL() + " IS NOT NULL"
	}
	return i.X.SQL() + " IS NULL"
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

func (*InList) expr() {}
func (i *InList) SQL() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.SQL()
	}
	op := " IN ("
	if i.Not {
		op = " NOT IN ("
	}
	return i.X.SQL() + op + strings.Join(parts, ", ") + ")"
}

// InSubquery is x [NOT] IN (SELECT ...).
type InSubquery struct {
	X     Expr
	Query *SelectStmt
	Not   bool
}

func (*InSubquery) expr() {}
func (i *InSubquery) SQL() string {
	op := " IN (<subquery>)"
	if i.Not {
		op = " NOT IN (<subquery>)"
	}
	return i.X.SQL() + op
}

// FuncCall is a scalar or aggregate function call. Star marks COUNT(*).
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

func (*FuncCall) expr() {}
func (f *FuncCall) SQL() string {
	name := f.Name
	if name != "COUNT" { // the one keyword read as a function name
		name = ident(name)
	}
	if f.Star {
		return name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.SQL()
	}
	return name + "(" + strings.Join(parts, ", ") + ")"
}

// Cast is CAST(x AS BIGINT) or CAST(x AS DOUBLE).
type Cast struct {
	X    Expr
	Type string // "BIGINT" or "DOUBLE"
}

func (*Cast) expr()         {}
func (c *Cast) SQL() string { return "CAST(" + c.X.SQL() + " AS " + c.Type + ")" }

// Subscript is x[i], indexing a LIST value (traversal paths).
type Subscript struct {
	X, Index Expr
}

func (*Subscript) expr()         {}
func (s *Subscript) SQL() string { return s.X.SQL() + "[" + s.Index.SQL() + "]" }

// Children calls fn on each expression x holds directly, left to right.
// A subquery is not an expression: InSubquery's X is its one child.
func Children(x Expr, fn func(Expr)) {
	switch v := x.(type) {
	case *Unary:
		fn(v.X)
	case *Binary:
		fn(v.L)
		fn(v.R)
	case *IsNull:
		fn(v.X)
	case *InList:
		fn(v.X)
		for _, item := range v.List {
			fn(item)
		}
	case *InSubquery:
		fn(v.X)
	case *FuncCall:
		for _, a := range v.Args {
			fn(a)
		}
	case *Cast:
		fn(v.X)
	case *Subscript:
		fn(v.X)
		fn(v.Index)
	}
}

func toString(v any) string {
	switch x := v.(type) {
	case int64:
		return itoa(x)
	case float64:
		// A float keeps its point, so it reads back as a float, not as
		// an integer (-0 would lose its sign).
		s := ftoa(x)
		if !strings.ContainsAny(s, ".eIN") {
			s += ".0"
		}
		return s
	default:
		return "?"
	}
}
