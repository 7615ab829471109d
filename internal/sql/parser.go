package sql

import (
	"fmt"
	"strconv"
)

func itoa(i int64) string   { return strconv.FormatInt(i, 10) }
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Parse parses a single SQL statement: a SELECT, the only kind there is.
func Parse(src string) (Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	if !p.at(TokKeyword, "SELECT") && !p.at(TokKeyword, "WITH") && !p.at(TokSymbol, "(") {
		return nil, p.errorf("expected SELECT, found %s", p.peek())
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseExpr parses a standalone scalar expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

type parser struct {
	toks    []Token
	pos     int
	src     string
	nparams int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error near position %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.peek()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errorf("expected %s, found %s", want, p.peek())
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	// Accept non-reserved keywords as identifiers where unambiguous is
	// complex; require plain identifiers.
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, found %s", t)
}

// parseSelect parses WITH? union-all-tree ORDER BY? LIMIT? OFFSET?.
func (p *parser) parseSelect() (*SelectStmt, error) {
	stmt := &SelectStmt{}
	if p.acceptKeyword("WITH") {
		recursive := p.acceptKeyword("RECURSIVE")
		for {
			cte, err := p.parseCTE(recursive)
			if err != nil {
				return nil, err
			}
			stmt.With = append(stmt.With, cte)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	body, err := p.parseUnionAll()
	if err != nil {
		return nil, err
	}
	stmt.Body = body
	if p.acceptKeyword("ORDER") {
		if stmt.OrderBy, err = p.parseByList(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Offset = e
	}
	return stmt, nil
}

func (p *parser) parseCTE(recursive bool) (CTE, error) {
	name, err := p.expectIdent()
	if err != nil {
		return CTE{}, err
	}
	cte := CTE{Name: name, Recursive: recursive}
	if p.accept(TokSymbol, "(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return CTE{}, err
			}
			cte.Columns = append(cte.Columns, col)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return CTE{}, err
		}
	}
	if _, err := p.expect(TokKeyword, "AS"); err != nil {
		return CTE{}, err
	}
	if _, err := p.expect(TokSymbol, "("); err != nil {
		return CTE{}, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return CTE{}, err
	}
	if _, err := p.expect(TokSymbol, ")"); err != nil {
		return CTE{}, err
	}
	cte.Query = q
	return cte, nil
}

// parseByList parses BY e1, e2, ... (of GROUP BY and ORDER BY).
func (p *parser) parseByList() ([]Expr, error) {
	if _, err := p.expect(TokKeyword, "BY"); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(TokSymbol, ",") {
			return list, nil
		}
	}
}

// parseUnionAll parses a left-associative chain of UNION ALL.
func (p *parser) parseUnionAll() (SelectBody, error) {
	left, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("UNION") {
		if _, err := p.expect(TokKeyword, "ALL"); err != nil {
			return nil, err
		}
		right, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		left = &UnionAll{Left: left, Right: right}
	}
	return left, nil
}

// parseSelectCore parses one SELECT ... or a parenthesized UNION ALL tree.
func (p *parser) parseSelectCore() (SelectBody, error) {
	if p.accept(TokSymbol, "(") {
		body, err := p.parseUnionAll()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return body, nil
	}
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SimpleSelect{}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		var err error
		if sel.GroupBy, err = p.parseByList(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	ref, err := p.parseTablePrimary()
	if err != nil {
		return TableRef{}, err
	}
	for p.acceptKeyword("LEFT") {
		p.acceptKeyword("OUTER")
		if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
			return TableRef{}, err
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return TableRef{}, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return TableRef{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return TableRef{}, err
		}
		ref.Joins = append(ref.Joins, JoinClause{Right: right, On: on})
	}
	return ref, nil
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	var ref TableRef
	switch {
	case p.acceptKeyword("TABLE"):
		// TABLE(VALUES (e1),(e2),...) AS t(col,...)
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return ref, err
		}
		if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
			return ref, err
		}
		fn := &TableFunc{}
		for {
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return ref, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return ref, err
				}
				row = append(row, e)
				if !p.accept(TokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return ref, err
			}
			fn.Rows = append(fn.Rows, row)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return ref, err
		}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return ref, err
		}
		ref.Alias = alias
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return ref, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return ref, err
			}
			fn.Columns = append(fn.Columns, col)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return ref, err
		}
		ref.TableFn = fn
	case p.accept(TokSymbol, "("):
		q, err := p.parseSelect()
		if err != nil {
			return ref, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return ref, err
		}
		ref.Subquery = q
	default:
		name, err := p.expectIdent()
		if err != nil {
			return ref, err
		}
		ref.Table = name
	}
	if ref.TableFn == nil {
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return ref, err
			}
			ref.Alias = alias
		} else if p.peek().Kind == TokIdent {
			ref.Alias = p.next().Text
		}
	}
	return ref, nil
}

// --- Expression parsing (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: left, Not: not}, nil
	}
	notIn := false
	if p.at(TokKeyword, "NOT") && p.pos+1 < len(p.toks) &&
		(p.toks[p.pos+1].Text == "IN" || p.toks[p.pos+1].Text == "LIKE") {
		p.next()
		notIn = true
	}
	switch {
	case p.acceptKeyword("IN"):
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		if p.at(TokKeyword, "SELECT") || p.at(TokKeyword, "WITH") {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return &InSubquery{X: left, Query: q, Not: notIn}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return &InList{X: left, List: list, Not: notIn}, nil
	case p.acceptKeyword("LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &Binary{Op: "LIKE", L: left, R: right}
		if notIn {
			e = &Unary{Op: "NOT", X: e}
		}
		return e, nil
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.accept(TokSymbol, op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			normalized := op
			if op == "!=" {
				normalized = "<>"
			}
			return &Binary{Op: normalized, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "+"):
			op = "+"
		case p.accept(TokSymbol, "-"):
			op = "-"
		case p.accept(TokSymbol, "||"):
			op = "||"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokSymbol, "*"):
			op = "*"
		case p.accept(TokSymbol, "/"):
			op = "/"
		case p.accept(TokSymbol, "%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok {
			switch v := lit.Val.(type) {
			case int64:
				return &Literal{Val: -v}, nil
			case float64:
				return &Literal{Val: -v}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(TokSymbol, "[") {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "]"); err != nil {
			return nil, err
		}
		e = &Subscript{X: e, Index: idx}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %s", t.Text)
		}
		return &Literal{Val: v}, nil
	case t.Kind == TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %s", t.Text)
		}
		return &Literal{Val: v}, nil
	case t.Kind == TokString:
		p.next()
		return &Literal{Val: t.Text}, nil
	case t.Kind == TokParam:
		p.next()
		idx := p.nparams
		if len(t.Text) > 1 {
			n, err := strconv.Atoi(t.Text[1:])
			if err != nil || n < 1 {
				return nil, p.errorf("bad parameter number %s", t.Text)
			}
			idx = n - 1
		}
		p.nparams = max(p.nparams, idx+1)
		return &Param{Index: idx}, nil
	case p.acceptKeyword("NULL"):
		return &Literal{Val: nil}, nil
	case p.acceptKeyword("TRUE"):
		return &Literal{Val: true}, nil
	case p.acceptKeyword("FALSE"):
		return &Literal{Val: false}, nil
	case p.acceptKeyword("CAST"):
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AS"); err != nil {
			return nil, err
		}
		typ := p.peek()
		if typ.Kind != TokIdent || typ.Text != "BIGINT" && typ.Text != "DOUBLE" {
			return nil, p.errorf("expected BIGINT or DOUBLE, found %s", typ)
		}
		p.next()
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return &Cast{X: x, Type: typ.Text}, nil
	case p.acceptKeyword("COUNT"):
		// COUNT is a keyword so COUNT(*) parses cleanly.
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return nil, err
		}
		if p.accept(TokSymbol, "*") {
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: "COUNT", Star: true}, nil
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return &FuncCall{Name: "COUNT", Args: []Expr{arg}}, nil
	case p.accept(TokSymbol, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		p.next()
		// Function call?
		if p.accept(TokSymbol, "(") {
			fc := &FuncCall{Name: t.Text}
			if !p.accept(TokSymbol, ")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, arg)
					if !p.accept(TokSymbol, ",") {
						break
					}
				}
				if _, err := p.expect(TokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.accept(TokSymbol, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	default:
		return nil, p.errorf("expected expression, found %s", t)
	}
}
