// Package sql implements the SQL front-end of the relational substrate:
// a lexer, an abstract syntax tree, and a recursive-descent parser for a
// closed dialect — the SQL the Gremlin translator's Table-8 templates,
// View.VerticesByAttr and the figure code emit (CTE chains, UNION ALL,
// comma joins, LEFT OUTER JOIN, lateral TABLE(VALUES) unnesting, a
// recursive CTE, IN/NOT IN subqueries, JSON_VAL). Anything else is a
// parse error, never another query; DESIGN.md §23 lists the grammar and
// the emitter each construct serves. It parses queries only: writes are
// the relational layer's transactions.
package sql

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokParam  // ?
	TokSymbol // punctuation and operators
)

// Token is a lexical token with its source position (1-based offsets into
// the query text, for error messages).
type Token struct {
	Kind TokenKind
	Text string // keywords upper-cased; identifiers upper-cased unless quoted
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"UNION": true, "ALL": true, "WITH": true, "RECURSIVE": true, "AS": true,
	"JOIN": true, "LEFT": true, "OUTER": true, "ON": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "IS": true, "NULL": true,
	"LIKE": true, "TRUE": true, "FALSE": true, "CAST": true, "VALUES": true,
	"TABLE": true, "COUNT": true,
}

// Lex tokenizes a SQL string.
func Lex(src string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			// Line comment.
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("sql: unterminated block comment at %d", i+1)
			}
			i += end + 4
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string literal at %d", start+1)
				}
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start + 1})
		case c == '"':
			start := i
			i++
			j := strings.IndexByte(src[i:], '"')
			if j < 0 {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at %d", start+1)
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[i : i+j], Pos: start + 1})
			i += j + 1
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			isFloat := false
			for i < n && (src[i] >= '0' && src[i] <= '9') {
				i++
			}
			if i < n && src[i] == '.' {
				isFloat = true
				i++
				for i < n && (src[i] >= '0' && src[i] <= '9') {
					i++
				}
			}
			if i < n && (src[i] == 'e' || src[i] == 'E') {
				isFloat = true
				i++
				if i < n && (src[i] == '+' || src[i] == '-') {
					i++
				}
				for i < n && (src[i] >= '0' && src[i] <= '9') {
					i++
				}
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Text: src[start:i], Pos: start + 1})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(src[i]) {
				i++
			}
			word := strings.ToUpper(src[start:i])
			kind := TokIdent
			if keywords[word] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: word, Pos: start + 1})
		case c == '?':
			// ? takes the next free position, ?N names position N (from 1).
			start := i
			i++
			for i < n && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			toks = append(toks, Token{Kind: TokParam, Text: src[start:i], Pos: start + 1})
		default:
			start := i
			var sym string
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				sym = two
				i += 2
			default:
				switch c {
				case '(', ')', ',', '.', ';', '*', '+', '-', '/', '%', '=', '<', '>', '[', ']':
					sym = string(c)
					i++
				default:
					return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i+1)
				}
			}
			toks = append(toks, Token{Kind: TokSymbol, Text: sym, Pos: start + 1})
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n + 1})
	return toks, nil
}

// Unquoted identifiers are ASCII: the lexer reads bytes, and a byte of a
// multi-byte character is not a letter of its own. Any other name is
// written in double quotes.
func isIdentStart(c byte) bool {
	return c == '_' || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c == '$' || '0' <= c && c <= '9'
}
