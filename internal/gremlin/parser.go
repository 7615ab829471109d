package gremlin

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"sqlgraph/internal/gremlin/expr"
	"sqlgraph/internal/rel"
)

// token kinds for the Gremlin lexer.
type gtokKind uint8

const (
	gtokEOF gtokKind = iota
	gtokIdent
	gtokInt
	gtokFloat
	gtokString
	gtokSym // . ( ) { } , == != <= >= < >
)

type gtok struct {
	kind gtokKind
	text string
	pos  int
}

// lexer scans Gremlin tokens off the source one at a time.
type lexer struct {
	src string
	i   int
}

// scan returns the next token. Token text is a slice of the source
// wherever it can be: only a string with escapes is copied.
func (l *lexer) scan() (gtok, error) {
	src, n := l.src, len(l.src)
	for l.i < n {
		c := src[l.i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' {
			l.i++
			continue
		}
		start := l.i
		switch {
		case c == '\'' || c == '"':
			text, end, err := scanString(src, start)
			l.i = end
			return gtok{gtokString, text, start + 1}, err
		case c >= '0' && c <= '9':
			i := start
			for i < n && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			kind := gtokInt
			// A '.' is part of the number only when followed by a digit
			// (so g.V(1).out lexes correctly).
			if i+1 < n && src[i] == '.' && src[i+1] >= '0' && src[i+1] <= '9' {
				kind = gtokFloat
				i++
				for i < n && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			l.i = i
			return gtok{kind, src[start:i], start + 1}, nil
		case isGIdentStart(rune(c)):
			i := start
			for i < n && isGIdentPart(rune(src[i])) {
				i++
			}
			l.i = i
			return gtok{gtokIdent, src[start:i], start + 1}, nil
		}
		if start+1 < n {
			switch src[start : start+2] {
			case "==", "!=", "<=", ">=", "&&", "||":
				l.i += 2
				return gtok{gtokSym, src[start : start+2], start + 1}, nil
			}
		}
		switch c {
		case '.', '(', ')', '{', '}', ',', '<', '>', '-', '!', '+', '*', '/', '%':
			l.i++
			return gtok{gtokSym, src[start : start+1], start + 1}, nil
		}
		return gtok{}, fmt.Errorf("gremlin: unexpected character %q at %d", c, start+1)
	}
	return gtok{gtokEOF, "", n + 1}, nil
}

// scanString reads the quoted string starting at src[start] and returns
// its value and the offset past its closing quote.
func scanString(src string, start int) (string, int, error) {
	quoteCh, n := src[start], len(src)
	i := start + 1
	for i < n && src[i] != quoteCh && src[i] != '\\' {
		i++
	}
	if i < n && src[i] == quoteCh {
		return src[start+1 : i], i + 1, nil // no escapes: the source's own bytes
	}
	var sb strings.Builder
	sb.WriteString(src[start+1 : i])
	for {
		if i >= n {
			return "", n, fmt.Errorf("gremlin: unterminated string at %d", start+1)
		}
		if src[i] == '\\' && i+1 < n {
			sb.WriteByte(src[i+1])
			i += 2
			continue
		}
		if src[i] == quoteCh {
			return sb.String(), i + 1, nil
		}
		sb.WriteByte(src[i])
		i++
	}
}

func isGIdentStart(r rune) bool { return r == '_' || r == '$' || unicode.IsLetter(r) }
func isGIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Parse parses one Gremlin query of the form g.<pipe>.<pipe>... .
func Parse(src string) (*Query, error) {
	p := &gparser{lex: lexer{src: src}}
	p.advance()
	q, err := p.parseQuery()
	if p.lexErr != nil {
		return nil, p.lexErr // what stopped the parser, whatever it made of it
	}
	return q, err
}

func (p *gparser) parseQuery() (*Query, error) {
	if !p.acceptIdent("g") {
		return nil, p.errorf("query must start with g")
	}
	steps, err := p.parsePipeline()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != gtokEOF {
		return nil, p.errorf("unexpected %q after query", p.peek().text)
	}
	if len(steps) == 0 {
		return nil, p.errorf("empty pipeline")
	}
	if steps[0].Kind != StepV && steps[0].Kind != StepE {
		return nil, p.errorf("pipeline must start with V or E")
	}
	q := &Query{Steps: steps, Text: p.lex.src}
	var sb strings.Builder
	sb.Grow(len(q.Text))
	q.write(&sb, &q.Args)
	q.Shape = sb.String()
	return q, nil
}

// gparser reads the token stream through one token of lookahead. A
// character the lexer rejects ends the stream: the parser sees EOF there
// and Parse reports the lexer's error.
type gparser struct {
	lex    lexer
	tok    gtok
	lexErr error
}

func (p *gparser) peek() gtok { return p.tok }

// advance moves the lookahead on. It never moves past the EOF sentinel,
// so a parse function that keeps consuming on truncated input reports a
// clean error instead of running off the source.
func (p *gparser) advance() {
	if p.lexErr != nil {
		return
	}
	var err error
	if p.tok, err = p.lex.scan(); err != nil {
		p.lexErr = err
		p.tok = gtok{gtokEOF, "", p.lex.i + 1}
	}
}

// next consumes and returns the lookahead.
func (p *gparser) next() gtok {
	t := p.tok
	p.advance()
	return t
}

func (p *gparser) errorf(format string, args ...any) error {
	return fmt.Errorf("gremlin: parse error near position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *gparser) accept(kind gtokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.advance()
		return true
	}
	return false
}

func (p *gparser) acceptIdent(name string) bool { return p.accept(gtokIdent, name) }

func (p *gparser) expectSym(s string) error {
	if !p.accept(gtokSym, s) {
		return p.errorf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}

// parsePipeline parses .step.step... until the pipeline ends.
func (p *gparser) parsePipeline() ([]Step, error) {
	var steps []Step
	for p.accept(gtokSym, ".") {
		if steps == nil {
			steps = make([]Step, 0, 4) // a Step is some 340 bytes: parse in place, grow seldom
		}
		steps = append(steps, Step{})
		if err := p.parseStep(&steps[len(steps)-1]); err != nil {
			return nil, err
		}
	}
	return steps, nil
}

var kindByName = map[string]StepKind{
	"V": StepV, "E": StepE, "v": StepV, "e": StepE,
	"out": StepOut, "in": StepIn, "both": StepBoth,
	"outE": StepOutE, "inE": StepInE, "bothE": StepBothE,
	"outV": StepOutV, "inV": StepInV, "bothV": StepBothV,
	"id": StepID, "label": StepLabel, "property": StepProperty,
	"path": StepPath, "count": StepCount,
	"has": StepHas, "hasNot": StepHasNot, "interval": StepInterval,
	"filter": StepFilter, "dedup": StepDedup, "range": StepRange,
	"simplePath": StepSimplePath, "except": StepExcept, "retain": StepRetain,
	"back": StepBack, "as": StepAs, "aggregate": StepAggregate,
	"table": StepTable, "iterate": StepIterate,
	"ifThenElse": StepIfThenElse, "loop": StepLoop,
	"order": StepOrder, "groupBy": StepGroupBy, "groupCount": StepGroupCount,
}

// parseStep parses one pipe into step, which is zero.
func (p *gparser) parseStep(step *Step) error {
	t := p.peek()
	if t.kind != gtokIdent {
		return p.errorf("expected pipe name, found %q", t.text)
	}
	p.advance()
	kind, known := kindByName[t.text]
	if !known {
		// Bare property access: .name is shorthand for .property('name').
		step.Kind, step.Key = StepProperty, t.text
		return nil
	}
	step.Kind = kind
	if kind == StepV || kind == StepE {
		return p.parseSourceArgs(step)
	}

	// Argument list.
	var args []any
	if p.accept(gtokSym, "(") {
		for !p.accept(gtokSym, ")") {
			if len(args) > 0 {
				if err := p.expectSym(","); err != nil {
					return err
				}
			}
			arg, err := p.parseArg()
			if err != nil {
				return err
			}
			args = append(args, arg)
		}
	}

	switch kind {
	case StepOut, StepIn, StepBoth, StepOutE, StepInE, StepBothE:
		for _, a := range args {
			s, ok := a.(string)
			if !ok {
				return p.errorf("%s expects string edge labels", kind)
			}
			step.Labels = append(step.Labels, s)
		}
	case StepProperty:
		if len(args) != 1 {
			return p.errorf("property expects one key argument")
		}
		key, ok := args[0].(string)
		if !ok {
			return p.errorf("property key must be a string")
		}
		step.Key = key
	case StepHas:
		if err := applyHasArgs(step, args); err != nil {
			return p.errorf("%v", err)
		}
	case StepHasNot:
		if len(args) != 1 {
			return p.errorf("hasNot expects one key argument")
		}
		key, ok := args[0].(string)
		if !ok {
			return p.errorf("hasNot key must be a string")
		}
		step.Key = key
	case StepInterval:
		if len(args) != 3 {
			return p.errorf("interval expects (key, lo, hi)")
		}
		key, ok := args[0].(string)
		if !ok {
			return p.errorf("interval key must be a string")
		}
		lo, err := valueArg(args[1])
		if err != nil {
			return p.errorf("interval lo: %v", err)
		}
		hi, err := valueArg(args[2])
		if err != nil {
			return p.errorf("interval hi: %v", err)
		}
		step.Key, step.Lo, step.Hi = key, lo, hi
	case StepRange:
		if len(args) != 2 {
			return p.errorf("range expects (low, high)")
		}
		lo, ok1 := args[0].(int64)
		hi, ok2 := args[1].(int64)
		if !ok1 || !ok2 {
			return p.errorf("range bounds must be integers")
		}
		step.Lo, step.Hi = lo, hi
	case StepBack:
		if len(args) != 1 {
			return p.errorf("back expects one argument")
		}
		switch v := args[0].(type) {
		case string:
			step.Name = v
		case int64:
			step.BackN = int(v)
		default:
			return p.errorf("back expects a name or step count")
		}
	case StepAs, StepAggregate, StepExcept, StepRetain, StepTable:
		if len(args) != 1 {
			return p.errorf("%s expects one argument", kind)
		}
		switch v := args[0].(type) {
		case string:
			step.Name = v
		case ident:
			step.Name = string(v)
		default:
			return p.errorf("%s expects a name", kind)
		}
	case StepFilter:
		node, err := p.parseExprClosure("filter")
		if err != nil {
			return err
		}
		step.FilterExpr = node
		// Simple closures reduce to the legacy Key/Op/Value predicate so
		// existing semantics (existence tests, attribute-column merging
		// in the translator) are preserved bit for bit.
		if pred := simplePredicate(node); pred != nil {
			step.Key, step.Op, step.Value = pred.Key, pred.Op, pred.Value
		}
	case StepIfThenElse:
		node, err := p.parseExprClosure("ifThenElse")
		if err != nil {
			return err
		}
		step.TestExpr = node
		if pred := simplePredicate(node); pred != nil {
			step.Test = pred
			step.TestExpr = nil
		}
		thenSteps, err := p.parsePipelineClosure()
		if err != nil {
			return err
		}
		elseSteps, err := p.parsePipelineClosure()
		if err != nil {
			return err
		}
		step.Then, step.Else = thenSteps, elseSteps
	case StepOrder:
		if len(args) != 0 {
			return p.errorf("order takes no arguments")
		}
		if p.peek().kind == gtokSym && p.peek().text == "{" {
			node, err := p.parseExprClosure("order")
			if err != nil {
				return err
			}
			step.KeyExpr = node
		}
	case StepGroupBy:
		if len(args) != 0 {
			return p.errorf("groupBy takes no arguments")
		}
		key, err := p.parseExprClosure("groupBy")
		if err != nil {
			return err
		}
		val, err := p.parseExprClosure("groupBy")
		if err != nil {
			return err
		}
		step.KeyExpr, step.ValueExpr = key, val
	case StepGroupCount:
		if len(args) != 0 {
			return p.errorf("groupCount takes no arguments")
		}
		key, err := p.parseExprClosure("groupCount")
		if err != nil {
			return err
		}
		step.KeyExpr = key
	case StepLoop:
		if len(args) != 1 {
			return p.errorf("loop expects a step name or count")
		}
		switch v := args[0].(type) {
		case string:
			step.Name = v
		case int64:
			step.BackN = int(v)
		default:
			return p.errorf("loop expects a name or step count")
		}
		max, err := p.parseLoopClosure()
		if err != nil {
			return err
		}
		step.LoopMax = max
		step.LoopPred = &Predicate{Key: "loops", Op: OpLt, Value: int64(max)}
	case StepCount, StepDedup, StepIterate, StepPath, StepSimplePath,
		StepID, StepLabel, StepOutV, StepInV, StepBothV:
		if len(args) != 0 {
			return p.errorf("%s takes no arguments", kind)
		}
	}
	return nil
}

// ident marks a bare identifier argument (aggregate(x), table(t1)).
type ident string

func (p *gparser) parseArg() (any, error) {
	t := p.peek()
	switch t.kind {
	case gtokString:
		p.advance()
		return t.text, nil
	case gtokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return v, nil
	case gtokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad float %q", t.text)
		}
		return v, nil
	case gtokSym:
		if t.text == "-" {
			p.advance()
			inner, err := p.parseArg()
			if err != nil {
				return nil, err
			}
			switch v := inner.(type) {
			case int64:
				return -v, nil
			case float64:
				return -v, nil
			default:
				return nil, p.errorf("cannot negate %v", inner)
			}
		}
		return nil, p.errorf("unexpected %q in argument list", t.text)
	case gtokIdent:
		p.advance()
		switch t.text {
		case "true":
			return true, nil
		case "false":
			return false, nil
		case "T":
			// T.gt style comparison token.
			if err := p.expectSym("."); err != nil {
				return nil, err
			}
			op := p.next()
			if op.kind != gtokIdent {
				return nil, p.errorf("expected comparison token after T.")
			}
			cmp, err := tokenOp(op.text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			return cmp, nil
		default:
			return ident(t.text), nil
		}
	default:
		return nil, p.errorf("unexpected token %q in arguments", t.text)
	}
}

func tokenOp(name string) (CmpOp, error) {
	switch name {
	case "eq":
		return OpEq, nil
	case "neq":
		return OpNeq, nil
	case "lt":
		return OpLt, nil
	case "lte":
		return OpLte, nil
	case "gt":
		return OpGt, nil
	case "gte":
		return OpGte, nil
	default:
		return "", fmt.Errorf("unknown comparison token T.%s", name)
	}
}

// parseSourceArgs parses the arguments of V and E: none, (key, value), or
// ids. An id list may run to thousands of entries (the Table-1 texts), so
// ids go from the token stream straight into StartIDs.
func (p *gparser) parseSourceArgs(step *Step) error {
	if !p.accept(gtokSym, "(") || p.accept(gtokSym, ")") {
		return nil
	}
	if p.peek().kind == gtokString {
		key := p.next().text
		if p.accept(gtokSym, ")") {
			return p.errorf("%s(id) expects an integer id", step.Kind)
		}
		if err := p.expectSym(","); err != nil {
			return err
		}
		arg, err := p.parseArg()
		if err != nil {
			return err
		}
		if !p.accept(gtokSym, ")") {
			return p.errorf("%s(ids...) expects integer ids", step.Kind)
		}
		val, err := valueArg(arg)
		if err != nil {
			return p.errorf("%s(key, value): %v", step.Kind, err)
		}
		step.StartKey, step.StartVal = key, val
		return nil
	}
	for {
		neg := p.accept(gtokSym, "-")
		t := p.peek()
		if t.kind != gtokInt {
			return p.errorf("%s(ids...) expects integer ids", step.Kind)
		}
		p.advance()
		if neg {
			t.text = "-" + t.text
		}
		id, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return p.errorf("bad integer %q", t.text)
		}
		step.StartIDs = append(step.StartIDs, id)
		if p.accept(gtokSym, ")") {
			return nil
		}
		if err := p.expectSym(","); err != nil {
			return err
		}
	}
}

// valueArg validates an argument used as a comparison value: a T.xx
// comparison token is only legal in has()'s operator slot, never as a
// value (it would render unquoted and break the String() round trip).
func valueArg(v any) (any, error) {
	if op, ok := v.(CmpOp); ok {
		return nil, fmt.Errorf("comparison token T.%s is not a value", opToken(op))
	}
	return v, nil
}

func applyHasArgs(step *Step, args []any) error {
	switch len(args) {
	case 1:
		key, ok := args[0].(string)
		if !ok {
			return fmt.Errorf("has key must be a string")
		}
		step.Key = key
		return nil
	case 2:
		key, ok := args[0].(string)
		if !ok {
			return fmt.Errorf("has key must be a string")
		}
		val, err := valueArg(args[1])
		if err != nil {
			return fmt.Errorf("has(key, value): %w", err)
		}
		step.Key, step.Op, step.Value = key, OpEq, val
		return nil
	case 3:
		key, ok := args[0].(string)
		if !ok {
			return fmt.Errorf("has key must be a string")
		}
		op, ok := args[1].(CmpOp)
		if !ok {
			return fmt.Errorf("has comparison must be a T token")
		}
		val, err := valueArg(args[2])
		if err != nil {
			return fmt.Errorf("has(key, T.%s, value): %w", opToken(op), err)
		}
		step.Key, step.Op, step.Value = key, op, val
		return nil
	default:
		return fmt.Errorf("has expects 1-3 arguments")
	}
}

// parseExprClosure parses {<expr>}: it extracts the brace-delimited body
// from the source text (strings were already lexed, so counting brace
// tokens is safe) and hands it to the expression parser. `it.loops` is
// only legal inside loop closures, which use parseLoopClosure instead.
func (p *gparser) parseExprClosure(pipe string) (expr.Node, error) {
	node, err := p.rawExprClosure(pipe)
	if err != nil {
		return nil, err
	}
	if expr.UsesLoops(node) {
		return nil, p.errorf("it.loops is only valid inside loop closures")
	}
	return node, nil
}

func (p *gparser) rawExprClosure(pipe string) (expr.Node, error) {
	open := p.peek()
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	depth := 1
	var close gtok
	for depth > 0 {
		t := p.next()
		if t.kind == gtokEOF {
			return nil, p.errorf("unterminated %s closure", pipe)
		}
		if t.kind == gtokSym {
			switch t.text {
			case "{":
				depth++
			case "}":
				depth--
				if depth == 0 {
					close = t
				}
			}
		}
	}
	// Token positions are 1-based start offsets: the body is everything
	// strictly between the braces.
	body := p.lex.src[open.pos : close.pos-1]
	node, err := expr.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("gremlin: %s closure near position %d: %w", pipe, open.pos, err)
	}
	return node, nil
}

// simplePredicate reduces an expression to the legacy single-comparison
// Predicate when it has that exact shape: `it.key` (existence test) or
// `it.key op literal`. Reserved accessors (id, loops) never reduce — they
// carry element semantics, not attribute lookups.
func simplePredicate(n expr.Node) *Predicate {
	switch x := n.(type) {
	case *expr.It:
		if x.Field != "" && x.Field != "id" && x.Field != "loops" {
			return &Predicate{Key: x.Field}
		}
	case *expr.Binary:
		switch x.Op {
		case "==", "!=", "<", "<=", ">", ">=":
		default:
			return nil
		}
		it, ok := x.L.(*expr.It)
		if !ok || it.Field == "" || it.Field == "id" || it.Field == "loops" {
			return nil
		}
		val, ok := litValue(x.R)
		if !ok {
			return nil
		}
		return &Predicate{Key: it.Field, Op: CmpOp(x.Op), Value: val}
	}
	return nil
}

// litValue unwraps a literal or negated numeric literal.
func litValue(n expr.Node) (any, bool) {
	switch x := n.(type) {
	case *expr.Lit:
		return x.Val, true
	case *expr.Unary:
		if x.Op != "-" {
			return nil, false
		}
		if lit, ok := x.X.(*expr.Lit); ok {
			switch v := lit.Val.(type) {
			case int64:
				return -v, true
			case float64:
				return -v, true
			}
		}
	}
	return nil, false
}

// parsePipelineClosure parses {it.step.step...} used by ifThenElse
// branches; {it} alone is the identity branch.
func (p *gparser) parsePipelineClosure() ([]Step, error) {
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	if !p.acceptIdent("it") {
		return nil, p.errorf("branch closure must start with it")
	}
	steps, err := p.parsePipeline()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	return steps, nil
}

// maxLoopBound caps loop termination closures: the closure must become
// false for some iteration counter in [1, maxLoopBound].
const maxLoopBound = 1024

// parseLoopClosure parses a loop termination closure — any expression
// over it.loops, e.g. {it.loops < 3} or {it.loops < 4 && it.loops != 2}.
// The closure is probed against successive iteration counters to find
// the first value where it turns false; that becomes the unroll bound.
// (Looping continues while the closure is true, so a closure that never
// turns false is rejected rather than unrolled forever.)
func (p *gparser) parseLoopClosure() (int, error) {
	node, err := p.rawExprClosure("loop")
	if err != nil {
		return 0, err
	}
	if !expr.UsesLoops(node) {
		return 0, p.errorf("loop closure must reference it.loops")
	}
	if !expr.OnlyLoops(node) {
		return 0, p.errorf("loop closure may only reference it.loops")
	}
	for n := 1; n <= maxLoopBound; n++ {
		v, err := expr.Eval(node, loopEnv{n: int64(n)})
		if err != nil {
			return 0, p.errorf("loop closure: %v", err)
		}
		if !expr.Truthy(v) {
			return n, nil
		}
	}
	return 0, p.errorf("loop closure never terminates within %d iterations", maxLoopBound)
}

// loopEnv evaluates loop closures: only it.loops resolves (OnlyLoops is
// checked before probing, so the other accessors are unreachable).
type loopEnv struct{ n int64 }

func (e loopEnv) Prop(string) rel.Value { return rel.Null }
func (e loopEnv) ID() rel.Value         { return rel.Null }
func (e loopEnv) Loops() rel.Value      { return rel.NewInt(e.n) }
func (e loopEnv) Self() rel.Value       { return rel.Null }
