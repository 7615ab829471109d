// Package interp evaluates Gremlin queries pipe-at-a-time over a
// Blueprints graph, the way Titan, Neo4j, and OrientDB execute Gremlin
// (paper Section 4.2). Every traversal step issues primitive CRUD calls
// against the Graph interface, so per-call overhead (locking, simulated
// round trips in the baseline stores) accumulates — exactly the effect
// SQLGraph's single-SQL translation eliminates.
//
// It doubles as the correctness oracle: the translator's results are
// differential-tested against this interpreter on random graphs.
package interp

import (
	"fmt"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/expr"
)

// ItemKind classifies objects flowing through the pipeline.
type ItemKind uint8

// Item kinds.
const (
	VertexItem ItemKind = iota
	EdgeItem
	ValueItem
)

// Item is one object in a pipe's iterator.
type Item struct {
	Kind  ItemKind
	ID    int64 // vertex or edge id
	Val   any   // payload for ValueItem
	Path  []Item
	Marks map[string]Item
	Loops int
}

// Key canonicalizes an item for dedup/except/retain.
func (it Item) Key() string {
	switch it.Kind {
	case VertexItem:
		return fmt.Sprintf("v:%d", it.ID)
	case EdgeItem:
		return fmt.Sprintf("e:%d", it.ID)
	default:
		return fmt.Sprintf("x:%T:%v", it.Val, it.Val)
	}
}

// Result is a fully evaluated pipeline.
type Result struct {
	Items []Item
}

// Count returns the number of emitted items.
func (r *Result) Count() int { return len(r.Items) }

// Values renders items as plain values: element ids for vertices/edges,
// payloads for values.
func (r *Result) Values() []any {
	out := make([]any, len(r.Items))
	for i, it := range r.Items {
		switch it.Kind {
		case VertexItem, EdgeItem:
			out[i] = it.ID
		default:
			out[i] = it.Val
		}
	}
	return out
}

// Paths renders each item's full traversal path (ending at the item).
func (r *Result) Paths() [][]any {
	out := make([][]any, len(r.Items))
	for i, it := range r.Items {
		p := make([]any, 0, len(it.Path)+1)
		for _, h := range it.Path {
			p = append(p, pathEntry(h))
		}
		p = append(p, pathEntry(it))
		out[i] = p
	}
	return out
}

func pathEntry(it Item) any {
	if it.Kind == ValueItem {
		return it.Val
	}
	return it.ID
}

// env carries pipeline-wide side-effect state.
type env struct {
	g          blueprints.Graph
	aggregates map[string]map[string]bool
}

// Eval runs a query against a graph.
func Eval(g blueprints.Graph, q *gremlin.Query) (*Result, error) {
	e := &env{g: g, aggregates: map[string]map[string]bool{}}
	items, err := sourceItems(g, &q.Steps[0])
	if err != nil {
		return nil, err
	}
	items, err = e.run(items, q.Steps[1:])
	if err != nil {
		return nil, err
	}
	return &Result{Items: items}, nil
}

func sourceItems(g blueprints.Graph, s *gremlin.Step) ([]Item, error) {
	switch s.Kind {
	case gremlin.StepV:
		switch {
		case len(s.StartIDs) > 0:
			var out []Item
			for _, id := range s.StartIDs {
				if g.VertexExists(id) {
					out = append(out, Item{Kind: VertexItem, ID: id})
				}
			}
			return out, nil
		case s.StartKey != "":
			ids, err := g.VerticesByAttr(s.StartKey, s.StartVal)
			if err != nil {
				return nil, err
			}
			out := make([]Item, len(ids))
			for i, id := range ids {
				out[i] = Item{Kind: VertexItem, ID: id}
			}
			return out, nil
		default:
			ids := g.VertexIDs()
			out := make([]Item, len(ids))
			for i, id := range ids {
				out[i] = Item{Kind: VertexItem, ID: id}
			}
			return out, nil
		}
	case gremlin.StepE:
		if len(s.StartIDs) > 0 {
			var out []Item
			for _, id := range s.StartIDs {
				if _, err := g.Edge(id); err == nil {
					out = append(out, Item{Kind: EdgeItem, ID: id})
				}
			}
			return out, nil
		}
		ids := g.EdgeIDs()
		out := make([]Item, len(ids))
		for i, id := range ids {
			out[i] = Item{Kind: EdgeItem, ID: id}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("interp: pipeline must start with V or E, got %v", s.Kind)
	}
}

// run executes a step list over items, handling loop segments.
func (e *env) run(items []Item, steps []gremlin.Step) ([]Item, error) {
	for i := 0; i < len(steps); i++ {
		s := &steps[i]
		if s.Kind == gremlin.StepLoop {
			start, err := loopStart(steps, i, s)
			if err != nil {
				return nil, err
			}
			segment := steps[start:i]
			items, err = e.runLoop(items, segment, s.LoopMax)
			if err != nil {
				return nil, err
			}
			continue
		}
		var err error
		items, err = e.step(items, s)
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// loopStart resolves where the loop segment begins: after the named as()
// step, or BackN pipes back.
func loopStart(steps []gremlin.Step, loopIdx int, s *gremlin.Step) (int, error) {
	if s.Name != "" {
		for j := loopIdx - 1; j >= 0; j-- {
			if steps[j].Kind == gremlin.StepAs && steps[j].Name == s.Name {
				return j + 1, nil
			}
		}
		return 0, fmt.Errorf("interp: loop(%q) has no matching as(%q)", s.Name, s.Name)
	}
	start := loopIdx - s.BackN
	if start < 0 {
		return 0, fmt.Errorf("interp: loop(%d) reaches before the pipeline start", s.BackN)
	}
	return start, nil
}

// runLoop re-runs the segment until every item has completed max passes.
// Items enter with their current loop counter; emission happens when the
// counter reaches max (TinkerPop: while the closure `it.loops < max`
// holds, the element re-enters the segment).
func (e *env) runLoop(items []Item, segment []gremlin.Step, max int) ([]Item, error) {
	if max <= 0 {
		return nil, fmt.Errorf("interp: loop bound must be positive")
	}
	// Items have already traversed the segment once when they reach the
	// loop pipe.
	cur := make([]Item, len(items))
	copy(cur, items)
	for i := range cur {
		cur[i].Loops = 1
	}
	var done []Item
	const hardCap = 1 << 22 // guard against exponential expansion
	for len(cur) > 0 {
		var reenter []Item
		for _, it := range cur {
			if it.Loops < max {
				reenter = append(reenter, it)
			} else {
				done = append(done, it)
			}
		}
		if len(reenter) == 0 {
			break
		}
		next, err := e.run(reenter, segment)
		if err != nil {
			return nil, err
		}
		if len(next)+len(done) > hardCap {
			return nil, fmt.Errorf("interp: loop expansion exceeded %d items", hardCap)
		}
		// Items derived inside the segment inherit their source's counter
		// (extend copies Loops); one more pass is complete for all of them.
		for i := range next {
			next[i].Loops++
		}
		cur = next
	}
	return done, nil
}

// extend derives a new element item from a parent.
func extend(parent Item, kind ItemKind, id int64) Item {
	path := make([]Item, 0, len(parent.Path)+1)
	path = append(path, parent.Path...)
	stripped := parent
	stripped.Path = nil
	path = append(path, stripped)
	return Item{Kind: kind, ID: id, Path: path, Marks: parent.Marks, Loops: parent.Loops}
}

// extendVal derives a value item.
func extendVal(parent Item, val any) Item {
	it := extend(parent, ValueItem, 0)
	it.Val = val
	return it
}

func (e *env) step(items []Item, s *gremlin.Step) ([]Item, error) {
	switch s.Kind {
	case gremlin.StepOut:
		return e.traverse(items, s.Labels, true, false, false)
	case gremlin.StepIn:
		return e.traverse(items, s.Labels, false, true, false)
	case gremlin.StepBoth:
		return e.traverse(items, s.Labels, true, true, false)
	case gremlin.StepOutE:
		return e.traverse(items, s.Labels, true, false, true)
	case gremlin.StepInE:
		return e.traverse(items, s.Labels, false, true, true)
	case gremlin.StepBothE:
		return e.traverse(items, s.Labels, true, true, true)
	case gremlin.StepOutV, gremlin.StepInV, gremlin.StepBothV:
		return e.edgeEndpoints(items, s.Kind)
	case gremlin.StepID:
		out := make([]Item, 0, len(items))
		for _, it := range items {
			if it.Kind == ValueItem {
				continue
			}
			out = append(out, extendVal(it, it.ID))
		}
		return out, nil
	case gremlin.StepLabel:
		var out []Item
		for _, it := range items {
			if it.Kind != EdgeItem {
				continue
			}
			rec, err := e.g.Edge(it.ID)
			if err != nil {
				continue
			}
			out = append(out, extendVal(it, rec.Label))
		}
		return out, nil
	case gremlin.StepProperty:
		var out []Item
		for _, it := range items {
			attrs, err := e.attrsOf(it)
			if err != nil {
				continue
			}
			if v, ok := attrs[s.Key]; ok {
				out = append(out, extendVal(it, v))
			}
		}
		return out, nil
	case gremlin.StepPath:
		out := make([]Item, len(items))
		for i, it := range items {
			p := make([]any, 0, len(it.Path)+1)
			for _, h := range it.Path {
				p = append(p, pathEntry(h))
			}
			p = append(p, pathEntry(it))
			out[i] = extendVal(it, p)
		}
		return out, nil
	case gremlin.StepCount:
		return []Item{{Kind: ValueItem, Val: int64(len(items))}}, nil
	case gremlin.StepHas:
		return e.filterItems(items, s.Key, s.Op, s.Value, false)
	case gremlin.StepHasNot:
		return e.filterItems(items, s.Key, "", nil, true)
	case gremlin.StepFilter:
		// Simple closures reduced to Key/Op/Value keep the original
		// attribute-lookup semantics; general closures evaluate the
		// expression per item.
		if s.Key == "" && s.FilterExpr != nil {
			return e.exprFilter(items, s.FilterExpr), nil
		}
		return e.filterItems(items, s.Key, s.Op, s.Value, false)
	case gremlin.StepOrder:
		return e.orderItems(items, s.KeyExpr), nil
	case gremlin.StepGroupBy:
		return e.groupItems(items, s.KeyExpr, s.ValueExpr), nil
	case gremlin.StepGroupCount:
		return e.groupItems(items, s.KeyExpr, nil), nil
	case gremlin.StepInterval:
		var out []Item
		for _, it := range items {
			attrs, err := e.attrsOf(it)
			if err != nil {
				continue
			}
			v, ok := attrs[s.Key]
			if !ok {
				continue
			}
			// TinkerPop interval is [lo, hi).
			if compareVals(v, s.Lo) >= 0 && compareVals(v, s.Hi) < 0 {
				out = append(out, it)
			}
		}
		return out, nil
	case gremlin.StepDedup:
		seen := map[string]bool{}
		var out []Item
		for _, it := range items {
			k := it.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, it)
			}
		}
		return out, nil
	case gremlin.StepRange:
		lo := int(s.Lo.(int64))
		hi := int(s.Hi.(int64))
		if lo < 0 {
			lo = 0
		}
		if hi >= len(items) {
			hi = len(items) - 1
		}
		if lo > hi {
			return nil, nil
		}
		return items[lo : hi+1], nil
	case gremlin.StepSimplePath:
		var out []Item
		for _, it := range items {
			seen := map[string]bool{}
			simple := true
			for _, h := range append(append([]Item(nil), it.Path...), it) {
				k := h.Key()
				if seen[k] {
					simple = false
					break
				}
				seen[k] = true
			}
			if simple {
				out = append(out, it)
			}
		}
		return out, nil
	case gremlin.StepExcept, gremlin.StepRetain:
		set := e.aggregates[s.Name]
		var out []Item
		for _, it := range items {
			in := set[it.Key()]
			if (s.Kind == gremlin.StepExcept) != in {
				out = append(out, it)
			}
		}
		return out, nil
	case gremlin.StepBack:
		var out []Item
		for _, it := range items {
			var target Item
			var ok bool
			if s.Name != "" {
				target, ok = it.Marks[s.Name]
			} else {
				full := append(append([]Item(nil), it.Path...), it)
				idx := len(full) - 1 - s.BackN
				if idx >= 0 {
					target, ok = full[idx], true
				}
			}
			if !ok {
				continue
			}
			restored := target
			restored.Marks = it.Marks
			restored.Loops = it.Loops
			out = append(out, restored)
		}
		return out, nil
	case gremlin.StepAs:
		out := make([]Item, len(items))
		for i, it := range items {
			marks := make(map[string]Item, len(it.Marks)+1)
			for k, v := range it.Marks {
				marks[k] = v
			}
			self := it
			self.Marks = nil
			marks[s.Name] = self
			it.Marks = marks
			out[i] = it
		}
		return out, nil
	case gremlin.StepAggregate:
		set := e.aggregates[s.Name]
		if set == nil {
			set = map[string]bool{}
			e.aggregates[s.Name] = set
		}
		for _, it := range items {
			set[it.Key()] = true
		}
		return items, nil
	case gremlin.StepTable, gremlin.StepIterate:
		// Side-effect pipes act as identity (paper Section 4.4).
		return items, nil
	case gremlin.StepIfThenElse:
		var out []Item
		for _, it := range items {
			var takeThen bool
			if s.Test == nil && s.TestExpr != nil {
				takeThen = expr.Truthy(e.evalClosure(s.TestExpr, it))
			} else {
				attrs, err := e.attrsOf(it)
				if err != nil {
					attrs = nil
				}
				takeThen = evalPredicate(attrs, s.Test)
			}
			branch := s.Else
			if takeThen {
				branch = s.Then
			}
			res, err := e.run([]Item{it}, branch)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("interp: unsupported pipe %v", s.Kind)
	}
}

func (e *env) attrsOf(it Item) (map[string]any, error) {
	switch it.Kind {
	case VertexItem:
		return e.g.VertexAttrs(it.ID)
	case EdgeItem:
		return e.g.EdgeAttrs(it.ID)
	default:
		return nil, fmt.Errorf("interp: values have no attributes")
	}
}

func (e *env) traverse(items []Item, labels []string, wantOut, wantIn, asEdges bool) ([]Item, error) {
	var out []Item
	for _, it := range items {
		if it.Kind != VertexItem {
			continue
		}
		if wantOut {
			recs, err := e.g.OutEdges(it.ID, labels...)
			if err != nil {
				continue // vertex vanished concurrently
			}
			for _, rec := range recs {
				if asEdges {
					out = append(out, extend(it, EdgeItem, rec.ID))
				} else {
					out = append(out, extend(it, VertexItem, rec.In))
				}
			}
		}
		if wantIn {
			recs, err := e.g.InEdges(it.ID, labels...)
			if err != nil {
				continue
			}
			for _, rec := range recs {
				if asEdges {
					out = append(out, extend(it, EdgeItem, rec.ID))
				} else {
					out = append(out, extend(it, VertexItem, rec.Out))
				}
			}
		}
	}
	return out, nil
}

func (e *env) edgeEndpoints(items []Item, kind gremlin.StepKind) ([]Item, error) {
	var out []Item
	for _, it := range items {
		if it.Kind != EdgeItem {
			continue
		}
		rec, err := e.g.Edge(it.ID)
		if err != nil {
			continue
		}
		switch kind {
		case gremlin.StepOutV:
			out = append(out, extend(it, VertexItem, rec.Out))
		case gremlin.StepInV:
			out = append(out, extend(it, VertexItem, rec.In))
		default: // bothV
			out = append(out, extend(it, VertexItem, rec.Out))
			out = append(out, extend(it, VertexItem, rec.In))
		}
	}
	return out, nil
}

func (e *env) filterItems(items []Item, key string, op gremlin.CmpOp, val any, wantAbsent bool) ([]Item, error) {
	var out []Item
	for _, it := range items {
		attrs, err := e.attrsOf(it)
		if err != nil {
			continue
		}
		v, present := attrs[key]
		// On edges, has/filter against "label" resolves the edge label —
		// the translator renders these against the LBL column. hasNot
		// (wantAbsent) keeps raw attribute semantics, mirroring the SQL
		// template's JSON_VAL(ATTR, 'label') IS NULL.
		if !wantAbsent && key == "label" && it.Kind == EdgeItem {
			if rec, err := e.g.Edge(it.ID); err == nil {
				v, present = rec.Label, true
			}
		}
		if wantAbsent {
			if !present {
				out = append(out, it)
			}
			continue
		}
		if !present {
			continue
		}
		if op == "" || cmpMatches(op, compareVals(v, val)) {
			out = append(out, it)
		}
	}
	return out, nil
}

func evalPredicate(attrs map[string]any, p *gremlin.Predicate) bool {
	if p == nil {
		return false
	}
	v, ok := attrs[p.Key]
	if !ok {
		return false
	}
	if p.Op == "" {
		return true
	}
	return cmpMatches(p.Op, compareVals(v, p.Value))
}

func cmpMatches(op gremlin.CmpOp, c int) bool {
	switch op {
	case gremlin.OpEq:
		return c == 0
	case gremlin.OpNeq:
		return c != 0
	case gremlin.OpLt:
		return c < 0
	case gremlin.OpLte:
		return c <= 0
	case gremlin.OpGt:
		return c > 0
	case gremlin.OpGte:
		return c >= 0
	default:
		return false
	}
}

// compareVals orders attribute values: numbers numerically (int/float
// interchangeable), strings lexically, otherwise by formatted text.
func compareVals(a, b any) int {
	af, aNum := toFloat(a)
	bf, bNum := toFloat(b)
	if aNum && bNum {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, aStr := a.(string)
	bs, bStr := b.(string)
	if aStr && bStr {
		switch {
		case as < bs:
			return -1
		case as > bs:
			return 1
		default:
			return 0
		}
	}
	sa, sb := fmt.Sprint(a), fmt.Sprint(b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	default:
		return 0
	}
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case float32:
		return float64(x), true
	default:
		return 0, false
	}
}
