package interp

import (
	"sort"

	"sqlgraph/internal/gremlin/expr"
	"sqlgraph/internal/rel"
)

// itemEnv adapts one pipeline item to the closure evaluator's Env. The
// semantics mirror the translator's SQL rendering: `it` and `it.id` are
// the element id (the projected VAL), properties resolve through the
// attribute table, and on edges the property "label" is the edge label.
type itemEnv struct {
	e      *env
	it     Item
	attrs  map[string]any
	loaded bool
}

func (ie *itemEnv) Prop(name string) rel.Value {
	if ie.it.Kind == EdgeItem && name == "label" {
		rec, err := ie.e.g.Edge(ie.it.ID)
		if err != nil {
			return rel.Null
		}
		return rel.NewString(rec.Label)
	}
	if ie.it.Kind == ValueItem {
		return rel.Null
	}
	if !ie.loaded {
		ie.attrs, _ = ie.e.attrsOf(ie.it)
		ie.loaded = true
	}
	if v, ok := ie.attrs[name]; ok {
		return rel.FromAny(v)
	}
	return rel.Null
}

func (ie *itemEnv) ID() rel.Value {
	if ie.it.Kind == ValueItem {
		return rel.Null
	}
	return rel.NewInt(ie.it.ID)
}

func (ie *itemEnv) Loops() rel.Value { return rel.NewInt(int64(ie.it.Loops)) }

func (ie *itemEnv) Self() rel.Value {
	if ie.it.Kind == ValueItem {
		return rel.FromAny(ie.it.Val)
	}
	return rel.NewInt(ie.it.ID)
}

func (e *env) evalClosure(n expr.Node, it Item) rel.Value {
	return expr.Eval(n, &itemEnv{e: e, it: it})
}

// exprFilter keeps items whose closure evaluates truthy (NULL drops the
// item, matching SQL WHERE).
func (e *env) exprFilter(items []Item, n expr.Node) []Item {
	var out []Item
	for _, it := range items {
		if expr.Truthy(e.evalClosure(n, it)) {
			out = append(out, it)
		}
	}
	return out
}

// orderItems sorts items by (closure key, item value) ascending with
// rel.Compare — the same total order the translator's ORDER BY OKEY, VAL
// template produces. A nil key expression sorts by the item value alone
// (order()).
func (e *env) orderItems(items []Item, keyExpr expr.Node) []Item {
	type keyed struct {
		it  Item
		key rel.Value
		val rel.Value
	}
	ks := make([]keyed, len(items))
	for i, it := range items {
		ie := &itemEnv{e: e, it: it}
		k := keyed{it: it, val: ie.Self()}
		k.key = k.val
		if keyExpr != nil {
			k.key = expr.Eval(keyExpr, ie)
		}
		ks[i] = k
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if c := rel.Compare(ks[i].key, ks[j].key); c != 0 {
			return c < 0
		}
		return rel.Compare(ks[i].val, ks[j].val) < 0
	})
	out := make([]Item, len(ks))
	for i, k := range ks {
		out[i] = k.it
	}
	return out
}

// group is one accumulating groupBy/groupCount bucket.
type group struct {
	key   rel.Value
	count int64
	vals  []rel.Value
}

// groupItems implements groupBy (valExpr non-nil) and groupCount
// (valExpr nil). Output mirrors the translator's templates exactly:
// groupCount emits one [key, count] list per group; groupBy emits
// [key, v1..vn] with the non-null values sorted ascending (LISTAGG);
// groups are ordered by their full output list (ORDER BY VAL).
func (e *env) groupItems(items []Item, keyExpr, valExpr expr.Node) []Item {
	var order []string
	groups := map[string]*group{}
	for _, it := range items {
		ie := &itemEnv{e: e, it: it}
		kv := expr.Eval(keyExpr, ie)
		gk := kv.Key()
		g := groups[gk]
		if g == nil {
			g = &group{key: kv}
			groups[gk] = g
			order = append(order, gk)
		}
		g.count++
		if valExpr != nil {
			if vv := expr.Eval(valExpr, ie); !vv.IsNull() {
				g.vals = append(g.vals, vv)
			}
		}
	}
	lists := make([]rel.Value, 0, len(order))
	for _, gk := range order {
		g := groups[gk]
		elems := []rel.Value{g.key}
		if valExpr == nil {
			elems = append(elems, rel.NewInt(g.count))
		} else {
			sort.SliceStable(g.vals, func(i, j int) bool { return rel.Compare(g.vals[i], g.vals[j]) < 0 })
			elems = append(elems, g.vals...)
		}
		lists = append(lists, rel.NewList(elems))
	}
	sort.SliceStable(lists, func(i, j int) bool { return rel.Compare(lists[i], lists[j]) < 0 })
	out := make([]Item, len(lists))
	for i, l := range lists {
		out[i] = Item{Kind: ValueItem, Val: expr.ToAny(l)}
	}
	return out
}
