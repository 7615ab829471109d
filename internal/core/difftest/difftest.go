// Package difftest is a differential testing harness for the Gremlin
// execution paths: it generates random property graphs and random
// Gremlin pipelines, runs every pipeline through the translate-to-SQL
// path and through the naive reference interpreter (gremlin/interp),
// and requires identical result multisets. The two implementations
// share essentially no code, so any divergence is a real bug in one of
// them.
//
// The shrunk corpus runs in ordinary `go test`; the full corpus is
// behind `-tags slow`.
package difftest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
)

// ErrDivergence marks a genuine disagreement between the SQL path and
// the interpreter oracle (as opposed to harness failures like a graph
// that would not load). Run uses it to drive shrinking: a candidate
// reproduces the bug iff its Check error wraps ErrDivergence.
var ErrDivergence = errors.New("difftest: divergence")

// edge labels and the attribute domains the generators draw from. The
// label pool is deliberately tight so random walks collide and multi-hop
// pipelines return non-empty results.
var (
	edgeLabels = []string{"a", "b", "c", "d"}
	nameVals   = []string{"n0", "n1", "n2", "n3", "n4"}
)

// GenGraph builds a random property graph: nV in [10, 40), ~3x edges,
// every vertex carries an int attribute "k" and optionally a string
// "name", every edge a float "w". Self loops and parallel edges are
// allowed (MemGraph permitting).
func GenGraph(rng *rand.Rand) *blueprints.MemGraph {
	g := blueprints.NewMemGraph()
	nV := 10 + rng.Intn(30)
	for i := 0; i < nV; i++ {
		attrs := map[string]any{"k": int64(rng.Intn(5))}
		if rng.Intn(2) == 0 {
			attrs["name"] = nameVals[rng.Intn(len(nameVals))]
		}
		if err := g.AddVertex(int64(i), attrs); err != nil {
			panic(err) // ids are unique by construction
		}
	}
	nE := nV * 3
	for i := 0; i < nE; i++ {
		attrs := map[string]any{"w": float64(rng.Intn(100)) / 100}
		_ = g.AddEdge(int64(1000+i), int64(rng.Intn(nV)), int64(rng.Intn(nV)),
			edgeLabels[rng.Intn(len(edgeLabels))], attrs)
	}
	return g
}

// genVertexExpr emits a random closure expression over a vertex item,
// bounded at the given combinator depth. Divisors are whatever the data
// holds: it.k is 0..4, so zero; it.name is a string or absent, so a value
// that coerces to zero or NULL; a fractional literal truncates to zero
// under %. All of them make the quotient NULL on both paths. Negating
// it.k reaches SQL's unary minus, and negating it.name, a string or
// absent, is NULL on both paths — under &&, || and !, and wherever a
// plan evaluates it.
func genVertexExpr(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(3) == 0 {
		l := genVertexExpr(rng, depth-1)
		r := genVertexExpr(rng, depth-1)
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%s && %s", l, r)
		case 1:
			return fmt.Sprintf("%s || %s", l, r)
		case 2:
			return fmt.Sprintf("!(%s)", l)
		default:
			return fmt.Sprintf("!(%s) && %s", l, r)
		}
	}
	switch rng.Intn(13) {
	case 0:
		return fmt.Sprintf("it.k %s %d", pick(rng, "<", "<=", ">", ">=", "==", "!="), rng.Intn(5))
	case 1:
		return fmt.Sprintf("it.k %s %d %s %d", pick(rng, "+", "-"), 1+rng.Intn(3),
			pick(rng, "<", ">", "=="), rng.Intn(6))
	case 2:
		return fmt.Sprintf("it.k * %d >= %d", 1+rng.Intn(3), rng.Intn(8))
	case 3:
		return fmt.Sprintf("it.k %s %d == %d", pick(rng, "/", "%"), 2+rng.Intn(2), rng.Intn(3))
	case 4:
		return fmt.Sprintf("%d %s it.k >= %d", 2+rng.Intn(8), pick(rng, "/", "%"), rng.Intn(3))
	case 5:
		return fmt.Sprintf("it.name %s '%s'", pick(rng, "==", "!=", "<", ">="),
			nameVals[rng.Intn(len(nameVals))])
	case 6:
		return fmt.Sprintf("it.name.contains('%s')", pick(rng, "n", "0", "1", "3"))
	case 7:
		return fmt.Sprintf("it.name.startsWith('n%d')", rng.Intn(5))
	case 8:
		return fmt.Sprintf("it.k %s it.name %s 0", pick(rng, "/", "%"), pick(rng, "==", "!="))
	case 9:
		return fmt.Sprintf("it.k %% %s == 0", pick(rng, "0.5", "1.5"))
	case 10:
		return fmt.Sprintf("-it.k %s %d", pick(rng, "<", ">=", "=="), -rng.Intn(5))
	case 11:
		return fmt.Sprintf("-it.name %s 0", pick(rng, "<", "=="))
	default:
		return fmt.Sprintf("it.id %% %d == %d", 2+rng.Intn(3), rng.Intn(2))
	}
}

// genEdgeExpr is genVertexExpr for edge items (it.w float, it.label).
// it.w is in [0, 0.99]: sometimes a zero divisor, always one under %.
func genEdgeExpr(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(3) == 0 {
		l := genEdgeExpr(rng, depth-1)
		r := genEdgeExpr(rng, depth-1)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("%s && %s", l, r)
		}
		return fmt.Sprintf("%s || !(%s)", l, r)
	}
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf("it.w %s 0.%d", pick(rng, "<", "<=", ">", ">="), 1+rng.Intn(9))
	case 1:
		return fmt.Sprintf("it.w * 2.0 %s 1.0", pick(rng, "<", ">"))
	case 2:
		return fmt.Sprintf("it.label %s '%s'", pick(rng, "==", "!="), edgeLabels[rng.Intn(len(edgeLabels))])
	case 3:
		return fmt.Sprintf("it.label.contains('%s')", edgeLabels[rng.Intn(len(edgeLabels))])
	case 4:
		return fmt.Sprintf("it.label.startsWith('%s')", edgeLabels[rng.Intn(len(edgeLabels))])
	case 5:
		return fmt.Sprintf("%d %% it.w == 0", 1+rng.Intn(5))
	default:
		return fmt.Sprintf("0.5 / it.w %s 1.0", pick(rng, ">", "<="))
	}
}

// GenPipeline emits one random Gremlin pipeline drawn from the step
// grammar both execution paths support: vertex/edge sources, labeled
// hops, edge hops with endpoint steps, attribute predicates, general
// closures (filter/ifThenElse/order/groupBy/groupCount), aggregates
// with except/retain, dedup/simplePath, marks with back, bounded loops
// with closure bounds, and path/range/count/property terminals.
func GenPipeline(rng *rand.Rand, numVertices int) string {
	q := "g"
	edgeCtx := false
	switch rng.Intn(20) {
	case 0, 1, 2, 3, 4, 5, 6, 7:
		q += ".V"
	case 8, 9, 10, 11, 12, 13:
		q += fmt.Sprintf(".V(%d)", rng.Intn(numVertices))
	case 14, 15:
		q += fmt.Sprintf(".V(%d, %d)", rng.Intn(numVertices), rng.Intn(numVertices))
	case 16, 17:
		q += ".E"
		edgeCtx = true
	default:
		q += fmt.Sprintf(".V('name', '%s')", nameVals[rng.Intn(len(nameVals))])
	}
	steps := 1 + rng.Intn(4)
	deduped := false // dedup() before a path-dependent step is rejected by the translator
	for i := 0; i < steps; i++ {
		if edgeCtx {
			switch rng.Intn(7) {
			case 0:
				q += ".inV"
				edgeCtx = false
			case 1:
				q += ".outV"
				edgeCtx = false
			case 2:
				q += ".bothV"
				edgeCtx = false
			case 3:
				q += fmt.Sprintf(".filter{%s}", genEdgeExpr(rng, 1+rng.Intn(2)))
			case 4:
				q += ".order{it.w}"
				deduped = true // like dedup, order refuses later path steps
			case 5:
				key := pick(rng, "it.label", "it.w")
				if rng.Intn(2) == 0 {
					q += fmt.Sprintf(".groupCount{%s}", key)
				} else {
					q += fmt.Sprintf(".groupBy{%s}{%s}", key, pick(rng, "it.w", "it.label", "it.id"))
				}
				if rng.Intn(2) == 0 {
					q += ".count()"
				}
				return q
			default:
				q += fmt.Sprintf(".has('w', T.%s, 0.%d)", pick(rng, "gt", "lt"), 1+rng.Intn(9))
			}
			continue
		}
		switch rng.Intn(19) {
		case 0, 1:
			q += "." + pick(rng, "out", "in", "both") + labelArgs(rng)
		case 2:
			q += "." + pick(rng, "outE", "inE", "bothE") + labelArgs(rng)
			edgeCtx = true
		case 3:
			q += fmt.Sprintf(".has('k', %d)", rng.Intn(5))
		case 4:
			q += fmt.Sprintf(".has('k', T.%s, %d)", pick(rng, "gt", "lt", "neq"), rng.Intn(5))
		case 5:
			q += fmt.Sprintf(".has('name', '%s')", nameVals[rng.Intn(len(nameVals))])
		case 6:
			q += "." + pick(rng, "has", "hasNot") + "('name')"
		case 7:
			q += fmt.Sprintf(".filter{it.k %s %d}", pick(rng, "<=", ">", "=="), rng.Intn(5))
		case 8, 9:
			q += fmt.Sprintf(".filter{%s}", genVertexExpr(rng, 1+rng.Intn(2)))
		case 10:
			q += ".dedup()"
			deduped = true
		case 11:
			if deduped {
				q += ".dedup()"
				deduped = true
				continue
			}
			q += ".out.in.simplePath"
		case 12:
			mark := fmt.Sprintf("s%d", i)
			bound := pick(rng,
				fmt.Sprintf("it.loops < %d", 2+rng.Intn(2)),
				fmt.Sprintf("it.loops <= %d", 1+rng.Intn(2)),
				fmt.Sprintf("it.loops + 1 < %d", 3+rng.Intn(2)))
			q += fmt.Sprintf(".as('%s').out%s.loop('%s'){%s}", mark, labelArgs(rng), mark, bound)
		case 13:
			q += fmt.Sprintf(".ifThenElse{%s}{it.out%s}{it.in%s}",
				genVertexExpr(rng, 1), labelArgs(rng), labelArgs(rng))
		case 14:
			name := fmt.Sprintf("ag%d", i)
			q += fmt.Sprintf(".aggregate('%s').out%s.%s('%s')",
				name, labelArgs(rng), pick(rng, "except", "retain"), name)
		case 15:
			if rng.Intn(2) == 0 {
				q += ".order()"
			} else {
				q += fmt.Sprintf(".order{%s}", genVertexExpr(rng, 1))
			}
			deduped = true // like dedup, order refuses later path steps
		case 16:
			key := pick(rng, "it.k", "it.name", "it.id % 3")
			if rng.Intn(2) == 0 {
				q += fmt.Sprintf(".groupCount{%s}", key)
			} else {
				q += fmt.Sprintf(".groupBy{%s}{%s}", key, pick(rng, "it.k", "it.name", "it.id"))
			}
			if rng.Intn(2) == 0 {
				q += ".count()"
			}
			return q
		case 17:
			if deduped {
				continue
			}
			mark := fmt.Sprintf("b%d", i)
			q += fmt.Sprintf(".as('%s').out%s.filter{%s}.back('%s')", mark, labelArgs(rng), genVertexExpr(rng, 1), mark)
		default:
			q += "." + pick(rng, "out", "in") + labelArgs(rng)
		}
	}
	switch rng.Intn(6) {
	case 0, 1:
		q += ".count()"
	case 2:
		// Pagination: deterministic on both paths only after a sort.
		if edgeCtx {
			q += ".order{it.w}"
		} else if rng.Intn(2) == 0 {
			q += ".order()"
		} else {
			q += fmt.Sprintf(".order{%s}", pick(rng, "it.k", "it.name"))
		}
		q += rangeArgs(rng, 3)
	case 3:
		// An unordered cut has no deterministic contents, but its size is
		// comparable.
		q += rangeArgs(rng, 2) + ".count()"
	case 4:
		if !edgeCtx && !deduped {
			q += ".path"
		}
	case 5:
		if edgeCtx {
			q += ".w"
		} else {
			q += "." + pick(rng, "k", "name")
		}
	}
	return q
}

func pick(rng *rand.Rand, opts ...string) string { return opts[rng.Intn(len(opts))] }

// rangeArgs draws a range step: mostly a window of a few rows from
// position 0, 1 or 2, its hi at least minHi; one draw in four is a bound
// the translation must clamp rather than overflow — a negative lo, a lo
// past hi, or a hi of math.MaxInt64.
func rangeArgs(rng *rand.Rand, minHi int) string {
	lo, hi := int64(rng.Intn(3)), int64(minHi+rng.Intn(8))
	switch rng.Intn(12) {
	case 0:
		lo = -1 - int64(rng.Intn(5))
	case 1:
		lo = hi + 1 + int64(rng.Intn(3))
	case 2:
		hi = math.MaxInt64
	}
	return fmt.Sprintf(".range(%d, %d)", lo, hi)
}

func labelArgs(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf("('%s')", edgeLabels[rng.Intn(len(edgeLabels))])
	default:
		return fmt.Sprintf("('%s', '%s')",
			edgeLabels[rng.Intn(len(edgeLabels))], edgeLabels[rng.Intn(len(edgeLabels))])
	}
}

// Check runs one pipeline through both paths and returns an error on
// any divergence: a one-sided execution error, or differing results.
// When the pipeline ends in a sort (order/groupBy/groupCount followed
// only by order-preserving steps) the comparison is ordered and
// element-wise; otherwise it is a multiset comparison. Both paths
// rejecting the pipeline counts as agreement — random generation can
// produce pipelines neither implementation accepts (e.g. dedup before
// path), and what matters is that they refuse together.
func Check(s *core.Store, oracle blueprints.Graph, query string, opts core.TranslateOptions) error {
	q, err := gremlin.Parse(query)
	if err != nil {
		return fmt.Errorf("parse %q: %w", query, err)
	}
	want, werr := interp.Eval(oracle, q)
	got, gerr := s.QueryTraced(query, opts, "")
	if werr != nil || gerr != nil {
		if werr != nil && gerr != nil {
			return nil
		}
		if gerr != nil {
			sql := "?"
			if tr, terr := s.Translate(query, opts); terr == nil {
				sql = tr.SQL
			}
			return fmt.Errorf("%w: store failed %q (oracle succeeded): %v\nSQL: %s",
				ErrDivergence, query, gerr, sql)
		}
		return fmt.Errorf("%w: oracle failed %q (store succeeded): %v", ErrDivergence, query, werr)
	}
	return compareResults(query, "store", normalize(want.Values()), got.Values, orderedResult(q.Steps))
}

// orderedResult reports whether the pipeline's output order is pinned
// identically on both paths: it contains a top-level sorting step
// (order, or groupBy/groupCount which emit groups ordered by key) and
// every later step preserves relative order. Everything else is
// compared as a multiset, since SQL row order is an implementation
// detail there.
func orderedResult(steps []gremlin.Step) bool {
	last := -1
	for i := range steps {
		switch steps[i].Kind {
		case gremlin.StepOrder, gremlin.StepGroupBy, gremlin.StepGroupCount:
			last = i
		}
	}
	if last < 0 {
		return false
	}
	for i := last + 1; i < len(steps); i++ {
		switch steps[i].Kind {
		case gremlin.StepRange, gremlin.StepDedup, gremlin.StepCount,
			gremlin.StepTable, gremlin.StepIterate:
		default:
			return false
		}
	}
	return true
}

func compareResults(query, side string, want, got []any, ordered bool) error {
	mode := "multiset"
	if ordered {
		mode = "ordered"
	}
	wc := render(want, ordered)
	gc := render(got, ordered)
	if len(wc) != len(gc) {
		return fmt.Errorf("%w: %q (%s): oracle %d values %v, %s %d values %v",
			ErrDivergence, query, mode, len(wc), wc, side, len(gc), gc)
	}
	for i := range wc {
		if wc[i] != gc[i] {
			return fmt.Errorf("%w: %q (%s) mismatch at %d:\noracle: %v\n%s: %v",
				ErrDivergence, query, mode, i, wc, side, gc)
		}
	}
	return nil
}

// Shrink greedily minimizes a diverging query: it repeatedly drops one
// pipeline step (never the source), keeping any candidate for which
// still() reports the divergence reproduces, until no single-step
// removal does. Candidates are re-rendered through the AST and
// re-parsed, so the result is always a valid query.
func Shrink(query string, still func(string) bool) string {
	for {
		q, err := gremlin.Parse(query)
		if err != nil || len(q.Steps) <= 1 {
			return query
		}
		improved := false
		for i := 1; i < len(q.Steps); i++ {
			steps := make([]gremlin.Step, 0, len(q.Steps)-1)
			steps = append(steps, q.Steps[:i]...)
			steps = append(steps, q.Steps[i+1:]...)
			cand := (&gremlin.Query{Steps: steps}).String()
			if _, err := gremlin.Parse(cand); err != nil {
				continue
			}
			if still(cand) {
				query = cand
				improved = true
				break
			}
		}
		if !improved {
			return query
		}
	}
}

// Arm sets up a freshly loaded store before a corpus runs on it; nil
// leaves the store as it loads.
type Arm func(*core.Store)

// TinyMorsels is the tiny-morsel arm: four workers, morsels that aim at
// eight rows and a fan-out gate of sixteen. The random graphs hold tens
// of rows, far below the default gate, so without it the oracle only
// ever checks the serial executor; with it their pipelines run through
// the morsel-parallel paths — scans and stored heads cut into morsels,
// per-morsel DISTINCT sets and partial aggregates merged in morsel
// order, hash builds and probes on several workers.
func TinyMorsels(s *core.Store) {
	s.SetParallelism(4)
	s.Engine().SetMorselSizesForTesting(8, 16)
}

// load loads g as every corpus does, set up by arm.
func load(g *blueprints.MemGraph, arm Arm) (*core.Store, error) {
	s, err := core.Load(g, core.Options{OutCols: 3, InCols: 3})
	if err == nil && arm != nil {
		arm(s)
	}
	return s, err
}

// Run generates `graphs` random graphs from consecutive seeds starting
// at seed0 and `pipelines` random pipelines per graph, checking each
// against the oracle under every translation mode in opts, on stores set
// up by arm. The first divergence is shrunk to a minimal reproducing
// pipeline and returned with its reproduction seed.
func Run(seed0 int64, graphs, pipelines int, opts []core.TranslateOptions, arm Arm) error {
	for gi := 0; gi < graphs; gi++ {
		seed := seed0 + int64(gi)
		rng := rand.New(rand.NewSource(seed))
		g := GenGraph(rng)
		s, err := load(g, arm)
		if err != nil {
			return fmt.Errorf("seed %d: load: %w", seed, err)
		}
		nV := g.CountVertices()
		for pi := 0; pi < pipelines; pi++ {
			query := GenPipeline(rng, nV)
			for _, o := range opts {
				err := Check(s, g, query, o)
				if err == nil {
					continue
				}
				if errors.Is(err, ErrDivergence) {
					shrunk := Shrink(query, func(cand string) bool {
						return errors.Is(Check(s, g, cand, o), ErrDivergence)
					})
					if shrunk != query {
						err = fmt.Errorf("%w\nshrunk repro %q: %v", err, shrunk, Check(s, g, shrunk, o))
					}
				}
				return fmt.Errorf("seed %d pipeline %d (opts %+v): %w", seed, pi, o, err)
			}
		}
	}
	return nil
}

// CheckSnapshot runs one pipeline against a pinned snapshot and the
// oracle graph frozen at the same logical state, with the same
// both-error and ordered-comparison rules as Check.
func CheckSnapshot(snap *core.Snap, oracle blueprints.Graph, query string) error {
	q, err := gremlin.Parse(query)
	if err != nil {
		return fmt.Errorf("parse %q: %w", query, err)
	}
	want, werr := interp.Eval(oracle, q)
	got, gerr := snap.Query(query)
	if werr != nil || gerr != nil {
		if werr != nil && gerr != nil {
			return nil
		}
		if gerr != nil {
			return fmt.Errorf("%w: snapshot failed %q (oracle succeeded): %v", ErrDivergence, query, gerr)
		}
		return fmt.Errorf("%w: oracle failed %q (snapshot succeeded): %v", ErrDivergence, query, werr)
	}
	return compareResults(query, "snapshot", normalize(want.Values()), got.Values, orderedResult(q.Steps))
}

// canonical renders a multiset of values order-independently.
func canonical(vals []any) []string {
	return render(vals, false)
}

// render stringifies values for comparison; unless ordered, the result
// is sorted so comparisons are order-independent.
func render(vals []any, ordered bool) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%T:%v", v, v)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// normalize converts interpreter outputs to the store's value domain
// (int64 ids, nested []any paths, and integral attribute numbers as
// int64, which is how the store's JSON documents keep them).
func normalize(vals []any) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = normalizeVal(v)
	}
	return out
}

func normalizeVal(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return int64(x)
		}
		return x
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalizeVal(e)
		}
		return out
	default:
		return v
	}
}
