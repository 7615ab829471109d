package difftest

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
)

// allModes exercises the default translation plus both forced adjacency
// representations — the differential property must hold in every mode.
var allModes = []core.TranslateOptions{
	{},
	{ForceEA: true},
	{ForceHashTables: true},
}

// TestDifferentialShrunk is the always-on corpus: a handful of random
// graphs, a few dozen random pipelines each, against the interpreter
// oracle. The full corpus runs with -tags slow.
func TestDifferentialShrunk(t *testing.T) {
	if err := Run(1, 6, 40, allModes, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialShapes is the "same shape, different literals,
// interleaved" arm: one statement per query shape serves every
// instantiation of a pipeline — id lists of one, two and five hundred
// ids, comparison values that change and cross between int and string —
// and each answer must still be the interpreter's. The full corpus runs
// with -tags slow.
func TestDifferentialShapes(t *testing.T) {
	if err := RunShapes(300, 5, 30, allModes, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialOrderedDedup pins the order guard of DISTINCT: the
// store emits a dedup() over order-free ids in ascending id order, and
// must not do so after an order, whose result is compared element by
// element. Every case on several graphs, in every storage mode.
func TestDifferentialOrderedDedup(t *testing.T) {
	cases := []string{
		"g.V.order{it.id % 4 == 0}.dedup()",
		"g.V.order{it.name}.dedup()",
		"g.V.order().dedup()",
		"g.V.out.dedup().order()",
	}
	for _, query := range cases {
		if !orderedResult(mustShape(t, query).Steps) {
			t.Fatalf("%s would be compared as a multiset", query)
		}
	}
	for seed := int64(118); seed < 122; seed++ {
		g := GenGraph(rand.New(rand.NewSource(seed)))
		s, err := core.Load(g, core.Options{OutCols: 3, InCols: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range cases {
			for _, opts := range allModes {
				if err := Check(s, g, query, opts); err != nil {
					t.Errorf("seed %d %+v: %v", seed, opts, err)
				}
			}
		}
		s.Close()
	}
}

// TestRedrawKeepsTheShape: drawing literals again changes a pipeline's
// text, not its shape, unless a value crossed kinds — the arm above would
// otherwise test nothing about shared statements.
func TestRedrawKeepsTheShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sameShape, changed, total := 0, 0, 0
	for i := 0; i < 200; i++ {
		query := GenPipeline(rng, 20)
		for _, n := range idListLengths {
			redrawn, err := Redraw(rng, query, 20, n)
			if err != nil {
				t.Fatalf("Redraw(%q): %v", query, err)
			}
			a, b := mustShape(t, query), mustShape(t, redrawn)
			total++
			if a.Shape == b.Shape {
				sameShape++
			}
			if a.String() != b.String() {
				changed++
			}
			if len(a.Args) != len(b.Args) {
				t.Fatalf("redraw changed the argument count: %q -> %q", query, redrawn)
			}
			for j := range b.Args {
				if ids := b.Args[j].IDs; ids != nil && len(ids) != n {
					t.Fatalf("redraw to %d ids gave %d: %q", n, len(ids), redrawn)
				}
			}
		}
	}
	if sameShape < total/2 || changed < total/3 {
		t.Fatalf("of %d redraws %d kept the shape and %d changed the text", total, sameShape, changed)
	}
}

func mustShape(t *testing.T, query string) *gremlin.Query {
	t.Helper()
	q, err := gremlin.Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	return q
}

// TestGeneratorCoversNewConstructs pins the generator's reach: across a
// fixed-seed sample it must emit every new pipe and every closure
// operator, every kind of divisor, and a dividing closure ahead of each
// pipe that needs path bookkeeping, marks or branches. Without this, a
// generator regression could silently stop exercising a construct and
// the differential property would hold vacuously.
func TestGeneratorCoversNewConstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	for i := 0; i < 600; i++ {
		sb.WriteString(GenPipeline(rng, 20))
		sb.WriteByte('\n')
	}
	corpus := sb.String()
	for _, want := range []string{
		".filter{", ".order()", ".order{", ".groupCount{", ".groupBy{",
		".ifThenElse{", ".loop(", ".aggregate(", ".range(", ".dedup()",
		".simplePath", ".count()", ".back(", ".path",
		// closure operators and builtins
		" && ", " || ", "!(", " + ", " - ", " * ", " / ", " % ",
		" < ", " <= ", " > ", " >= ", " == ", " != ",
		".contains(", ".startsWith(",
		// it projections
		"it.k", "it.name", "it.id", "it.w", "it.label", "it.loops",
		// divisors: an int that may be zero, a string or absent attribute,
		// a fractional literal and a fractional attribute under %
		" / it.k", " % it.k", " / it.name", " % it.name", " % 0.5", " / it.w", " % it.w",
	} {
		if !strings.Contains(corpus, want) {
			t.Errorf("600-pipeline sample never emitted %q", want)
		}
	}
	// A negated string inside a composed closure: which rows a plan
	// evaluates it on is the plan's choice.
	if !regexp.MustCompile(`(&&|\|\||!\()[^{}]*-it\.name|-it\.name[^{}]*(&&|\|\|)`).MatchString(corpus) {
		t.Error("600-pipeline sample never negated it.name inside a composed closure")
	}
	for _, after := range []string{`\.path`, `\.simplePath`, `\.back\(`, `\.loop\(`, `\.ifThenElse\{`} {
		if !regexp.MustCompile(`(?m)^.* [/%] it\.(k|name|w)\b.*` + after).MatchString(corpus) {
			t.Errorf("600-pipeline sample never put a data-dependent divisor before %s", after)
		}
	}

	// Every form the translator folds into the source scan, over VA and
	// EA, in every storage mode: the differential property checks them
	// only if the sample translates to them.
	s, err := core.Load(GenGraph(rand.New(rand.NewSource(42))), core.Options{OutCols: 3, InCols: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fused := []struct {
		name string
		re   *regexp.Regexp
	}{
		{"closure filter on VA", regexp.MustCompile(`^SELECT VID AS VAL FROM VA WHERE (.* AND )?(\(|STARTSWITH\(|CONTAINS\()`)},
		{"closure filter on EA", regexp.MustCompile(`^SELECT EID AS VAL FROM EA WHERE (.* AND )?(\(|STARTSWITH\(|CONTAINS\()`)},
		{"order{} on VA", regexp.MustCompile(`^SELECT VID AS VAL, .* AS OKEY FROM VA WHERE `)},
		{"order{} on EA", regexp.MustCompile(`^SELECT EID AS VAL, .* AS OKEY FROM EA`)},
		{"groupCount on VA", regexp.MustCompile(`^SELECT \(LIST\(\) \|\| .* \|\| COUNT\(\*\)\) AS VAL FROM VA WHERE .* GROUP BY `)},
		{"groupCount on EA", regexp.MustCompile(`^SELECT \(LIST\(\) \|\| .* \|\| COUNT\(\*\)\) AS VAL FROM EA( WHERE .*)? GROUP BY `)},
		{"groupBy on VA", regexp.MustCompile(`^SELECT \(LIST\(\) \|\| .* \|\| LISTAGG\(.*\)\) AS VAL FROM VA WHERE .* GROUP BY `)},
		{"groupBy on EA", regexp.MustCompile(`^SELECT \(LIST\(\) \|\| .* \|\| LISTAGG\(.*\)\) AS VAL FROM EA( WHERE .*)? GROUP BY `)},
		{"property on VA", regexp.MustCompile(`^SELECT JSON_VAL\(ATTR, '(k|name)'\) AS VAL FROM VA WHERE `)},
		{"property on EA", regexp.MustCompile(`^SELECT JSON_VAL\(ATTR, 'w'\) AS VAL FROM EA WHERE `)},
		{"order{}.range cut in the sort", regexp.MustCompile(`^SELECT VAL, OKEY FROM T\d+ ORDER BY OKEY, VAL LIMIT \d+ OFFSET \d+$`)},
	}
	// A larger sample than above: a fold needs the fused step right
	// after the source, and an edge property is a rare terminal.
	rng = rand.New(rand.NewSource(43))
	var sample []string
	for i := 0; i < 3000; i++ {
		sample = append(sample, GenPipeline(rng, 20))
	}
	cteSep := regexp.MustCompile(`^WITH T1 AS \(|\), T\d+ AS \(|\) SELECT VAL FROM T\d+$`)
	for _, opts := range allModes {
		seen := make([]bool, len(fused))
		for _, query := range sample {
			tr, err := s.Translate(query, opts)
			if err != nil {
				continue // refused on both paths alike (Check)
			}
			for _, body := range cteSep.Split(tr.SQL, -1) {
				for i, f := range fused {
					seen[i] = seen[i] || f.re.MatchString(body)
				}
			}
		}
		for i, f := range fused {
			if !seen[i] {
				t.Errorf("%+v: 3000-pipeline sample never translated to the fused %s", opts, f.name)
			}
		}
	}
}

// TestShrinkMinimizes drives the shrinker with a synthetic reproduction
// predicate and checks it peels every irrelevant step.
func TestShrinkMinimizes(t *testing.T) {
	start := "g.V.out('a').has('k', 1).order().dedup().count()"
	got := Shrink(start, func(q string) bool {
		return strings.Contains(q, ".order()")
	})
	if got != "g.V.order()" {
		t.Fatalf("Shrink(%q) = %q, want g.V.order()", start, got)
	}
	// A predicate nothing satisfies leaves the query untouched.
	if got := Shrink(start, func(string) bool { return false }); got != start {
		t.Fatalf("non-reproducing shrink changed the query: %q", got)
	}
}

// TestDifferentialPlanEquivalence is the plan-space sweep: every
// pipeline re-runs under every forced join strategy and must reproduce
// the oracle's result multiset each time. The full corpus runs with
// -tags slow.
func TestDifferentialPlanEquivalence(t *testing.T) {
	if err := RunPlans(7, 3, 15, []core.TranslateOptions{{}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialTinyMorsels is the tiny-morsel arm (TinyMorsels): the
// always-on corpus in every storage mode and the plan-space sweep, with
// morsels of eight rows on four workers, so every morsel-parallel path
// meets the oracle. The full corpus runs with -tags slow.
func TestDifferentialTinyMorsels(t *testing.T) {
	// The arm is not vacuous: on one of its graphs, runs from a scan and
	// runs from stored rows both fan out.
	rng := rand.New(rand.NewSource(1))
	g := GenGraph(rng)
	s, err := load(g, TinyMorsels)
	if err != nil {
		t.Fatal(err)
	}
	var scans, stored int
	for pi := 0; pi < 40; pi++ {
		res, err := s.Query(GenPipeline(rng, g.CountVertices()))
		if err != nil {
			continue
		}
		for _, p := range res.Stats.Pipelines {
			switch {
			case p.Workers < 2:
			case p.Scan >= 0:
				scans++
			default:
				stored++
			}
		}
	}
	if scans == 0 || stored == 0 {
		t.Fatalf("parallel runs from a scan: %d, from stored rows: %d; want both", scans, stored)
	}
	// No Gremlin text puts a subquery into an aggregate, so the corpus
	// never meets one: these do, in a GROUP BY key and in aggregate
	// arguments, on the same morsels, against the serial answer. Run under
	// -race, since a subquery evaluated on the workers races on the
	// query's state.
	for _, q := range []string{
		"SELECT COUNT(*), VID, LISTAGG(VID) FROM VA GROUP BY VID % 3 + 1 IN (SELECT VID FROM VA WHERE VID < 3)",
		"SELECT COUNT(VID IN (SELECT VID FROM VA WHERE VID % 2 = 0)), LISTAGG(VID IN (SELECT VID FROM VA WHERE VID > 10)) FROM VA",
	} {
		var want string
		for _, par := range []int{1, 4} {
			s.SetParallelism(par)
			rows, err := s.Engine().Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if got := fmt.Sprint(rows.Data); par == 1 {
				want = got
			} else if got != want || rows.Stats.MaxWorkers() < 2 {
				t.Fatalf("%s on %d workers: %s, serially %s", q, rows.Stats.MaxWorkers(), got, want)
			}
		}
	}
	s.Close()
	if err := Run(1, 6, 40, allModes, TinyMorsels); err != nil {
		t.Fatal(err)
	}
	if err := RunPlans(7, 3, 15, allModes, TinyMorsels); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialNegationAnyPlan: negating a string is NULL on both
// paths, so a closure that negates one answers alike whichever rows a
// plan evaluates it on. Two pipelines the generator found when negation
// was an error, each on the graph it was found on: behind a conjunct
// that is NULL the interpreter negated where the store's WHERE had
// stopped, and a hash join forced on the syntactic order negated
// attribute rows the traversal never reaches. Each runs through Check
// and the plan-space sweep in every storage mode, serially and on the
// tiny-morsel arm's four workers.
func TestDifferentialNegationAnyPlan(t *testing.T) {
	serial := func(s *core.Store) { s.SetParallelism(1) }
	for _, c := range []struct {
		seed  int64
		query string
	}{
		{103, "g.V.filter{!(it.k % 0.5 == 0) && -it.name == 0}"},
		{200, "g.V(19).ifThenElse{!(it.id % 3 == 0) && -it.name < 0}{it.out}{it.in}"},
	} {
		g := GenGraph(rand.New(rand.NewSource(c.seed)))
		if _, err := interp.Eval(g, mustShape(t, c.query)); err != nil {
			t.Fatalf("seed %d: the oracle refuses %s: %v", c.seed, c.query, err)
		}
		for _, arm := range []Arm{serial, TinyMorsels} {
			s, err := load(g, arm)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range allModes {
				if err := Check(s, g, c.query, opts); err != nil {
					t.Errorf("seed %d %+v: %v", c.seed, opts, err)
				}
				if err := CheckPlans(s, g, c.query, opts); err != nil {
					t.Errorf("seed %d %+v: %v", c.seed, opts, err)
				}
			}
			s.Close()
		}
	}
}

// TestDifferentialSnapshot runs the same differential property through
// the snapshot read path: pin a snapshot, mutate the store, and check
// translated queries on the snapshot still match the oracle's frozen
// copy of the graph.
func TestDifferentialSnapshot(t *testing.T) {
	rngSeed := int64(99)
	rng := rand.New(rand.NewSource(rngSeed))
	g := GenGraph(rng)
	s, err := core.Load(g, core.Options{OutCols: 3, InCols: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	defer snap.Close()

	// Mutate the store; the oracle keeps the pre-mutation graph.
	if err := s.AddVertex(5000, map[string]any{"k": int64(1), "name": "n0"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(6000, 5000, 0, "a", map[string]any{"w": 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveVertex(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}

	nV := g.CountVertices()
	for pi := 0; pi < 25; pi++ {
		query := GenPipeline(rng, nV)
		if err := CheckSnapshot(snap, g, query); err != nil {
			t.Fatalf("seed %d pipeline %d: %v", rngSeed, pi, err)
		}
	}
}
