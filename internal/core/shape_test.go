package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
)

// shapeDataset is a DBpedia-shaped graph large enough for an id list of
// ten thousand and for the planner to have a choice (about 13 000
// vertices), generated once per test binary.
var shapeDataset = sync.OnceValues(genShapeDataset)

func genShapeDataset() (*dbpedia.Dataset, error) {
	return dbpedia.Generate(dbpedia.Config{Countries: 4, RegionFan: 4, DistrictFan: 4, SettlementFan: 5, VillageFan: 4,
		Players: 8000, Teams: 300, Works: 3000, Seed: 11})
}

func loadShapeDataset(t testing.TB) (*dbpedia.Dataset, *Store) {
	t.Helper()
	d, err := shapeDataset()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(d.Graph, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// adhocTemplates are the seven templates of the benchmark's adhoc_cold
// workload (benchmark/dbpedia.go), instantiated from r.
func adhocTemplates(d *dbpedia.Dataset, all []int64, r *rand.Rand) []string {
	one := func(ids []int64) int64 { return ids[r.Intn(len(ids))] }
	isPartOf, team := dbpedia.LabelIsPartOf, dbpedia.LabelTeam
	return []string{
		fmt.Sprintf("g.V(%d, %d).out", one(all), one(all)),
		fmt.Sprintf("g.V(%d, %d).out('%s').out('%s')", one(d.Villages), one(d.Villages), isPartOf, isPartOf),
		fmt.Sprintf("g.V.has('wikiPageID', %d).out", 29000000+r.Intn(len(d.Players))),
		fmt.Sprintf("g.V(%d, %d, %d).out('%s')", one(d.Players), one(d.Players), one(d.Players), team),
		fmt.Sprintf("g.V(%d, %d).in('%s').URI", one(d.Settlements), one(d.Districts), isPartOf),
		fmt.Sprintf("g.V(%d, %d).both('%s').dedup().count()", one(d.Players), one(d.Players), team),
		fmt.Sprintf("g.V(%d, %d).outE('%s').inV", one(d.Players), one(d.Players), team),
	}
}

// TestAdhocShapeStaysPrepared is the tier-1 guard of what the adhoc_cold
// workload measures: texts that never repeat but come from seven
// templates are seven statements. After one query of each template, 200
// further instantiations translate nothing, parse no SQL (a prepared miss
// is one of each), plan nothing for the first time, and a query costs at
// most half the allocations it cost when every text was prepared anew.
func TestAdhocShapeStaysPrepared(t *testing.T) {
	d, s := loadShapeDataset(t)
	if err := s.CreateVertexAttrIndex("wikiPageID"); err != nil {
		t.Fatal(err)
	}
	all := d.Graph.VertexIDs()
	r := rand.New(rand.NewSource(3))
	for _, text := range adhocTemplates(d, all, r) {
		if _, err := s.Query(text); err != nil {
			t.Fatalf("warm-up %q: %v", text, err)
		}
	}
	if n := s.PreparedStatements(); n != 7 {
		t.Fatalf("%d statements prepared for the seven templates", n)
	}
	_, misses := s.PreparedCacheStats()
	plan := s.PlanCacheStats()
	seen := map[string]bool{}
	for n := 0; n < 200; {
		for _, text := range adhocTemplates(d, all, r) {
			if seen[text] {
				continue
			}
			seen[text] = true
			n++
			q, err := gremlin.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			// The oracle has no attribute index: start it from the player.
			if v := q.Steps[1]; v.Key == "wikiPageID" {
				q, _ = gremlin.Parse(fmt.Sprintf("g.V(%d).out", d.Players[v.Value.(int64)-29000000]))
			}
			want, err := interp.Eval(d.Graph, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Query(text)
			if err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			if a, b := canonical(got.Values), canonical(normalizeOracle(want.Values())); !reflect.DeepEqual(a, b) {
				t.Fatalf("%q: got %v, want %v", text, a, b)
			}
		}
	}
	if _, after := s.PreparedCacheStats(); after != misses {
		t.Fatalf("%d statements prepared (translate + sql.Parse) for 200 texts of known shapes", after-misses)
	}
	if n := s.PreparedStatements(); n != 7 {
		t.Fatalf("%d statements held after 200 texts of seven shapes", n)
	}
	if after := s.PlanCacheStats(); after.Misses != plan.Misses {
		t.Fatalf("%d cores planned for the first time for 200 texts of known shapes", after.Misses-plan.Misses)
	}

	// g.V(a, b).out cost 586 allocations per query at the parent commit,
	// on this graph, with every text parsed, translated, parsed as SQL and
	// planned.
	const parentAllocs = 586
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("g.V(%d, %d).out", all[r.Intn(len(all))], all[r.Intn(len(all))])
	}
	i := 0
	allocs := testing.AllocsPerRun(len(texts)-1, func() {
		if _, err := s.Query(texts[i%len(texts)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > parentAllocs/2 {
		t.Fatalf("g.V(a, b).out: %.0f allocations per query, ceiling %d (half the parent's %d)", allocs, parentAllocs/2, parentAllocs)
	}
}

var statTimes = regexp.MustCompile(` time=\S+`)

// explain is the statement's EXPLAIN ANALYZE without the clock.
func explain(st *engine.ExecStats) string { return statTimes.ReplaceAllString(st.String(), "") }

// planOf keeps what the planner decided: each join's table and strategy,
// each scan's table and access path.
func planOf(st *engine.ExecStats) string {
	var sb strings.Builder
	for _, sc := range st.Scans {
		fmt.Fprintf(&sb, "scan %s %s; ", sc.Table, sc.Access)
	}
	for _, j := range st.Joins {
		fmt.Fprintf(&sb, "join %s %s; ", j.Table, j.Strategy)
	}
	return sb.String()
}

// TestPlanStampMagnitude: one shape bound to two ids and to ten thousand
// is one statement and two plans. Each binding runs the plan a fresh
// planning of its own literal statement picks, and each plan, once
// cached, serves the next binding of its magnitude.
func TestPlanStampMagnitude(t *testing.T) {
	d, s := loadShapeDataset(t)
	all := d.Graph.VertexIDs()
	text := func(ids []int64) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprint(id)
		}
		return fmt.Sprintf("g.V(%s).out('%s').in('%s').dedup().count()", strings.Join(parts, ", "), dbpedia.LabelTeam, dbpedia.LabelTeam)
	}
	small1, small2 := text(d.Players[:2]), text(d.Players[10:12])
	big1, big2 := text(all[:10000]), text(all[len(all)-10000:])

	// literal plans the binding's own literal statement from scratch: a
	// freshly parsed statement has no plan cached.
	literal := func(gremlinText string) *engine.ExecStats {
		t.Helper()
		tr, err := s.Translate(gremlinText, TranslateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.Engine().Query(tr.SQL)
		if err != nil {
			t.Fatal(err)
		}
		return &rows.Stats
	}
	run := func(gremlinText string) (*Result, engine.PlanCacheStats) {
		t.Helper()
		before := s.PlanCacheStats()
		res, err := s.Query(gremlinText)
		if err != nil {
			t.Fatal(err)
		}
		after := s.PlanCacheStats()
		return res, engine.PlanCacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			Invalidations: after.Invalidations - before.Invalidations}
	}

	first, delta := run(small1)
	if delta.Misses == 0 || delta.Hits != 0 {
		t.Fatalf("first binding: %+v, want every core planned for the first time", delta)
	}
	cores := delta.Misses
	if got, want := explain(&first.Stats), explain(literal(small1)); got != want {
		t.Fatalf("2 ids: bound statement ran\n%s\nits literal statement plans\n%s", got, want)
	}
	big, delta := run(big1)
	if delta.Misses != 0 || delta.Invalidations == 0 {
		t.Fatalf("10 000 ids on the statement planned for 2: %+v, want cores planned again under another stamp", delta)
	}
	if got, want := explain(&big.Stats), explain(literal(big1)); got != want {
		t.Fatalf("10 000 ids: bound statement ran\n%s\nits literal statement plans\n%s", got, want)
	}
	if planOf(&first.Stats) == planOf(&big.Stats) {
		t.Fatalf("2 ids and 10 000 ids run one plan — the test has no teeth on this graph:\n%s", planOf(&big.Stats))
	}
	if n := s.PreparedStatements(); n != 1 {
		t.Fatalf("%d statements for one shape", n)
	}

	// Either magnitude again, other ids: its plan is still there.
	for _, c := range []struct {
		name, text string
		like       *Result
	}{{"2 ids", small2, first}, {"10 000 ids", big2, big}, {"2 ids", small1, first}} {
		res, delta := run(c.text)
		if delta.Hits != cores || delta.Misses != 0 || delta.Invalidations != 0 {
			t.Fatalf("%s again: %+v, want %d plan-cache hits and nothing planned", c.name, delta, cores)
		}
		if got, want := planOf(&res.Stats), planOf(&c.like.Stats); got != want {
			t.Fatalf("%s again ran\n%s\nwant the plan of its magnitude\n%s", c.name, got, want)
		}
		if got, want := planOf(&res.Stats), planOf(literal(c.text)); got != want {
			t.Fatalf("%s again ran\n%s\nits literal statement plans\n%s", c.name, got, want)
		}
	}
}

// TestSharedStatementConcurrent: sixteen goroutines execute two shapes at
// once, each with ids and values of its own, against the live store and a
// pinned snapshot, and each must get its own answer every time. Run under
// -race: the statements and their prepared cores — compiled closures
// included — are shared, the arguments are not. The second shape's cores
// read an id list (g.V(ids)), a scalar (the wikiPageID the branch tests)
// and an IN (SELECT …) set (the else branch's NOT IN over the then
// branch's vertices), each bound by the execution.
func TestSharedStatementConcurrent(t *testing.T) {
	d, s := loadShapeDataset(t)
	snap := s.Snapshot()
	defer snap.Close()
	// A vertex and an edge the snapshot must not see.
	extra := d.Players[0]
	if err := s.AddVertex(9_000_000, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(9_000_001, extra, 9_000_000, dbpedia.LabelTeam, nil); err != nil {
		t.Fatal(err)
	}
	liveData, err := genShapeDataset() // the same graph again, for the oracle of the live side to change
	if err != nil {
		t.Fatal(err)
	}
	live := liveData.Graph
	if err := live.AddVertex(9_000_000, nil); err != nil {
		t.Fatal(err)
	}
	if err := live.AddEdge(9_000_001, extra, 9_000_000, dbpedia.LabelTeam, nil); err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 16, 40
	type job struct {
		text         string
		live, pinned []string
	}
	jobs := make([][]job, workers)
	for w := range jobs {
		r := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < rounds; i++ {
			n := 1 + r.Intn(3)
			if i%10 == 9 {
				n = 300 // another plan stamp and the hash-set IN, beside the others
			}
			ids := []string{fmt.Sprint(extra)}
			for len(ids) < n {
				ids = append(ids, fmt.Sprint(d.Players[r.Intn(len(d.Players))]))
			}
			text := fmt.Sprintf("g.V(%s).out('%s').has('name', T.neq, 'w%d')", strings.Join(ids, ", "), dbpedia.LabelTeam, w)
			if i%2 == 1 {
				k := r.Intn(len(d.Players)) // its wikiPageID is 29 000 000 + k
				ids = append(ids, fmt.Sprint(d.Players[k]))
				text = fmt.Sprintf("g.V(%s).ifThenElse{it.wikiPageID == %d}{it.out('%s')}{it.in('%s')}",
					strings.Join(ids, ", "), 29_000_000+k, dbpedia.LabelTeam, dbpedia.LabelTeam)
			}
			q, err := gremlin.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			j := job{text: text}
			for _, side := range []struct {
				g   blueprints.Graph
				out *[]string
			}{{live, &j.live}, {d.Graph, &j.pinned}} {
				want, err := interp.Eval(side.g, q)
				if err != nil {
					t.Fatal(err)
				}
				*side.out = canonical(normalizeOracle(want.Values()))
			}
			jobs[w] = append(jobs[w], j)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, j := range jobs[w] {
				got, err := s.Query(j.text)
				if err != nil {
					t.Errorf("worker %d live %q: %v", w, j.text, err)
					return
				}
				if a := canonical(got.Values); !reflect.DeepEqual(a, j.live) {
					t.Errorf("worker %d live %q: got %d values, want %d", w, j.text, len(a), len(j.live))
					return
				}
				got, err = snap.Query(j.text)
				if err != nil {
					t.Errorf("worker %d pinned %q: %v", w, j.text, err)
					return
				}
				if a := canonical(got.Values); !reflect.DeepEqual(a, j.pinned) {
					t.Errorf("worker %d pinned %q: got %d values, want %d", w, j.text, len(a), len(j.pinned))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.PreparedStatements(); n != 2 {
		t.Fatalf("%d statements for two shapes", n)
	}
}
