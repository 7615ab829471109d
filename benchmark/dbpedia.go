package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
)

// dbpediaInst serves the three read workloads. They share the dataset
// and differ in the request stream: a fixed cycle of texts (traverse_hot,
// scan_agg) or texts that never repeat (adhoc_cold).
type dbpediaInst struct {
	*env
	name string
	data *dbpedia.Dataset
	sc   scale

	// Fixed-cycle workloads.
	texts []string
	want  []answer // oracle's answer per text, filled by prepare

	// adhoc_cold.
	gen  *adhocGen
	sent []adhocSent // every text sent in the timed window, checked by verify
}

// setupDBpedia generates the graph, loads it into an in-memory store,
// boots the server and warms it: each fixed text once, or a fixed number
// of ad-hoc requests. Everything here is timed as setup_s.
func setupDBpedia(name string, sc scale, spans *spanLog, _ string) (instance, error) {
	cfg := sc.dbpedia
	cfg.Seed = sc.seed
	data, err := dbpedia.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &dbpediaInst{env: &env{graph: data.Graph, spans: spans}, name: name, data: data, sc: sc}
	t0 := time.Now()
	if in.store, err = core.Load(data.Graph, core.Options{}); err != nil {
		return nil, err
	}
	in.loadS = time.Since(t0).Seconds()
	switch name {
	case "traverse_hot":
		in.texts = traverseTexts(data)
	case "scan_agg":
		in.texts = scanTexts()
	case "adhoc_cold":
		if err := in.store.CreateVertexAttrIndex("wikiPageID"); err != nil {
			return nil, err
		}
		in.gen = newAdhocGen(data)
	}
	in.boot(1)
	if err := in.warm(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// warm fills the prepared-statement and plan caches the way the timed
// window will find them. Answers are not known yet; only the status is
// checked.
func (in *dbpediaInst) warm() error {
	c := &caller{e: in.env}
	send := func(text string) error {
		o := queryOp("warm", text, func(status int, body []byte) error {
			_, err := queryAnswer(status, body)
			return err
		})
		_, _, err := c.do(&o, -1)
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", shorten(text), err)
		}
		return nil
	}
	for _, t := range in.texts {
		if err := send(t); err != nil {
			return err
		}
	}
	if in.gen != nil {
		src := in.gen.stream(in.sc.seedFor(0))
		for i := 0; i < in.sc.warmOps; i++ {
			_, text, _ := src.draw()
			if err := send(text); err != nil {
				return err
			}
		}
	}
	return nil
}

func queryOp(kind, text string, check func(int, []byte) error) op {
	return op{kind: kind, method: http.MethodPost, path: "/query", body: queryBody(text), gremlin: text, check: check}
}

func (in *dbpediaInst) base() *env { return in.env }

// prepare runs the independent interpreter over the generator's graph for
// every fixed text. It is the harness's own work and constant across
// commits, so it is not part of setup_s.
func (in *dbpediaInst) prepare() error {
	in.want = make([]answer, len(in.texts))
	for i, t := range in.texts {
		a, err := oracle(in.data, t)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", shorten(t), err)
		}
		in.want[i] = a
	}
	var err error
	in.userBytes, err = userBytesOf(in.graph)
	return err
}

func oracle(d *dbpedia.Dataset, text string) (answer, error) {
	q, err := gremlin.Parse(text)
	if err != nil {
		return answer{}, err
	}
	r, err := interp.Eval(d.Graph, q)
	if err != nil {
		return answer{}, err
	}
	return answerOf(r.Values())
}

// cycleSource walks the fixed texts in order, forever.
type cycleSource struct {
	in *dbpediaInst
	i  int
}

func (s *cycleSource) next() op {
	k := s.i % len(s.in.texts)
	s.i++
	return queryOp(fmt.Sprintf("q%02d", k), s.in.texts[k], expectAnswer(s.in.want[k]))
}

func (in *dbpediaInst) sources() []source {
	if in.gen != nil {
		return []source{&adhocSource{in: in, st: in.gen.stream(in.sc.seedFor(1)), record: true}}
	}
	return []source{&cycleSource{in: in}}
}

// boundary ends a fixed-cycle window only after a whole cycle, so every
// run measures the same mix of cheap and dear texts however fast it is.
func (in *dbpediaInst) boundary() (func(client, done int) bool, func() bool) {
	if in.gen != nil {
		return nil, nil
	}
	n := len(in.texts)
	return func(_, done int) bool { return done%n == 0 }, nil
}

// verify checks the ad-hoc answers against the oracle; the fixed-cycle
// workloads were checked request by request.
func (in *dbpediaInst) verify() (checked, failed int, firstErr error) {
	for _, s := range in.sent {
		want, err := oracle(in.data, s.oracleText)
		checked++
		if err == nil && want != s.got {
			err = fmt.Errorf("got %d values (digest %x), want %d (digest %x)", s.got.n, s.got.sum, want.n, want.sum)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("adhoc %q: %w", shorten(s.text), err)
			}
		}
	}
	return checked, failed, firstErr
}

func (in *dbpediaInst) traceOps() int {
	if in.gen != nil {
		return in.sc.tracedOps
	}
	return in.sc.tracedCycles[in.name] * len(in.texts)
}

// traceSource yields the traced sample for one level. Fixed texts are
// the same at every level (every level hits the caches); ad-hoc texts
// follow the same template sequence but draw their own ids, so every
// level misses, as every request of the timed window does.
func (in *dbpediaInst) traceSource(level int) source {
	if in.gen != nil {
		return &adhocSource{in: in, st: in.gen.streamSplit(in.sc.seedFor(2), in.sc.seedFor(10+level))}
	}
	return &cycleSource{in: in}
}

func (in *dbpediaInst) finish(*report) error { return nil }

// ---- traverse_hot --------------------------------------------------------

func idList(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ", ")
}

func firstN(ids []int64, n int) []int64 { return ids[:min(n, len(ids))] }

// medianBy returns the id whose degree is the median of the ids with a
// positive degree. Anchoring a text at a structurally typical vertex
// keeps its cost comparable from one seed to the next.
func medianBy(ids []int64, degree func(int64) int) int64 {
	type vd struct {
		id  int64
		deg int
	}
	var all []vd
	for _, id := range ids {
		if d := degree(id); d > 0 {
			all = append(all, vd{id, d})
		}
	}
	if len(all) == 0 {
		return ids[0]
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg < all[j].deg
		}
		return all[i].id < all[j].id
	})
	return all[len(all)/2].id
}

// traverseTexts is the fixed cycle of traverse_hot: the eleven Table-1
// adjacency chains (counts, 3 to 9 hops) and thirteen id-anchored shapes
// of Figure 5 that return element lists.
func traverseTexts(d *dbpedia.Dataset) []string {
	g := d.Graph
	isPartOf, team, typ := dbpedia.LabelIsPartOf, dbpedia.LabelTeam, dbpedia.LabelType
	ground, author := dbpedia.LabelGround, dbpedia.LabelAuthor
	inDeg := func(label string) func(int64) int {
		return func(id int64) int {
			recs, _ := g.InEdges(id, label) // generator ids always exist
			return len(recs)
		}
	}
	outDeg := func(label string) func(int64) int {
		return func(id int64) int {
			recs, _ := g.OutEdges(id, label)
			return len(recs)
		}
	}
	aTeam := medianBy(d.Teams, inDeg(team))
	aPlayer := medianBy(d.Players, outDeg(team))
	aGround := medianBy(d.Settlements, inDeg(ground))
	pick := func(ids []int64, i int) int64 { return ids[i%len(ids)] }

	texts := queries.PathQueries(d)
	return append(texts,
		fmt.Sprintf("g.V(%d).in('%s').dedup().in('%s').dedup().in('%s').dedup()", pick(d.Regions, 2), isPartOf, isPartOf, isPartOf),
		fmt.Sprintf("g.V(%d).both('%s').dedup().both('%s').dedup()", aTeam, team, team),
		fmt.Sprintf("g.V(%d).out('%s').both('%s').dedup()", aPlayer, team, team),
		fmt.Sprintf("g.V(%s).out('%s').URI", idList(firstN(d.Villages, 100)), isPartOf),
		fmt.Sprintf("g.V(%s).as('x').out('%s').has('longm').back('x')", idList(firstN(d.Villages, 200)), isPartOf),
		fmt.Sprintf("g.V(%s).out('%s').out('%s').out('%s').out('%s').dedup()", idList(firstN(d.Works, 300)), author, team, ground, isPartOf),
		fmt.Sprintf("g.V(%d).in('%s')", d.TypeTeam, typ),
		fmt.Sprintf("g.V(%d).in('%s').URI", d.TypeTeam, typ),
		fmt.Sprintf("g.V(%d).in('%s').in('%s').in('%s').in('%s')", pick(d.Countries, 3), isPartOf, isPartOf, isPartOf, isPartOf),
		fmt.Sprintf("g.V(%d).in('%s').wikiPageID", aTeam, team),
		fmt.Sprintf("g.V(%d).in('%s').in('%s').path", pick(d.Districts, 7), isPartOf, isPartOf),
		fmt.Sprintf("g.V(%d).both('%s').both('%s').dedup().order().range(0, 49)", aTeam, team, team),
		fmt.Sprintf("g.V(%d).in('%s').in('%s').dedup()", aGround, ground, team),
	)
}

// ---- scan_agg ------------------------------------------------------------

// scanTexts is the fixed cycle of scan_agg: eight whole-table texts, none
// of which can use an index, all in one cost class.
func scanTexts() []string {
	return []string{
		"g.V.has('genre', 'Rock')",
		"g.V.hasNot('label')",
		"g.V.interval('populationDensitySqMi', 100, 500)",
		"g.V.filter{it.populationDensitySqMi * 2 >= 3000}.count()",
		"g.V.has('genre').groupCount{it.genre}",
		"g.V.has('genre').order{it.title}.range(0, 24)",
		fmt.Sprintf("g.V.has('national').out('%s').dedup()", dbpedia.LabelTeam),
		"g.V.has('label').filter{it.label >= 'Team'}.count()",
	}
}

// ---- adhoc_cold ----------------------------------------------------------

// adhocGen instantiates short templates with seeded ids. No text is ever
// produced twice, across warm-up, window and traced levels alike, so the
// prepared-statement and plan caches never hit.
type adhocGen struct {
	d    *dbpedia.Dataset
	all  []int64 // every vertex id
	seen map[string]bool
}

func newAdhocGen(d *dbpedia.Dataset) *adhocGen {
	return &adhocGen{d: d, all: d.Graph.VertexIDs(), seen: map[string]bool{}}
}

// adhocKinds names the templates of instantiate, in its case order.
var adhocKinds = []string{"out", "out_out", "has_index_out", "out_team", "in_uri", "both_count", "oute_inv"}

// adhocStream is one deterministic draw sequence. Template choice and id
// choice have their own generators so that two streams can share the
// first and differ in the second.
type adhocStream struct {
	g        *adhocGen
	template *rand.Rand
	ids      *rand.Rand
}

func (g *adhocGen) stream(seed int64) *adhocStream { return g.streamSplit(seed, seed+1) }

func (g *adhocGen) streamSplit(templateSeed, idSeed int64) *adhocStream {
	return &adhocStream{g: g, template: rand.New(rand.NewSource(templateSeed)), ids: rand.New(rand.NewSource(idSeed))}
}

// draw returns the next unseen text and the text the oracle evaluates
// for it. They differ for the indexed-attribute template only: the
// interpreter has no attribute index and would scan the graph per call,
// so it starts from the player the generator gave that wikiPageID.
func (s *adhocStream) draw() (t int, text, oracleText string) {
	return s.drawFrom(s.template.Intn(len(adhocKinds)))
}

// drawFrom is draw with the template given.
func (s *adhocStream) drawFrom(t int) (int, string, string) {
	for try := 0; ; try++ {
		if try > 0 && try%20 == 0 {
			t = (t + 1) % len(adhocKinds) // this template's id space is used up
		}
		text, oracleText := s.g.instantiate(t, s.ids)
		if !s.g.seen[text] {
			s.g.seen[text] = true
			return t, text, oracleText
		}
	}
}

func (g *adhocGen) instantiate(t int, r *rand.Rand) (text, oracleText string) {
	d := g.d
	isPartOf, team := dbpedia.LabelIsPartOf, dbpedia.LabelTeam
	one := func(ids []int64) int64 { return ids[r.Intn(len(ids))] }
	switch t {
	case 0:
		text = fmt.Sprintf("g.V(%d, %d).out", one(g.all), one(g.all))
	case 1:
		text = fmt.Sprintf("g.V(%d, %d).out('%s').out('%s')", one(d.Villages), one(d.Villages), isPartOf, isPartOf)
	case 2:
		i := r.Intn(len(d.Players))
		text = fmt.Sprintf("g.V.has('wikiPageID', %d).out", 29000000+i)
		return text, fmt.Sprintf("g.V(%d).out", d.Players[i])
	case 3:
		text = fmt.Sprintf("g.V(%d, %d, %d).out('%s')", one(d.Players), one(d.Players), one(d.Players), team)
	case 4:
		text = fmt.Sprintf("g.V(%d, %d).in('%s').URI", one(d.Settlements), one(d.Districts), isPartOf)
	case 5:
		text = fmt.Sprintf("g.V(%d, %d).both('%s').dedup().count()", one(d.Players), one(d.Players), team)
	default:
		text = fmt.Sprintf("g.V(%d, %d).outE('%s').inV", one(d.Players), one(d.Players), team)
	}
	return text, text
}

// adhocSent is one ad-hoc request of the timed window and the digest of
// what came back, kept for the oracle pass after the window.
type adhocSent struct {
	text, oracleText string
	got              answer
}

type adhocSource struct {
	in     *dbpediaInst
	st     *adhocStream
	record bool
}

func (s *adhocSource) next() op { return s.make(s.st.draw()) }

func (s *adhocSource) make(t int, text, oracleText string) op {
	in := s.in
	check := func(status int, body []byte) error {
		got, err := queryAnswer(status, body)
		if err != nil {
			return err
		}
		if s.record {
			in.sent = append(in.sent, adhocSent{text, oracleText, got})
			return nil
		}
		want, err := oracle(in.data, oracleText)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("wrong answer: got %d values, want %d", got.n, want.n)
		}
		return nil
	}
	o := queryOp(adhocKinds[t], text, check)
	o.again = func() op { return s.make(s.st.drawFrom(t)) }
	return o
}

func shorten(s string) string {
	if len(s) > 90 {
		return s[:40] + " ... " + s[len(s)-40:]
	}
	return s
}
