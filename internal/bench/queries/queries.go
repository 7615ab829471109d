// Package queries builds the benchmark query sets of the paper's
// evaluation against a generated DBpedia-shaped dataset: the 11
// adjacency/long-path queries (Table 1, Figures 3, 6, 8b), the 16
// attribute-lookup queries (Table 2, Figure 4), the 7 neighbor queries
// (Table 4), and the 20 DBpedia benchmark queries (Figure 8a).
package queries

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sqlgraph/internal/bench/dbpedia"
)

// Hop is one traversal step of an adjacency query.
type Hop struct {
	Dir    string // "out", "in", "both"
	Labels []string
}

// AdjQuery is one Table 1 row: a k-hop traversal with per-hop dedup.
type AdjQuery struct {
	ID    int
	Start []int64
	Hops  []Hop
}

// NumHops returns the traversal depth.
func (q AdjQuery) NumHops() int { return len(q.Hops) }

// Gremlin renders the query: g.V(ids).out('l').dedup()...count().
func (q AdjQuery) Gremlin() string {
	var sb strings.Builder
	sb.WriteString("g.V(")
	for i, id := range q.Start {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprint(&sb, id)
	}
	sb.WriteString(")")
	for _, h := range q.Hops {
		sb.WriteString(".")
		sb.WriteString(h.Dir)
		if len(h.Labels) > 0 {
			sb.WriteString("(")
			for i, l := range h.Labels {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString("'" + l + "'")
			}
			sb.WriteString(")")
		}
		sb.WriteString(".dedup()")
	}
	sb.WriteString(".count()")
	return sb.String()
}

func take(ids []int64, n int) []int64 {
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// AdjacencyQueries builds the 11 Table 1 queries, scaled to the dataset:
// the paper varies hop count (3-9), input size (1-16000), and result
// size. Inputs scale with the generated graph.
func AdjacencyQueries(d *dbpedia.Dataset) []AdjQuery {
	up := Hop{Dir: "out", Labels: []string{dbpedia.LabelIsPartOf}}
	down := Hop{Dir: "in", Labels: []string{dbpedia.LabelIsPartOf}}
	team := Hop{Dir: "both", Labels: []string{dbpedia.LabelTeam}}

	vall := d.Villages
	players := d.Players
	big := len(vall)

	return []AdjQuery{
		{ID: 1, Start: take(vall, big), Hops: []Hop{up, up, up}},
		{ID: 2, Start: take(vall, big), Hops: []Hop{up, up, up, down, down, down}},
		{ID: 3, Start: take(vall, big), Hops: []Hop{up, up, up, down, down, down, up, up, up}},
		{ID: 4, Start: take(vall, 100), Hops: []Hop{up, up, up, up, down}},
		{ID: 5, Start: take(vall, 1000), Hops: []Hop{up, up, up, down, down}},
		{ID: 6, Start: take(vall, min(10000, big)), Hops: []Hop{up, up, down, down, down}},
		{ID: 7, Start: take(players, 1), Hops: []Hop{team, team, team, team}},
		{ID: 8, Start: take(players, 1), Hops: []Hop{team, team, team, team, team, team}},
		{ID: 9, Start: take(players, 1), Hops: []Hop{team, team, team, team, team, team, team, team}},
		{ID: 10, Start: take(players, 10), Hops: []Hop{team, team, team, team, team, team}},
		{ID: 11, Start: take(players, 100), Hops: []Hop{team, team, team, team, team, team}},
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// AttrQuery is one Table 2 row: an attribute lookup with a given filter
// shape and selectivity.
type AttrQuery struct {
	ID      int
	Key     string
	Filter  string // "notnull", "like", "eq"
	Numeric bool
	Pattern string  // for like / string eq
	Value   float64 // for numeric eq
}

// VASQL renders the query against the SQLGraph VA table (JSON storage).
func (q AttrQuery) VASQL() string {
	jv := fmt.Sprintf("JSON_VAL(ATTR, '%s')", q.Key)
	switch q.Filter {
	case "notnull":
		return fmt.Sprintf("SELECT COUNT(*) FROM VA WHERE %s IS NOT NULL", jv)
	case "like":
		return fmt.Sprintf("SELECT COUNT(*) FROM VA WHERE %s LIKE '%s'", jv, q.Pattern)
	case "eq":
		if q.Numeric {
			return fmt.Sprintf("SELECT COUNT(*) FROM VA WHERE %s = %g", jv, q.Value)
		}
		return fmt.Sprintf("SELECT COUNT(*) FROM VA WHERE %s = '%s'", jv, q.Pattern)
	default:
		return ""
	}
}

// AttributeQueries builds the 16 Table 2 queries: 8 keys, each probed
// with a "not null" existence test and a value test; string keys use LIKE
// or equality, numeric keys equality with a cast on the shredded side.
func AttributeQueries(d *dbpedia.Dataset) []AttrQuery {
	return []AttrQuery{
		{ID: 1, Key: "national", Filter: "notnull"},
		{ID: 2, Key: "national", Filter: "like", Pattern: "%France"},
		{ID: 3, Key: "genre", Filter: "notnull"},
		{ID: 4, Key: "genre", Filter: "like", Pattern: "%en"},
		{ID: 5, Key: "title", Filter: "notnull"},
		{ID: 6, Key: "title", Filter: "like", Pattern: "%en"},
		{ID: 7, Key: "label", Filter: "notnull"},
		{ID: 8, Key: "label", Filter: "like", Pattern: "Village%"},
		{ID: 9, Key: "regionAffiliation", Filter: "notnull"},
		{ID: 10, Key: "regionAffiliation", Filter: "eq", Pattern: "http://dbpedia.org/resource/Affil_1"},
		{ID: 11, Key: "populationDensitySqMi", Filter: "notnull", Numeric: true},
		{ID: 12, Key: "populationDensitySqMi", Filter: "eq", Numeric: true, Value: 100},
		{ID: 13, Key: "longm", Filter: "notnull", Numeric: true},
		{ID: 14, Key: "longm", Filter: "eq", Numeric: true, Value: 1},
		{ID: 15, Key: "wikiPageID", Filter: "notnull", Numeric: true},
		{ID: 16, Key: "wikiPageID", Filter: "eq", Numeric: true, Value: 29000042},
	}
}

// AttributeKeys lists the distinct keys Table 2 queries touch (indexes
// are created for queried keys, per Section 3.3).
func AttributeKeys(qs []AttrQuery) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range qs {
		if !seen[q.Key] {
			seen[q.Key] = true
			out = append(out, q.Key)
		}
	}
	return out
}

// NeighborQuery is one Table 4 row: all neighbors of one vertex, with
// growing result sizes.
type NeighborQuery struct {
	ID       int
	Vertex   int64
	InDegree int
}

// NeighborQueries picks 7 vertices spanning the in-degree distribution
// (the paper picks result sizes 1 ... 2.3M).
func NeighborQueries(d *dbpedia.Dataset) []NeighborQuery {
	indeg := map[int64]int{}
	for _, v := range d.Graph.VertexIDs() {
		recs, err := d.Graph.InEdges(v)
		if err != nil {
			continue
		}
		indeg[v] += len(recs)
	}
	type vd struct {
		v int64
		d int
	}
	all := make([]vd, 0, len(indeg))
	for v, deg := range indeg {
		all = append(all, vd{v, deg})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].v < all[j].v
	})
	// Pick 7 vertices with geometrically spaced in-degrees from 1 to the
	// max (the paper's result sizes span 1 to 2.3M).
	maxDeg := all[len(all)-1].d
	if maxDeg < 1 {
		maxDeg = 1
	}
	out := make([]NeighborQuery, 0, 7)
	target := 1.0
	ratio := 1.0
	if maxDeg > 1 {
		ratio = math.Pow(float64(maxDeg), 1.0/6.0)
	}
	for i := 0; i < 7; i++ {
		// Closest vertex at or above the target degree.
		best := all[len(all)-1]
		for _, vd := range all {
			if float64(vd.d) >= target {
				best = vd
				break
			}
		}
		out = append(out, NeighborQuery{ID: i + 1, Vertex: best.v, InDegree: best.d})
		target *= ratio
	}
	return out
}

// BenchmarkQueries builds the 20 DBpedia benchmark queries (the paper
// converts the DBpedia SPARQL benchmark to Gremlin, Appendix B). Query 15
// is the pathological one that times out on Titan in the paper.
func BenchmarkQueries(d *dbpedia.Dataset) []string {
	pick := func(ids []int64, i int) int64 {
		if len(ids) == 0 {
			return 0
		}
		return ids[i%len(ids)]
	}
	isPartOf, team, typ := dbpedia.LabelIsPartOf, dbpedia.LabelTeam, dbpedia.LabelType
	ground, author := dbpedia.LabelGround, dbpedia.LabelAuthor
	return []string{
		// 1: all people (selective type lookup, large result).
		fmt.Sprintf("g.V(%d).in('%s').count()", d.TypePerson, typ),
		// 2: appendix-style entity lookup + 2-hop expansion.
		fmt.Sprintf("g.V(%d).out('%s').both('%s').dedup().count()", pick(d.Players, 7), team, team),
		// 3: national players and their teams.
		fmt.Sprintf("g.V.has('national').out('%s').dedup().count()", team),
		// 4: genre equality.
		"g.V.has('genre', 'Rock').count()",
		// 5: authored works back to teams.
		fmt.Sprintf("g.V(%d).in('%s').out('%s').dedup().count()", pick(d.Players, 3), author, team),
		// 6: everything inside a region, 3 levels down.
		fmt.Sprintf("g.V(%d).in('%s').dedup().in('%s').dedup().in('%s').dedup().count()", pick(d.Regions, 2), isPartOf, isPartOf, isPartOf),
		// 7: teammates-of-teammates.
		fmt.Sprintf("g.V(%d).both('%s').dedup().both('%s').dedup().count()", pick(d.Teams, 5), team, team),
		// 8: label prefix scan.
		"g.V.has('label').filter{it.label >= 'Team'}.count()",
		// 9: teams grounded in a settlement, and their players.
		fmt.Sprintf("g.V(%d).in('%s').in('%s').dedup().count()", pick(d.Settlements, 11), ground, team),
		// 10: wikiPageID point lookup with expansion.
		"g.V.has('wikiPageID', 29000042).out.count()",
		// 11: type-edge fanout for teams.
		fmt.Sprintf("g.V(%d).in('%s').count()", d.TypeTeam, typ),
		// 12: filtered two-hop around national players.
		fmt.Sprintf("g.V.has('national').both('%s').dedup().both('%s').dedup().count()", team, team),
		// 13: villages two levels up.
		fmt.Sprintf("g.V(%d, %d, %d).out('%s').out('%s').dedup().count()",
			pick(d.Villages, 1), pick(d.Villages, 20), pick(d.Villages, 300), isPartOf, isPartOf),
		// 14: long mixed chain: work -> author -> team -> ground -> up.
		fmt.Sprintf("g.V(%d).out('%s').out('%s').out('%s').out('%s').dedup().count()",
			pick(d.Works, 9), author, team, ground, isPartOf),
		// 15: the pathological query (the paper's query 15 times out on
		// Titan): a global 2-hop over the whole graph. Set-oriented
		// execution dedups between hops for free; pipe-at-a-time stores
		// still touch every vertex twice.
		"g.V.out.dedup().in.dedup().count()",
		// 16: typed + attribute-filtered lookup.
		fmt.Sprintf("g.V(%d).in('%s').has('genre', 'Jazz').count()", d.TypeWork, typ),
		// 17: numeric interval.
		"g.V.interval('populationDensitySqMi', 100, 500).count()",
		// 18: negated attribute.
		"g.V.hasNot('label').count()",
		// 19: branch by attribute.
		fmt.Sprintf("g.V(%d).in('%s').ifThenElse{it.national == '%s'}{it.out('%s')}{it}.dedup().count()",
			d.TypePerson, typ, nationalFrance, team),
		// 20: path query with back.
		fmt.Sprintf("g.V(%d).as('x').out('%s').out('%s').back('x').dedup().count()", pick(d.Villages, 77), isPartOf, isPartOf),
	}
}

const nationalFrance = "http://dbpedia.org/resource/France"

// OrderGroupQueries builds the order/group workload: sorted pagination
// (ORDER BY ... LIMIT) and grouped aggregation (GROUP BY) shapes that
// the translator compiles into single SQL statements — the figure
// guards the pushdown templates against regressing into slow plans.
func OrderGroupQueries(d *dbpedia.Dataset) []string {
	pick := func(ids []int64, i int) int64 {
		if len(ids) == 0 {
			return 0
		}
		return ids[i%len(ids)]
	}
	isPartOf, team, typ := dbpedia.LabelIsPartOf, dbpedia.LabelTeam, dbpedia.LabelType
	return []string{
		// og1: top-of-list pagination over a 1-hop neighborhood.
		fmt.Sprintf("g.V(%d).in('%s').order{it.label}.range(0, 24).count()", d.TypeTeam, typ),
		// og2: unkeyed order over ids after a 2-hop expansion.
		fmt.Sprintf("g.V(%d).both('%s').both('%s').dedup().order().range(0, 49).count()", pick(d.Teams, 5), team, team),
		// og3: group sizes by attribute over a large selective scan.
		"g.V.has('genre').groupCount{it.genre}.count()",
		// og4: grouped aggregation of values (LISTAGG shape).
		fmt.Sprintf("g.V(%d).in('%s').groupBy{it.national}{it.wikiPageID}.count()", d.TypePerson, typ),
		// og5: edge-context grouping through the LBL column.
		fmt.Sprintf("g.V(%d).in('%s').outE.groupCount{it.label}.count()", pick(d.Regions, 2), isPartOf),
		// og6: closure filter + keyed sort, all pushdown.
		"g.V.filter{it.populationDensitySqMi * 2 >= 200}.order{it.populationDensitySqMi}.range(0, 9).count()",
	}
}

// PathQueries renders the 11 adjacency queries as Gremlin (Figures 6 and
// 8b reuse the Table 1 workload).
func PathQueries(d *dbpedia.Dataset) []string {
	adj := AdjacencyQueries(d)
	out := make([]string, len(adj))
	for i, q := range adj {
		out[i] = q.Gremlin()
	}
	return out
}
