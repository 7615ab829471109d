// Package altschema implements the schema alternatives the paper's
// micro-benchmarks compare against (Section 3):
//
//   - JSONAdjStore — adjacency lists stored whole in a JSON column
//     (Figure 2c), the losing side of the adjacency micro-benchmark
//     (Figure 3).
//   - HashAttrStore — vertex attributes shredded into a coloring-hashed
//     relational table with multi-value and long-string side tables
//     (Figure 2d, Table 3), the losing side of the attribute lookup
//     micro-benchmark (Figure 4).
package altschema

import (
	"fmt"
	"strings"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sqljson"
)

// JSONAdjStore stores each vertex's adjacency as one JSON document:
// {"label": [{"eid": 7, "val": 2}, ...], ...} in the OADJ (outgoing) and
// IADJ (incoming) tables. Documents are stored serialized, as a database
// engine stores a JSON column on its pages: every traversal step must
// fetch and deserialize the whole document for each frontier vertex, even
// when it follows a single edge label — the inefficiency the paper's
// Figure 3 measures.
type JSONAdjStore struct {
	eng *engine.Engine
}

// NewJSONAdjStore shreds a graph into the JSON-adjacency layout.
func NewJSONAdjStore(src blueprints.Graph) (*JSONAdjStore, error) {
	cat := rel.NewCatalog()
	schema := rel.NewSchema(
		rel.Column{Name: "VID", Type: rel.KindInt},
		rel.Column{Name: "ADJ", Type: rel.KindString},
	)
	for _, name := range []string{"OADJ", "IADJ"} {
		if _, err := cat.CreateTable(name, schema); err != nil {
			return nil, err
		}
		if _, err := cat.CreateIndex(name+"_PK", name, true, []int{0}, "", nil); err != nil {
			return nil, err
		}
	}
	s := &JSONAdjStore{eng: engine.New(cat)}

	tx, err := cat.Begin([]string{"OADJ", "IADJ"}, nil)
	if err != nil {
		return nil, err
	}
	defer tx.Rollback()
	for _, v := range src.VertexIDs() {
		outs, err := src.OutEdges(v)
		if err != nil {
			return nil, err
		}
		if _, err := tx.Insert("OADJ", []rel.Value{rel.NewInt(v), rel.NewString(adjDoc(outs, true).String())}); err != nil {
			return nil, err
		}
		ins, err := src.InEdges(v)
		if err != nil {
			return nil, err
		}
		if _, err := tx.Insert("IADJ", []rel.Value{rel.NewInt(v), rel.NewString(adjDoc(ins, false).String())}); err != nil {
			return nil, err
		}
	}
	tx.Commit()
	return s, nil
}

func adjDoc(recs []blueprints.EdgeRec, outgoing bool) *sqljson.Doc {
	byLabel := map[string][]any{}
	for _, r := range recs {
		other := r.In
		if !outgoing {
			other = r.Out
		}
		byLabel[r.Label] = append(byLabel[r.Label], map[string]any{"eid": r.ID, "val": other})
	}
	m := make(map[string]any, len(byLabel))
	for l, entries := range byLabel {
		m[l] = entries
	}
	return sqljson.FromMap(m)
}

// Engine exposes the underlying engine (footprint reporting).
func (s *JSONAdjStore) Engine() *engine.Engine { return s.eng }

// Neighbors expands one hop from the frontier: fetch the adjacency
// documents through the engine and extract target ids from the JSON.
// This is exactly the access pattern the JSON layout forces — fetch the
// whole document, parse, filter client-side — and the reason Figure 3
// comes out the way it does.
func (s *JSONAdjStore) Neighbors(frontier []int64, labels []string, outgoing bool) ([]int64, error) {
	table := "OADJ"
	if !outgoing {
		table = "IADJ"
	}
	seen := map[int64]bool{}
	var next []int64
	const chunk = 512
	for start := 0; start < len(frontier); start += chunk {
		end := start + chunk
		if end > len(frontier) {
			end = len(frontier)
		}
		ids := make([]string, 0, end-start)
		for _, v := range frontier[start:end] {
			ids = append(ids, fmt.Sprint(v))
		}
		rows, err := s.eng.Query(fmt.Sprintf(
			"SELECT ADJ FROM %s WHERE VID IN (%s)", table, strings.Join(ids, ", ")))
		if err != nil {
			return nil, err
		}
		for _, row := range rows.Data {
			// Deserialize the document, as the engine would when reading
			// the JSON column off its pages.
			doc, err := sqljson.Parse(row[0].Str())
			if err != nil {
				return nil, err
			}
			for _, label := range labelsOrAll(doc, labels) {
				entries, ok := doc.Get(label)
				if !ok {
					continue
				}
				list, ok := entries.([]any)
				if !ok {
					continue
				}
				for _, e := range list {
					m, ok := e.(map[string]any)
					if !ok {
						continue
					}
					if val, ok := m["val"].(int64); ok && !seen[val] {
						seen[val] = true
						next = append(next, val)
					}
				}
			}
		}
	}
	return next, nil
}

func labelsOrAll(doc sqljson.Doc, labels []string) []string {
	if len(labels) > 0 {
		return labels
	}
	return doc.Keys()
}

// KHop runs a k-hop traversal with per-hop deduplication, returning the
// final frontier.
func (s *JSONAdjStore) KHop(start []int64, labels []string, hops int, outgoing bool) ([]int64, error) {
	frontier := start
	for h := 0; h < hops; h++ {
		next, err := s.Neighbors(frontier, labels, outgoing)
		if err != nil {
			return nil, err
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return frontier, nil
}

// KHopBoth ignores edge direction (the paper traverses team relations
// both ways).
func (s *JSONAdjStore) KHopBoth(start []int64, labels []string, hops int) ([]int64, error) {
	frontier := start
	for h := 0; h < hops; h++ {
		out, err := s.Neighbors(frontier, labels, true)
		if err != nil {
			return nil, err
		}
		in, err := s.Neighbors(frontier, labels, false)
		if err != nil {
			return nil, err
		}
		seen := map[int64]bool{}
		var next []int64
		for _, v := range append(out, in...) {
			if !seen[v] {
				seen[v] = true
				next = append(next, v)
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return frontier, nil
}
