package experiments

import (
	"testing"

	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/core"
	"sqlgraph/internal/translate"
)

func BenchmarkProfileAdjacency(b *testing.B) {
	d, err := dbpedia.Generate(DBpediaConfig(ScaleSmall))
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Load(d.Graph, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	qs := queries.AdjacencyQueries(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := s.QueryTraced(q.Gremlin(), translate.Options{ForceHashTables: true}, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
}
