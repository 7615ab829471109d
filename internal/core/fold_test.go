package core

import (
	"runtime"
	"testing"
)

// TestAttributeStepsOneScan guards the translator's fold at the engine:
// a step that reads the attribute row right after the source — a
// closure filter, order{}, groupCount, groupBy, a property — runs as the
// source's one scan or probe of VA or EA, with no join back to the table
// it already read, in every storage mode; and the 200-vertex graph's
// shapes allocate accordingly. A fall-back to the join shows as a second
// access and a join, and as several times the bytes.
func TestAttributeStepsOneScan(t *testing.T) {
	s := estCorpusGraph(t, 200)
	defer s.Close()
	var texts []string
	for _, src := range []string{"g.V", "g.V(3, 4, 5, 6)", "g.V('name', 'n2')"} {
		for _, step := range []string{".filter{it.k * 2 > 3}", ".order{it.k}", ".order{it.name}.range(2, 5)", ".groupCount{it.k}", ".groupBy{it.k}{it.name}", ".name"} {
			texts = append(texts, src+step)
		}
	}
	texts = append(texts, "g.E.filter{it.w * 2 > 1}", "g.E.order{it.w}", "g.E.groupCount{it.label}", "g.E.groupBy{it.label}{it.w}", "g.E.w")
	for _, opts := range []TranslateOptions{{}, {ForceEA: true}, {ForceHashTables: true}} {
		for _, text := range texts {
			res, err := s.QueryTraced(text, opts, "")
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			st := &res.Stats
			if len(st.Scans) != 1 || (st.Scans[0].Table != "VA" && st.Scans[0].Table != "EA") || len(st.Joins) != 0 {
				t.Fatalf("%s %+v: want one VA/EA access and no join\n%s", text, opts, st.String())
			}
		}
	}

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		for _, text := range texts {
			if _, err := s.Query(text); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	// 792 KB per pass measured with the 24-byte rel.Value (958 KB with the
	// 48-byte one, 1.76 MB with each step joined), x 1.35.
	const ceiling = 1_069_000
	if perPass := (after.TotalAlloc - before.TotalAlloc) / runs; perPass > ceiling {
		t.Fatalf("%d fused shapes allocate %d bytes per pass, ceiling %d", len(texts), perPass, ceiling)
	}
}
