package difftest

import (
	"errors"
	"fmt"
	"math/rand"

	"sqlgraph/internal/core"
	"sqlgraph/internal/gremlin"
)

// The "same shape, different literals, interleaved" arm. The store keeps
// one statement per query shape and binds each query's literals to it per
// execution, so the bugs to look for are stale or crossed arguments: an
// answer computed from the literals of the query that prepared the
// statement, of the previous execution, or of a neighbouring argument.
// Every pipeline is therefore instantiated several times over, the
// instantiations of all pipelines are run round-robin against one store —
// consecutive executions of a shape are separated by executions of every
// other shape — and each answer is checked against the interpreter, which
// knows nothing of shapes.

// idListLengths are the id-list lengths the draws of one pipeline use: a
// single id, a pair, and a list long enough to pass from comparing ids to
// a hash set and into another order of magnitude for the plan stamp.
var idListLengths = []int{1, 2, 500}

// Redraw returns the pipeline with its arguments drawn again: ids become a
// list of idCount distinct ids (most of them absent from the graph when
// the list is long), comparison values keep their kind two times in three
// and otherwise cross from int to string or back, which moves the query to
// a neighbouring shape with the same keys.
func Redraw(rng *rand.Rand, query string, numVertices, idCount int) (string, error) {
	q, err := gremlin.Parse(query)
	if err != nil {
		return "", err
	}
	redrawSteps(rng, q.Steps, numVertices, idCount)
	return q.String(), nil
}

func redrawSteps(rng *rand.Rand, steps []gremlin.Step, numVertices, idCount int) {
	for i := range steps {
		s := &steps[i]
		switch {
		case len(s.StartIDs) > 0:
			base := int64(0)
			if s.Kind == gremlin.StepE {
				base = 1000 // GenGraph numbers edges from 1000
			}
			perm := rng.Perm(max(numVertices, 4*idCount))
			s.StartIDs = make([]int64, idCount)
			for j := range s.StartIDs {
				s.StartIDs[j] = base + int64(perm[j])
			}
		case s.StartKey != "":
			s.StartVal = redrawValue(rng, s.StartVal)
		}
		switch s.Kind {
		case gremlin.StepHas, gremlin.StepFilter:
			if s.Key != "" && s.Op != "" {
				s.Value = redrawValue(rng, s.Value)
			}
		case gremlin.StepInterval:
			s.Lo, s.Hi = redrawValue(rng, s.Lo), redrawValue(rng, s.Hi)
		case gremlin.StepIfThenElse:
			if s.Test != nil && s.Test.Op != "" {
				s.Test.Value = redrawValue(rng, s.Test.Value)
			}
			redrawSteps(rng, s.Then, numVertices, idCount)
			redrawSteps(rng, s.Else, numVertices, idCount)
		}
	}
}

func redrawValue(rng *rand.Rand, v any) any {
	cross := rng.Intn(3) == 0
	switch v.(type) {
	case int64:
		if cross {
			return nameVals[rng.Intn(len(nameVals))]
		}
		return int64(rng.Intn(5))
	case string:
		if cross {
			return int64(rng.Intn(5))
		}
		return nameVals[rng.Intn(len(nameVals))]
	case float64:
		return float64(1+rng.Intn(9)) / 10
	}
	return v
}

// RunShapes is Run for the shapes arm: per graph, `pipelines` random
// pipelines, each as generated and redrawn once per entry of
// idListLengths, executed draw by draw across all pipelines — so the
// first round prepares the statements and every later one binds other
// literals to them — and then once more in reverse order against the
// fully warm store. arm sets each store up as Run's does.
func RunShapes(seed0 int64, graphs, pipelines int, opts []core.TranslateOptions, arm Arm) error {
	for gi := 0; gi < graphs; gi++ {
		seed := seed0 + int64(gi)
		rng := rand.New(rand.NewSource(seed))
		g := GenGraph(rng)
		s, err := load(g, arm)
		if err != nil {
			return fmt.Errorf("seed %d: load: %w", seed, err)
		}
		nV := g.CountVertices()
		var rounds [][]string // rounds[draw][pipeline]
		rounds = append(rounds, make([]string, pipelines))
		for pi := range rounds[0] {
			rounds[0][pi] = GenPipeline(rng, nV)
		}
		for _, n := range idListLengths {
			round := make([]string, pipelines)
			for pi, query := range rounds[0] {
				if round[pi], err = Redraw(rng, query, nV, n); err != nil {
					return fmt.Errorf("seed %d pipeline %d: redraw %q: %w", seed, pi, query, err)
				}
			}
			rounds = append(rounds, round)
		}
		check := func(pass string, draw, pi int) error {
			for _, o := range opts {
				if err := Check(s, g, rounds[draw][pi], o); err != nil {
					if errors.Is(err, ErrDivergence) {
						err = fmt.Errorf("%w\nas generated: %q", err, rounds[0][pi])
					}
					return fmt.Errorf("seed %d pipeline %d draw %d, %s (opts %+v): %w", seed, pi, draw, pass, o, err)
				}
			}
			return nil
		}
		for draw := range rounds {
			for pi := 0; pi < pipelines; pi++ {
				if err := check("cold pass", draw, pi); err != nil {
					return err
				}
			}
		}
		for draw := len(rounds) - 1; draw >= 0; draw-- {
			for pi := pipelines - 1; pi >= 0; pi-- {
				if err := check("warm pass", draw, pi); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
