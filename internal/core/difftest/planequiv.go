package difftest

import (
	"fmt"
	"math/rand"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/gremlin/interp"
)

// Plan-equivalence differential testing: a core's joins run in FROM
// order, and every strategy a join can be forced to must produce the same
// result multiset as the interpreter oracle. The strategy space is walked
// through ExecOptions.ForceJoin.

var forcedStrategies = []engine.JoinStrategy{
	engine.StrategyAuto, engine.StrategyHash, engine.StrategyNestedLoop,
}

// setForceJoin swaps the engine's forced join strategy.
func setForceJoin(s *core.Store, force engine.JoinStrategy) {
	opts := s.Engine().ExecOptionsInEffect()
	opts.ForceJoin = force
	s.Engine().SetExecOptions(opts)
}

// CheckPlans runs one pipeline against the oracle under each forced join
// strategy, auto first. Any divergence — an error or a differing multiset
// — is an executor correctness bug.
func CheckPlans(s *core.Store, oracle blueprints.Graph, query string, opts core.TranslateOptions) error {
	q, err := gremlin.Parse(query)
	if err != nil {
		return fmt.Errorf("parse %q: %w", query, err)
	}
	want, werr := interp.Eval(oracle, q)
	var wc []string
	if werr == nil {
		wc = canonical(normalize(want.Values()))
	}

	defer setForceJoin(s, engine.StrategyAuto)
	for _, force := range forcedStrategies {
		setForceJoin(s, force)
		got, err := s.QueryTraced(query, opts, "")
		label := fmt.Sprintf("force=%s", force)
		if werr != nil {
			// Both paths must refuse together; there is no strategy space to
			// walk for a refused pipeline.
			if err != nil {
				return nil
			}
			return fmt.Errorf("%w: oracle failed %q (store succeeded): %v", ErrDivergence, query, werr)
		}
		if err != nil {
			return fmt.Errorf("%w: store failed %q (%s, oracle succeeded): %v", ErrDivergence, query, label, err)
		}
		if err := compareCanonical(wc, canonical(got.Values), query, label); err != nil {
			return err
		}
	}
	return nil
}

func compareCanonical(want, got []string, query, label string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%w: %q (%s): oracle %d values %v, store %d values %v",
			ErrDivergence, query, label, len(want), want, len(got), got)
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%w: %q (%s) mismatch:\noracle: %v\nstore:  %v",
				ErrDivergence, query, label, want, got)
		}
	}
	return nil
}

// RunPlans generates random graphs and pipelines exactly like Run and
// applies CheckPlans to each. Each store carries maintained statistics
// (attached by core.Load), so table accesses are costed as in serving.
// arm sets each store up as Run's does.
func RunPlans(seed0 int64, graphs, pipelines int, opts []core.TranslateOptions, arm Arm) error {
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
				if err := CheckPlans(s, g, query, o); err != nil {
					return fmt.Errorf("seed %d pipeline %d (opts %+v): %w", seed, pi, o, err)
				}
			}
		}
	}
	return nil
}
