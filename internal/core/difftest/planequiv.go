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

// Plan-equivalence differential testing: every join order the cost-based
// planner can enumerate, crossed with every forced join strategy, must
// produce the same result multiset as the interpreter oracle. The plan
// space is walked through ExecOptions.ForcePlan (-1 = syntactic order,
// k >= 1 = k-th enumerated order) and ExecOptions.ForceJoin.

var forcedStrategies = []engine.JoinStrategy{
	engine.StrategyAuto, engine.StrategyHash, engine.StrategyNestedLoop,
}

// setExec swaps the engine's plan pin and forced strategy.
func setExec(s *core.Store, forcePlan int, force engine.JoinStrategy) {
	opts := s.Engine().ExecOptionsInEffect()
	opts.ForcePlan = forcePlan
	opts.ForceJoin = force
	s.Engine().SetExecOptions(opts)
}

// CheckPlans runs one pipeline against the oracle under the cost-based
// plan first (learning how many join orders the planner enumerated),
// then re-runs it pinned to the syntactic order and to every enumerated
// order, each crossed with every forced join strategy. Any divergence —
// an error or a differing multiset — is a planner correctness bug.
func CheckPlans(s *core.Store, oracle blueprints.Graph, query string, opts core.TranslateOptions) error {
	q, err := gremlin.Parse(query)
	if err != nil {
		return fmt.Errorf("parse %q: %w", query, err)
	}
	want, werr := interp.Eval(oracle, q)

	defer setExec(s, 0, engine.StrategyAuto)
	setExec(s, 0, engine.StrategyAuto)
	base, err := s.QueryTraced(query, opts, "")
	if werr != nil {
		// Both paths must refuse together; there is no plan space to walk
		// for a refused pipeline.
		if err != nil {
			return nil
		}
		return fmt.Errorf("%w: oracle failed %q (store succeeded): %v", ErrDivergence, query, werr)
	}
	if err != nil {
		return fmt.Errorf("%w: store failed %q (cost-based, oracle succeeded): %v", ErrDivergence, query, err)
	}
	wc := canonical(normalize(want.Values()))
	if err := compareCanonical(wc, canonical(base.Values), query, "cost-based"); err != nil {
		return err
	}
	variants := base.Stats.PlanVariants

	for k := -1; k <= variants; k++ {
		if k == 0 {
			continue // the cost-based run above
		}
		for _, force := range forcedStrategies {
			setExec(s, k, force)
			got, err := s.QueryTraced(query, opts, "")
			label := fmt.Sprintf("plan=%d force=%s", k, force)
			if err != nil {
				return fmt.Errorf("store %q (%s): %w", query, label, err)
			}
			if err := compareCanonical(wc, canonical(got.Values), query, label); err != nil {
				return err
			}
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
// applies CheckPlans to each. Each store carries maintained optimizer
// statistics (attached by core.Load), so the cost-based baseline
// exercises real estimates, not the no-provider fallback. arm sets each
// store up as Run's does.
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
