package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"sqlgraph/internal/bench/queries"
	"sqlgraph/internal/translate"
)

// PlannerGate is the cost-based-planner regression gate: every Figure 5
// and Figure 6 query runs under the cost-based planner (ForcePlan 0) and
// pinned to the legacy syntactic join order (ForcePlan -1), and the run
// fails when a figure's geometric-mean work ratio (cost-based over
// syntactic) exceeds maxRatio — chosen plans must never do meaningfully
// more work than the old fixed order. Work is the planner's own cost
// formula evaluated on the rows each operator actually saw
// (engine.ExecStats.Work), so two identical plans give exactly 1 and
// the gate does not move with the machine. Each query's best-of-N
// timings are printed beside it and do not gate. The Figure 5 multi-hop
// subset (two or more traversal steps, where join order matters most) is
// reported separately.
func PlannerGate(env *DBpediaEnv, maxRatio float64, w io.Writer) error {
	fmt.Fprintf(w, "\n== Planner gate: cost-based vs syntactic join order, work on actual rows (max geomean ratio %.2f) ==\n", maxRatio)
	defer env.Store.SetForcePlan(0)

	one := func(gq string, opts translate.Options, forcePlan int) (time.Duration, float64, error) {
		env.Store.SetForcePlan(forcePlan)
		// Settle the heap first: the two modes allocate differently, and
		// without this a hash-heavy plan's garbage is collected inside the
		// other mode's timed window.
		runtime.GC()
		t0 := time.Now()
		res, err := env.Store.QueryTraced(gq, opts, "")
		if err != nil {
			return 0, 0, err
		}
		return time.Since(t0), res.Stats.Work(), nil
	}
	type side struct {
		best time.Duration
		work float64
	}
	// measure interleaves the two modes round by round (A B, A B, ...)
	// and keeps each mode's best time, so cache warmup and scheduler
	// drift hit both sides equally. The work of a plan is the same in
	// every round.
	measure := func(gq string, opts translate.Options) (syn, cost side, err error) {
		for _, fp := range []int{-1, 0} { // warmup, untimed
			if _, _, err = one(gq, opts, fp); err != nil {
				return
			}
		}
		const rounds = 5
		for i := 0; i < rounds; i++ {
			for _, m := range []struct {
				fp int
				s  *side
			}{{-1, &syn}, {0, &cost}} {
				d, work, err := one(gq, opts, m.fp)
				if err != nil {
					return syn, cost, err
				}
				if i == 0 || d < m.s.best {
					m.s.best = d
				}
				m.s.work = work
			}
		}
		return
	}

	type figAcc struct {
		logSum     float64
		n          int
		worst      string
		worstRatio float64
	}
	accs := map[string]*figAcc{}
	add := func(fig, name string, ratio float64) {
		a := accs[fig]
		if a == nil {
			a = &figAcc{}
			accs[fig] = a
		}
		a.logSum += math.Log(ratio)
		a.n++
		if a.worst == "" || ratio > a.worstRatio {
			a.worst, a.worstRatio = name, ratio
		}
	}
	geomean := func(fig string) (*figAcc, float64, bool) {
		a := accs[fig]
		if a == nil || a.n == 0 {
			return nil, 0, false
		}
		return a, math.Exp(a.logSum / float64(a.n)), true
	}

	check := func(fig, name, gq string, opts translate.Options) error {
		syn, cost, err := measure(gq, opts)
		if err != nil {
			return fmt.Errorf("%s %s: %w", fig, name, err)
		}
		ratio := cost.work / math.Max(syn.work, 1)
		add(fig, name, ratio)
		if fig == "fig5" && hopCount(gq) >= 2 {
			add("fig5-multihop", name, ratio)
		}
		fmt.Fprintf(w, "  %-6s %-5s work cost-based=%-10.0f syntactic=%-10.0f ratio=%.3f   time cost-based=%-12v syntactic=%v\n",
			fig, name, cost.work, syn.work, ratio, cost.best, syn.best)
		return nil
	}

	for i, gq := range queries.BenchmarkQueries(env.Data) {
		if err := check("fig5", fmt.Sprintf("q%d", i+1), gq, translate.Options{}); err != nil {
			return err
		}
	}
	for i, gq := range queries.PathQueries(env.Data) {
		if err := check("fig6", fmt.Sprintf("lq%d", i+1), gq, translate.Options{ForceHashTables: true}); err != nil {
			return err
		}
	}

	var failures []string
	for _, fig := range []string{"fig5", "fig6"} {
		a, g, ok := geomean(fig)
		if !ok {
			continue
		}
		verdict := "ok"
		if g > maxRatio {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf("%s geomean %.3f > %.2f (worst %s at %.3f)", fig, g, maxRatio, a.worst, a.worstRatio))
		}
		fmt.Fprintf(w, "  %s geomean work ratio (cost-based / syntactic): %.3f, worst %s %.3f [%s]\n", fig, g, a.worst, a.worstRatio, verdict)
	}
	if _, g, ok := geomean("fig5-multihop"); ok {
		note := "cost-based planning does less work"
		if g >= 1 {
			note = "no multi-hop win"
		}
		fmt.Fprintf(w, "  fig5 multi-hop geomean work ratio: %.3f (%s)\n", g, note)
	}
	if len(failures) > 0 {
		return fmt.Errorf("planner gate: %s", strings.Join(failures, "; "))
	}
	return nil
}

// hopCount counts traversal steps in a Gremlin pipeline — the join depth
// the planner gets to reorder.
func hopCount(gq string) int {
	n := 0
	for _, step := range []string{".out", ".in", ".both"} {
		n += strings.Count(gq, step)
	}
	return n
}
