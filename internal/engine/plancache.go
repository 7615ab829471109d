package engine

import (
	"sync"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// StatsProvider supplies the column statistics access paths are costed
// from (scanPlan.accessPath). internal/stats.Collection implements it;
// the interface lives here so the engine does not depend on the stats
// package. Every method returns ok=false when the statistic is not
// maintained for that table/column, in which case the path is costed at
// selIndexUnknown (DESIGN.md §15).
type StatsProvider interface {
	// FracNonNull returns the fraction of rows with a non-null value.
	FracNonNull(table string, col int) (float64, bool)
	// FracNonNeg returns the fraction of rows whose value is an integer
	// >= 0 (the exact selectivity of the soft-delete guard).
	FracNonNeg(table string, col int) (float64, bool)
	// SelEq estimates the selectivity of col = v.
	SelEq(table string, col int, v rel.Value) (float64, bool)
	// SelRange estimates the fraction of rows in [lo, hi]; nil = open.
	SelRange(table string, col int, lo, hi *rel.Value) (float64, bool)
}

// prepared returns the core's plan under this execution's stamp,
// preparing it (prepareCore) when none is cached on the core's node. A
// plan holds nothing of the execution that prepared it, so one plan
// serves concurrent executions with other arguments.
func (e *Engine) prepared(q *queryState, sel *sql.SimpleSelect) (*corePlan, error) {
	stamp := planStamp{asOf: q.asOf, forceJoin: q.force, schema: e.cat.SchemaVersion()}
	c, cached := e.planCache.Load(sel)
	if !cached {
		e.planMisses.Add(1)
		c = &planCacheEntry{}
		e.cachePlan(sel, c)
	} else if cp, ok := c.(*planCacheEntry).lookup(stamp); ok {
		e.planHits.Add(1)
		return cp, nil
	} else {
		e.planInvalidations.Add(1)
	}
	cp, err := e.prepareCore(q, sel)
	if err != nil {
		return nil, err
	}
	c.(*planCacheEntry).store(stamp, cp)
	return cp, nil
}

// cachePlan stores v under key. Entries are keyed by statement node and
// outlive the statement, so the cache is emptied past maxCachedPlans:
// plans of statements still prepared come back on their next execution,
// those of discarded ones (and the nodes they pin) go.
func (e *Engine) cachePlan(key, v any) {
	if e.planCacheLen.Add(1) > maxCachedPlans {
		e.planCache.Range(func(k, _ any) bool { e.planCache.Delete(k); return true })
		e.planCacheLen.Store(1)
	}
	e.planCache.Store(key, v)
}

const (
	// maxCachedPlans bounds the plan cache (one entry per SELECT core, a
	// handful per statement).
	maxCachedPlans = 1 << 14
	// maxPlanVariants bounds the plans kept for one core: enough for a
	// live reader beside pinned snapshots and the forced strategies; the
	// oldest goes first.
	maxPlanVariants = 8
)

// planStamp is what a cached plan was prepared under: the snapshot (an
// index born after it is not used), the forced join strategy and the
// catalog. Nothing a commit changes is in it, so a write re-prepares
// nothing.
type planStamp struct {
	asOf      rel.Version
	forceJoin JoinStrategy
	schema    uint64
}

// planCacheEntry holds the plans cached for one SELECT core, newest first.
type planCacheEntry struct {
	mu       sync.Mutex
	variants []planVariant
}

type planVariant struct {
	stamp planStamp
	plan  *corePlan
}

func (ce *planCacheEntry) lookup(stamp planStamp) (*corePlan, bool) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	for _, v := range ce.variants {
		if v.stamp == stamp {
			return v.plan, true
		}
	}
	return nil, false
}

func (ce *planCacheEntry) store(stamp planStamp, plan *corePlan) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if len(ce.variants) < maxPlanVariants {
		ce.variants = append(ce.variants, planVariant{})
	}
	copy(ce.variants[1:], ce.variants)
	ce.variants[0] = planVariant{stamp: stamp, plan: plan}
}
