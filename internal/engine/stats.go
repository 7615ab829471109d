package engine

import (
	"fmt"
	"strings"
	"time"
)

// JoinStrategy names a join algorithm the executor can run.
type JoinStrategy string

const (
	// StrategyAuto lets the planner choose (index-NL > hash > nested-loop).
	StrategyAuto JoinStrategy = ""
	// StrategyIndexNL probes a base-table index once per outer row.
	StrategyIndexNL JoinStrategy = "index-nl"
	// StrategyHash hashes the right input and probes it with every row of
	// the left one as they flow past.
	StrategyHash JoinStrategy = "hash"
	// StrategyNestedLoop compares every pair of rows; the only strategy
	// for cross joins and non-equi conditions.
	StrategyNestedLoop JoinStrategy = "nested-loop"
)

// JoinStat records one executed join operator.
type JoinStat struct {
	Strategy   JoinStrategy
	Table      string // right-side alias (or table name) being joined in
	BuildRows  int    // rows hashed (hash) / outer rows (index-nl, nested-loop)
	ProbeRows  int    // rows probed against the build side
	OutRows    int    // rows emitted (before later operators)
	Morsels    int    // morsels of the runs the join was a stage of
	MorselRows int    // head rows per morsel of the last of those runs (see PipelineStat)
	Workers    int    // workers that executed those runs (1 = serial)
	StartNs    int64  // start of that run, relative to query start
	Nanos      int64  // wall time of the runs the join was the first join of (see PipelineStat)

	// Cost-based planner annotations. EstRows/EstCost are the planner's
	// estimates for this join (-1 when the planner did not cost it);
	// AltStrategy/AltCost describe the best strategy it considered but
	// rejected (AltCost -1 when the alternative was not costed, e.g.
	// legacy heuristic planning).
	EstRows     int64
	EstCost     float64
	AltStrategy JoinStrategy
	AltCost     float64
}

// ScanStat records one base-table access. It is the head of a run
// (PipelineStat): its start, wall time, morsels and workers are the
// run's.
type ScanStat struct {
	Table   string
	Access  string // "full-scan", "index-eq", "index-in", "index-range", "index-notnull"
	RowsIn  int    // live rows examined
	RowsOut int    // rows surviving pushed-down filters
	Morsels int
	Workers int
	StartNs int64 // operator start, relative to query start
	Nanos   int64 // operator wall time
	EstRows int64 // planner-estimated output rows (-1 when not costed)
}

// CTEStat records one common table expression.
type CTEStat struct {
	Name    string
	Rows    int  // rows the CTE produced, stored or not
	Fused   bool // the rows flowed into the CTE's one reader; nothing was stored
	StartNs int64
	Nanos   int64 // binding the name; a fused CTE's rows are produced in its reader's run
}

// PipelineStat records one run: stored rows, or the rows a table access
// passes, pushed through a chain of stages into a terminal that stores,
// deduplicates, aggregates or sorts and cuts them. Only the run is timed.
// Its wall time is charged to its scan (or, having none, to its first
// join, or, having neither, to its terminal operator); the other stages
// carry row counts and no time.
type PipelineStat struct {
	Scan   int   // index into ExecStats.Scans of the table access the run started at, -1 when it started from stored rows
	Joins  []int // indices into ExecStats.Joins of the join stages, in order
	Op     int   // index into ExecStats.Ops of the dedup, agg, sort or limit terminal, -1 when rows were just stored
	RowsIn int   // stored rows, or rows scanned, the run started from
	// Morsels, MorselRows and Workers say how the run was cut: a run on one
	// worker is one morsel of all its head rows; a parallel run from stored
	// rows is a first morsel that measured the fan-out, then morsels of
	// MorselRows head rows each; a scan's morsels are MorselRows slots,
	// or probes.
	Morsels    int
	MorselRows int
	Workers    int
	StartNs    int64
	Nanos      int64
}

// OpStat records a non-scan, non-join operator: aggregation, sort, a
// LIMIT or OFFSET with no ORDER BY, or duplicate elimination.
type OpStat struct {
	Kind    string // "agg", "sort", "limit", "dedup"
	RowsIn  int
	RowsOut int
	Groups  int    // aggregation groups (agg only)
	Order   string // the order a dedup emitted its rows in: OrderAscending, OrderFirstOccurrence or OrderAscendingThenFirst
	StartNs int64  // operator start, relative to query start
	Nanos   int64  // operator wall time
}

// The orders a DISTINCT emits its rows in (OpStat.Order).
const (
	// OrderAscending: every row was one integer and no ORDER BY was
	// upstream, so the ids came out sorted.
	OrderAscending = "ascending"
	// OrderFirstOccurrence: rows came out in the order they first arrived.
	OrderFirstOccurrence = "first-occurrence"
	// OrderAscendingThenFirst: with no ORDER BY upstream, the one-integer
	// rows came out sorted, ahead of the others in first-occurrence order.
	OrderAscendingThenFirst = "ascending+first-occurrence"
)

// ExecStats summarizes how a query executed: which join strategies ran,
// what each operator examined and emitted, how work was morselized, and
// how long each operator took. Benchmarks use it to assert planner
// decisions (e.g. that a non-indexed equi-join really ran as a hash
// join); tracing lifts the timings into per-operator spans.
type ExecStats struct {
	Scans []ScanStat
	Joins []JoinStat
	Ops   []OpStat
	CTEs  []CTEStat
	// Pipelines lists the runs the operators above executed in.
	Pipelines []PipelineStat
	// MaterializedRows totals the rows operators stored: CTEs with several
	// readers, DISTINCT and aggregate outputs, hash-join build sides, the
	// copies an ORDER BY/LIMIT cut kept. Rows that only flowed through a
	// pipeline are not in it, nor are the per-morsel buffers a parallel run
	// hands its terminal in order, nor a table's row images or stored rows
	// kept as they are (a hash-join build side read straight from a
	// filtered scan, a cut over a stored result).
	MaterializedRows int
	// PlanVariants is the number of distinct join orders the planner
	// enumerated for the largest reorderable FROM clause in the query
	// (0 when nothing was reorderable). The plan-equivalence differential
	// tester sweeps ExecOptions.ForcePlan over 1..PlanVariants.
	PlanVariants int
}

// JoinStrategies returns the strategies of the executed joins, in order.
func (s *ExecStats) JoinStrategies() []JoinStrategy {
	out := make([]JoinStrategy, len(s.Joins))
	for i, j := range s.Joins {
		out[i] = j.Strategy
	}
	return out
}

// MaxWorkers reports the widest parallel fan-out any operator used.
func (s *ExecStats) MaxWorkers() int {
	w := 1
	for _, sc := range s.Scans {
		if sc.Workers > w {
			w = sc.Workers
		}
	}
	for _, j := range s.Joins {
		if j.Workers > w {
			w = j.Workers
		}
	}
	return w
}

// Work is the planner's cost formula (costOrder) evaluated on the rows
// each scan and join actually saw rather than on estimates: a full scan
// costs the rows it examined, an index access the rows it returned plus
// a probe; an index nested-loop join a probe per outer row plus the
// candidates the probes returned, a hash join its build rows weighted
// plus its probe rows, a nested loop outer times inner rows. Two runs of
// one plan do the same work, so it compares the plans of two planner
// settings without timing noise.
func (s *ExecStats) Work() float64 {
	w := 0.0
	for _, sc := range s.Scans {
		if sc.Access == "full-scan" {
			w += costScanRow * float64(sc.RowsIn)
		} else {
			w += float64(sc.RowsOut) + costProbe
		}
	}
	for _, j := range s.Joins {
		switch j.Strategy {
		case StrategyIndexNL:
			w += costProbe*float64(j.BuildRows) + float64(j.ProbeRows)
		case StrategyHash:
			w += costBuildRow*float64(j.BuildRows) + float64(j.ProbeRows)
		default:
			w += float64(j.BuildRows) * max(float64(j.ProbeRows), 1)
		}
	}
	return w
}

// String renders a compact one-line-per-operator plan summary, timing
// included — the same operator lines the server's EXPLAIN ANALYZE span
// tree carries.
func (s *ExecStats) String() string {
	var sb strings.Builder
	for _, c := range s.CTEs {
		fused := ""
		if c.Fused {
			fused = " fused"
		}
		fmt.Fprintf(&sb, "cte %s%s act=%d time=%s\n", c.Name, fused, c.Rows, fmtNanos(c.Nanos))
	}
	for _, sc := range s.Scans {
		est := ""
		if sc.EstRows >= 0 {
			est = fmt.Sprintf(" est=%d", sc.EstRows)
		}
		fmt.Fprintf(&sb, "scan %s [%s] in=%d out=%d%s morsels=%d workers=%d time=%s\n",
			sc.Table, sc.Access, sc.RowsIn, sc.RowsOut, est, sc.Morsels, sc.Workers, fmtNanos(sc.Nanos))
	}
	for _, j := range s.Joins {
		est := ""
		if j.EstRows >= 0 {
			est = fmt.Sprintf(" est=%d", j.EstRows)
			if j.EstCost >= 0 {
				est += fmt.Sprintf(" cost=%.0f", j.EstCost)
			}
		}
		alt := ""
		if j.AltStrategy != StrategyAuto {
			if j.AltCost >= 0 {
				alt = fmt.Sprintf(" alt=%s(cost=%.0f)", j.AltStrategy, j.AltCost)
			} else {
				alt = fmt.Sprintf(" alt=%s", j.AltStrategy)
			}
		}
		fmt.Fprintf(&sb, "join %s [%s] build=%d probe=%d out=%d%s%s morsels=%d×%d workers=%d time=%s\n",
			j.Table, j.Strategy, j.BuildRows, j.ProbeRows, j.OutRows, est, alt, j.Morsels, j.MorselRows, j.Workers, fmtNanos(j.Nanos))
	}
	for _, op := range s.Ops {
		switch op.Kind {
		case "agg":
			fmt.Fprintf(&sb, "agg groups=%d in=%d out=%d time=%s\n",
				op.Groups, op.RowsIn, op.RowsOut, fmtNanos(op.Nanos))
		case "dedup":
			fmt.Fprintf(&sb, "dedup in=%d out=%d order=%s time=%s\n",
				op.RowsIn, op.RowsOut, op.Order, fmtNanos(op.Nanos))
		default: // sort, limit
			fmt.Fprintf(&sb, "%s in=%d out=%d time=%s\n",
				op.Kind, op.RowsIn, op.RowsOut, fmtNanos(op.Nanos))
		}
	}
	return sb.String()
}

// fmtNanos renders an operator wall time rounded to the microsecond.
func fmtNanos(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// ExecOptions tunes query execution. The zero value means: planner's
// choice of join strategy, morsel parallelism up to GOMAXPROCS.
type ExecOptions struct {
	// Parallelism caps the number of workers morsel-parallel operators
	// (scans, filters, hash-join probes) may use. 0 means GOMAXPROCS;
	// 1 forces fully serial execution.
	Parallelism int
	// ForceJoin overrides join-strategy selection for every join in the
	// query: StrategyHash skips index selection, StrategyNestedLoop
	// evaluates equi-join conditions as residual predicates. Used by
	// benchmarks and the strategy-equivalence tests.
	ForceJoin JoinStrategy
	// ForcePlan pins the join order for reorderable FROM clauses:
	//   0  — cost-based planning when a stats provider is attached,
	//        legacy syntactic order otherwise;
	//  -1  — always the syntactic order (cost-based planning off);
	//  k≥1 — the k-th enumerated order (1 = syntactic), wrapping modulo
	//        the number of enumerated orders. Pinned orders neutralize
	//        per-join strategy choices so ForceJoin composes with them.
	// Used by the plan-equivalence differential tester.
	ForcePlan int
}
