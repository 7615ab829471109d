package engine

import (
	"fmt"
	"strings"
	"time"
)

// JoinStrategy names a join algorithm the executor can run.
type JoinStrategy string

const (
	// StrategyAuto picks index-NL where an index covers the join keys,
	// else hash, and nested-loop for cross joins and non-equi conditions.
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
	// AltStrategy is the strategy the join would have run under had its
	// rule not applied: hash for an index-NL join, nested-loop for a hash
	// join, hash for a forced nested loop over equi-join terms.
	AltStrategy JoinStrategy
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
// how long each operator took. Benchmarks use it to assert join
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
	// PlanVariants is always 0: joins run in FROM order, so no core has
	// join orders to enumerate. It stays only because the benchmark
	// harness (benchmark/trace.go) reads it.
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

// costBuildRow weighs a row hashed into a join's build side against one
// probed (1), in Work.
const costBuildRow = 1.2

// Work weighs the rows each scan and join actually saw: a full scan
// costs the rows it examined, an index access the rows it returned plus
// a probe; an index nested-loop join a probe per outer row plus the
// candidates the probes returned, a hash join its build rows weighted
// plus its probe rows, a nested loop outer times inner rows. It is a sum
// of row counts, so two runs of one plan do the same work at any worker
// count, and a plan that does more of it shows without timing noise.
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
		fmt.Fprintf(&sb, "scan %s [%s] in=%d out=%d morsels=%d workers=%d time=%s\n",
			sc.Table, sc.Access, sc.RowsIn, sc.RowsOut, sc.Morsels, sc.Workers, fmtNanos(sc.Nanos))
	}
	for _, j := range s.Joins {
		alt := ""
		if j.AltStrategy != StrategyAuto {
			alt = fmt.Sprintf(" alt=%s", j.AltStrategy)
		}
		fmt.Fprintf(&sb, "join %s [%s] build=%d probe=%d out=%d%s morsels=%d×%d workers=%d time=%s\n",
			j.Table, j.Strategy, j.BuildRows, j.ProbeRows, j.OutRows, alt, j.Morsels, j.MorselRows, j.Workers, fmtNanos(j.Nanos))
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

// ExecOptions tunes query execution. The zero value means: each join's
// strategy by its rule (StrategyAuto), morsel parallelism up to
// GOMAXPROCS.
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
}
