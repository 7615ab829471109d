package engine

import (
	"fmt"
	"testing"

	"sqlgraph/internal/rel"
)

// newBenchJoinEngine loads two non-indexed n-row tables whose K columns
// join with selectivity ~1 match per row (keys 0..n-1, shuffled by a
// fixed stride so neither side is sorted).
func newBenchJoinEngine(b *testing.B, n int) *Engine {
	b.Helper()
	e := New(rel.NewCatalog())
	mustTable(b, e, "L", intCol("K"), strCol("P"))
	mustTable(b, e, "R", intCol("K"), strCol("Q"))
	for i := 0; i < n; i++ {
		mustInsert(b, e, "L", row((i*7919)%n, fmt.Sprintf("l%d", i)))
		mustInsert(b, e, "R", row((i*104729)%n, fmt.Sprintf("r%d", i)))
	}
	return e
}

const benchJoinSQL = "SELECT L.P, R.Q FROM L, R WHERE L.K = R.K"

func runJoinBench(b *testing.B, n int, opts ExecOptions, wantStrategy JoinStrategy) {
	e := newBenchJoinEngine(b, n)
	e.SetExecOptions(opts)
	rows, err := e.Query(benchJoinSQL)
	if err != nil {
		b.Fatal(err)
	}
	if got := rows.Stats.JoinStrategies(); len(got) != 1 || got[0] != wantStrategy {
		b.Fatalf("join ran as %v, want [%s]; stats:\n%s", got, wantStrategy, rows.Stats.String())
	}
	if len(rows.Data) != n {
		b.Fatalf("join produced %d rows, want %d", len(rows.Data), n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(benchJoinSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// The acceptance pair: a non-indexed equi-join on two 10k-row tables,
// hash (planner default) vs forced nested loop.
func BenchmarkEquiJoin10k_Hash(b *testing.B) {
	runJoinBench(b, 10_000, ExecOptions{Parallelism: 1}, StrategyHash)
}

func BenchmarkEquiJoin10k_NestedLoop(b *testing.B) {
	runJoinBench(b, 10_000, ExecOptions{Parallelism: 1, ForceJoin: StrategyNestedLoop}, StrategyNestedLoop)
}

// The morsel-parallelism pair: same hash join plus a pushed-down scan
// filter, serial vs all cores. Results are verified byte-identical in
// TestParallelScanDeterminism / TestJoinStrategyEquivalence.
const benchParSQL = "SELECT L.P, R.Q FROM L, R WHERE L.K = R.K AND L.K % 3 != 1 AND R.Q != 'r7'"

func runParBench(b *testing.B, par int) {
	e := newBenchJoinEngine(b, 60_000)
	e.SetExecOptions(ExecOptions{Parallelism: par})
	if _, err := e.Query(benchParSQL); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(benchParSQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanProbe60k_Serial(b *testing.B)   { runParBench(b, 1) }
func BenchmarkScanProbe60k_Parallel(b *testing.B) { runParBench(b, 0) }
