package engine

import (
	"strings"
	"testing"
	"time"
)

// TestOperatorTimingsUnderParallelism runs a morsel-parallel hash join
// with aggregation, sort, and DISTINCT, and asserts every operator stat
// carries a wall time consistent with the query's total elapsed time
// (operator spans must nest inside the query: StartNs ≥ 0 and
// StartNs+Nanos ≤ total). The GROUP BY is the terminal of the hash
// probe's run, whose time goes to the join; the agg still carries a time
// of its own, that of emitting its groups. Each scan carries the time of
// the run it headed. Run under -race this also proves the timing fields
// are written without data races while morsel workers are live.
func TestOperatorTimingsUnderParallelism(t *testing.T) {
	e := newJoinEngine(t, 7, 6000, 6000) // above parallelMinRows so the probe fans out
	e.SetExecOptions(ExecOptions{Parallelism: 4, ForceJoin: StrategyHash})

	t0 := time.Now()
	rows, err := e.Query("SELECT DISTINCT L.K, COUNT(*) AS N FROM L, R WHERE L.K = R.K GROUP BY L.K ORDER BY N DESC")
	if err != nil {
		t.Fatal(err)
	}
	total := time.Since(t0).Nanoseconds()

	st := rows.Stats
	if len(st.Scans) != 2 || len(st.Joins) != 1 {
		t.Fatalf("expected 2 scans + 1 join, got %d/%d", len(st.Scans), len(st.Joins))
	}
	check := func(name string, startNs, nanos int64) {
		if nanos <= 0 {
			t.Errorf("%s: wall time not recorded (nanos=%d)", name, nanos)
		}
		if startNs < 0 {
			t.Errorf("%s: negative start offset %d", name, startNs)
		}
		if startNs+nanos > total {
			t.Errorf("%s: span [%d, %d] exceeds query total %d", name, startNs, startNs+nanos, total)
		}
	}
	for _, sc := range st.Scans {
		check("scan "+sc.Table, sc.StartNs, sc.Nanos)
	}
	j := st.Joins[0]
	if j.Workers <= 1 {
		t.Fatalf("join did not run parallel: workers=%d", j.Workers)
	}
	check("join", j.StartNs, j.Nanos)

	kinds := map[string]bool{}
	for _, op := range st.Ops {
		kinds[op.Kind] = true
		check("op "+op.Kind, op.StartNs, op.Nanos)
	}
	for _, want := range []string{"agg", "sort", "dedup"} {
		if !kinds[want] {
			t.Errorf("missing %q operator stat; ops=%v", want, st.Ops)
		}
	}

	// Operators run in sequence on the dispatch goroutine: the join must
	// start no earlier than the first scan.
	if j.StartNs < st.Scans[0].StartNs {
		t.Errorf("join starts before first scan: %d < %d", j.StartNs, st.Scans[0].StartNs)
	}

	// The rendered summary must carry the new kinds and timings.
	text := st.String()
	for _, want := range []string{"agg groups=", "sort in=", "dedup in=", "time="} {
		if !strings.Contains(text, want) {
			t.Errorf("ExecStats.String() missing %q:\n%s", want, text)
		}
	}
}
