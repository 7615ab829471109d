package core

import (
	"fmt"
	"time"

	"sqlgraph/internal/engine"
	"sqlgraph/internal/metrics"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/trace"
)

// Telemetry accessors: the serving layer registers these against its
// metrics registry, and the lifecycle event journal records structural
// transitions (checkpoints, vacuums, slow queries) wherever the store is
// embedded. Stores always carry a journal — constructors install a
// default one — so instrumented paths never nil-check.

// SetEventJournal replaces the store's lifecycle event journal and wires
// the slow-query observer so slow traces become journal entries. The
// serving layer calls this to share one journal across store swaps
// (replica snapshot installs); passing nil installs a fresh default.
func (s *Store) SetEventJournal(j *metrics.Journal) {
	if j == nil {
		j = metrics.NewJournal(0)
	}
	s.events.Store(j)
	s.tracer.SetSlowObserver(func(t *trace.Trace) {
		s.events.Load().RecordDur("slow-query", fmt.Sprintf("trace=%s name=%s", t.ID, t.Name), t.Duration(), nil)
	})
}

// Events returns the store's lifecycle event journal (never nil).
func (s *Store) Events() *metrics.Journal { return s.events.Load() }

// PlanCacheStats reports the SQL engine's plan-cache counters.
func (s *Store) PlanCacheStats() engine.PlanCacheStats { return s.eng.PlanCacheStats() }

// PreparedCacheStats reports hits and misses of the prepared-statement
// cache, per query shape: a miss is one translation and one SQL parse.
func (s *Store) PreparedCacheStats() (hits, misses uint64) {
	return s.preparedHits.Load(), s.preparedMisses.Load()
}

// PreparedStatements reports how many query shapes hold a statement.
func (s *Store) PreparedStatements() int {
	s.preparedMu.RLock()
	defer s.preparedMu.RUnlock()
	return len(s.prepared)
}

// TailQueries is always 0: every query is one SQL statement. Its sole
// caller is the frozen benchmark harness (benchmark/).
func (s *Store) TailQueries() uint64 { return 0 }

// WALBuffered reports records appended to the WAL but not yet flushed
// (zero for in-memory stores).
func (s *Store) WALBuffered() int {
	if s.wal == nil {
		return 0
	}
	return s.wal.Buffered()
}

// OldestPinAge reports how long the oldest open snapshot pin has been
// held (zero when nothing is pinned).
func (s *Store) OldestPinAge() time.Duration { return s.cat.OldestPinAge() }

// GCStats reports the MVCC version-GC backlog and reclamation counters.
func (s *Store) GCStats() rel.GCStats { return s.cat.GCStats() }
