package core

import "sqlgraph/internal/stats"

// Optimizer statistics wiring. Every store carries a stats.Collection
// attached as the catalog's change observer, so the engine costs each
// table access (index path or full scan) from maintained null and
// non-negative counts, NDV sketches and histograms, and `sqlgraph stats`
// and /stats describe row counts and per-edge-label degree summaries.
// Histograms are rebuild-only; they are refreshed at bulk load, crash
// recovery, and every checkpoint.

// optStatsConfig describes which statistics are maintained per table.
//
//   - VA: row count + NDV/histogram on VID (vertex lookups, soft-delete
//     guard selectivity via the always-on NonNeg counters).
//   - EA: NDV on EID/INV/OUTV/LBL, histograms on the endpoint columns,
//     and per-label group stats (edge count plus distinct sources and
//     targets per label — the out/in-degree summaries).
//   - OPA/IPA: NDV on VID (adjacency rows per vertex).
//   - OSA/ISA: NDV on the list id (multi-value fan-out).
func optStatsConfig() stats.Config {
	return stats.Config{Tables: []stats.TableSpec{
		{Name: TableVA, NDVCols: []int{vaVID}, HistCols: []int{vaVID}, GroupCol: -1},
		{Name: TableEA, NDVCols: []int{eaEID, eaINV, eaOUTV, eaLBL}, HistCols: []int{eaINV, eaOUTV},
			GroupCol: eaLBL, GroupNDVCols: []int{eaINV, eaOUTV}},
		{Name: TableOPA, NDVCols: []int{adjVID}, GroupCol: -1},
		{Name: TableIPA, NDVCols: []int{adjVID}, GroupCol: -1},
		{Name: TableOSA, NDVCols: []int{secVALID}, GroupCol: -1},
		{Name: TableISA, NDVCols: []int{secVALID}, GroupCol: -1},
	}}
}

// initOptStats builds the collection and plugs it into both consumers:
// the catalog (incremental maintenance on every commit) and the engine
// (the StatsProvider access paths are costed from). Called by newMemStore before any row
// exists, so incremental counters are exact from the first insert.
func (s *Store) initOptStats() {
	s.optStats = stats.NewCollection(s.cat, optStatsConfig())
	s.cat.SetChangeObserver(s.optStats)
	s.eng.SetStatsProvider(s.optStats)
}

// OptimizerStats exposes the maintained statistics (server /stats
// section, CLI `sqlgraph stats`, invariant tests, the benchmark harness).
func (s *Store) OptimizerStats() *stats.Collection { return s.optStats }

// RefreshStats rebuilds every tracked table's statistics from a scan,
// including the rebuild-only histograms.
func (s *Store) RefreshStats() error { return s.optStats.RebuildAll() }
