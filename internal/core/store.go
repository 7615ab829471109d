package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core/coloring"
	"sqlgraph/internal/engine"
	"sqlgraph/internal/metrics"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/sqljson"
	"sqlgraph/internal/stats"
	"sqlgraph/internal/trace"
	"sqlgraph/internal/wal"
)

// DeleteMode selects the vertex-deletion strategy (paper Section 4.5.2).
type DeleteMode int

const (
	// DeleteClean soft-deletes the vertex's own rows (VID := -VID-1) and
	// additionally removes incident-edge entries from the neighbors'
	// adjacency rows, so query results never contain dangling ids.
	DeleteClean DeleteMode = iota
	// DeletePaperSoft is the paper's exact optimization: only negate the
	// vertex id and drop EA rows. Neighbors' adjacency cells keep dangling
	// references until Vacuum runs; queries guard VID columns with
	// VID >= 0 but a dangling id can appear in a final result set. Used by
	// the soft-delete ablation benchmark.
	DeletePaperSoft
)

// ColoringMode selects the label-to-column hash construction.
type ColoringMode int

const (
	// ColoringGreedy is the paper's co-occurrence graph coloring.
	ColoringGreedy ColoringMode = iota
	// ColoringModulo is the naive hash baseline (ablation).
	ColoringModulo
)

// Options configures a store.
type Options struct {
	// OutCols / InCols bound the number of column triads in OPA / IPA.
	// Zero means the default of 8. Bulk loading may use fewer when the
	// coloring needs fewer.
	OutCols int
	InCols  int
	// Coloring selects greedy coloring (default) or the modulo baseline.
	Coloring ColoringMode
	// DeleteMode selects vertex deletion behavior.
	DeleteMode DeleteMode
	// Dir, when non-empty, makes the store durable: mutations are
	// write-ahead logged under this directory and Open recovers whatever
	// state the directory holds. An existing directory's snapshot pins
	// the structural options (OutCols, InCols, Coloring, DeleteMode);
	// the caller's values apply only to a fresh directory.
	Dir string
	// SnapshotEvery is the checkpoint cadence in log records: 0 means the
	// default (4096), negative disables automatic snapshots. Only
	// meaningful with Dir.
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.OutCols <= 0 {
		o.OutCols = 8
	}
	if o.InCols <= 0 {
		o.InCols = 8
	}
	return o
}

// Store is a SQLGraph property-graph store over the embedded relational
// engine. Its reads and queries are those of its View at the head.
type Store struct {
	View // the store head: st is the store itself, ver rel.Latest

	opts      Options
	cat       *rel.Catalog
	eng       *engine.Engine
	outAssign *coloring.Assignment
	inAssign  *coloring.Assignment
	outCols   int
	inCols    int

	mu      sync.Mutex
	nextLID int64 // negative list-id allocator for OSA/ISA

	// Durability (nil / zero for in-memory stores).
	wal    *wal.Log
	snapMu sync.Mutex // serializes checkpoints, explicit and automatic

	// The automatic checkpoint runs on a goroutine of its own, one at a
	// time (durable.go: maybeSnapshot).
	cpMu      sync.Mutex
	cpIdle    *sync.Cond // signalled when cpRunning falls
	cpRunning bool
	closed    bool // Close was called: no further automatic checkpoint

	preparedMu sync.RWMutex
	prepared   map[preparedKey]*preparedQuery // one statement per query shape, at most maxPrepared
	tracer     *trace.Recorder                // trace rings + write-path counters (never nil)
	optStats   *stats.Collection              // planner statistics (never nil)

	// Telemetry (telemetry.go): prepared-statement cache counters, plus
	// the lifecycle event journal.
	preparedHits   atomic.Uint64
	preparedMisses atomic.Uint64
	events         atomic.Pointer[metrics.Journal] // never nil after construction

	// Pre-resolved transaction lock plans for the stored procedures (one
	// transaction per graph operation; re-resolving names per call showed
	// up in write-heavy profiles).
	fpAll     *rel.Footprint // write: every table
	fpReadVA  *rel.Footprint // read: VA
	fpReadEA  *rel.Footprint // read: EA
	fpReadEV  *rel.Footprint // read: EA + VA
	fpReadAll *rel.Footprint // read: every table (checkpoint pin section, fsck)

	// fpOne is the write footprint of a lone record of an op that writes
	// one table (VA or EA); other ops and batches take fpAll.
	fpOne map[wal.OpKind]*rel.Footprint
}

// initFootprints builds the cached lock plans; called after createSchema.
func (s *Store) initFootprints() error {
	var err error
	if s.fpAll, err = s.cat.Footprint(writeTables, nil); err != nil {
		return err
	}
	va, err := s.cat.Footprint([]string{TableVA}, nil)
	if err != nil {
		return err
	}
	ea, err := s.cat.Footprint([]string{TableEA}, nil)
	if err != nil {
		return err
	}
	s.fpOne = map[wal.OpKind]*rel.Footprint{
		wal.OpAddVertex: va, wal.OpSetVertexAttr: va, wal.OpRemoveVertexAttr: va,
		wal.OpSetEdgeAttr: ea, wal.OpRemoveEdgeAttr: ea,
	}
	if s.fpReadVA, err = s.cat.Footprint(nil, []string{TableVA}); err != nil {
		return err
	}
	if s.fpReadEA, err = s.cat.Footprint(nil, []string{TableEA}); err != nil {
		return err
	}
	if s.fpReadEV, err = s.cat.Footprint(nil, []string{TableEA, TableVA}); err != nil {
		return err
	}
	if s.fpReadAll, err = s.cat.Footprint(nil, writeTables); err != nil {
		return err
	}
	return nil
}

// Open creates a store with the given options. With Options.Dir empty the
// store is purely in-memory; with a directory it is durable — existing
// state is recovered (snapshot + WAL replay) and every mutation is logged.
// Labels are assigned to columns on first sight by hashing; for analyzed
// assignments use Load.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir != "" {
		return openDurable(opts)
	}
	return newMemStore(opts)
}

// newMemStore builds an empty in-memory store (options already defaulted).
func newMemStore(opts Options) (*Store, error) {
	s := &Store{
		opts:    opts,
		cat:     rel.NewCatalog(),
		outCols: opts.OutCols,
		inCols:  opts.InCols,
		nextLID: -1,
		tracer:  trace.NewRecorder(0, 0),
	}
	s.View.st = s
	empty := coloring.NewCooccurrence()
	s.outAssign = buildAssignment(empty, opts.OutCols, opts.Coloring)
	s.outAssign.Columns = opts.OutCols
	s.inAssign = buildAssignment(empty, opts.InCols, opts.Coloring)
	s.inAssign.Columns = opts.InCols
	if err := createSchema(s.cat, s.outCols, s.inCols); err != nil {
		return nil, err
	}
	s.eng = engine.New(s.cat)
	registerUDFs(s.eng)
	s.initOptStats()
	s.SetEventJournal(metrics.NewJournal(0))
	if err := s.initFootprints(); err != nil {
		return nil, err
	}
	return s, nil
}

func buildAssignment(c *coloring.Cooccurrence, maxCols int, mode ColoringMode) *coloring.Assignment {
	if mode == ColoringModulo {
		return coloring.Modulo(c, maxCols)
	}
	return coloring.Greedy(c, maxCols)
}

// Load bulk-loads a property graph: it analyzes the label co-occurrence
// structure to build the coloring hash (paper Section 3.2), sizes the
// hash tables, and shreds every adjacency list. With Options.Dir set the
// target directory must be empty; the loaded state is checkpointed there
// and subsequent mutations are logged.
func Load(src blueprints.Graph, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir != "" {
		return loadDurable(src, opts)
	}
	return loadMem(src, opts)
}

// loadMem is the bulk-load path into memory (options already defaulted).
func loadMem(src blueprints.Graph, opts Options) (*Store, error) {
	// Pass 1: analysis. Group each vertex's out- and in-labels.
	outCo := coloring.NewCooccurrence()
	inCo := coloring.NewCooccurrence()
	vids := src.VertexIDs()
	for _, v := range vids {
		outs, err := src.OutEdges(v)
		if err != nil {
			return nil, err
		}
		outCo.Observe(labelsOf(outs))
		ins, err := src.InEdges(v)
		if err != nil {
			return nil, err
		}
		inCo.Observe(labelsOf(ins))
	}
	outAssign := buildAssignment(outCo, opts.OutCols, opts.Coloring)
	inAssign := buildAssignment(inCo, opts.InCols, opts.Coloring)

	s := &Store{
		opts:      opts,
		cat:       rel.NewCatalog(),
		outAssign: outAssign,
		inAssign:  inAssign,
		outCols:   outAssign.Columns,
		inCols:    inAssign.Columns,
		nextLID:   -1,
		tracer:    trace.NewRecorder(0, 0),
	}
	s.View.st = s
	if s.outCols < 1 {
		s.outCols = 1
	}
	if s.inCols < 1 {
		s.inCols = 1
	}
	if err := createSchema(s.cat, s.outCols, s.inCols); err != nil {
		return nil, err
	}
	s.eng = engine.New(s.cat)
	registerUDFs(s.eng)
	s.initOptStats()
	s.SetEventJournal(metrics.NewJournal(0))
	if err := s.initFootprints(); err != nil {
		return nil, err
	}

	// Pass 2: shred. Writes go straight to the tables (bulk path), one
	// transaction per vertex batch to bound lock hold times.
	tx, err := s.cat.Begin([]string{TableOPA, TableOSA, TableIPA, TableISA, TableVA, TableEA}, nil)
	if err != nil {
		return nil, err
	}
	defer tx.Rollback()

	// The documents are built in bulk: a table's records lie in shared
	// chunks in slot order, not one allocation each, and so do the rows of
	// every table, cut from one array per table, so a scan of VA or EA and
	// an ascending hop over the adjacency tables read memory in order.
	// Build is what the record path stores, so a value with no JSON form
	// fails the load before anything is written.
	var docs sqljson.Bulk
	adj := adjRows{byLabel: map[string]int32{}}
	vaRows := make([]rel.Value, 2*len(vids))
	for i, v := range vids {
		attrs, err := src.VertexAttrs(v)
		var doc sqljson.Doc
		if err == nil {
			doc, err = docs.Build(attrs)
		}
		if err != nil {
			return nil, fmt.Errorf("core: load: vertex %d: %w", v, err)
		}
		row := vaRows[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = rel.NewInt(v), rel.NewJSON(&doc)
		if _, err := tx.Insert(TableVA, row); err != nil {
			return nil, err
		}
		outs, err := src.OutEdges(v)
		if err != nil {
			return nil, err
		}
		s.shredSide(&adj, v, outs, true)
		ins, err := src.InEdges(v)
		if err != nil {
			return nil, err
		}
		s.shredSide(&adj, v, ins, false)
	}
	if err := adj.insert(tx, [4]int{2 + 3*s.outCols, 3, 2 + 3*s.inCols, 3}); err != nil {
		return nil, err
	}
	eids := src.EdgeIDs()
	eaRows := make([]rel.Value, 5*len(eids))
	for i, eid := range eids {
		rec, err := src.Edge(eid)
		if err != nil {
			return nil, err
		}
		attrs, err := src.EdgeAttrs(eid)
		var doc sqljson.Doc
		if err == nil {
			doc, err = docs.Build(attrs)
		}
		if err != nil {
			return nil, fmt.Errorf("core: load: edge %d: %w", eid, err)
		}
		row := eaRows[5*i : 5*i+5 : 5*i+5]
		row[0], row[1], row[2] = rel.NewInt(rec.ID), rel.NewInt(rec.Out), rel.NewInt(rec.In)
		row[3], row[4] = rel.NewString(rec.Label), rel.NewJSON(&doc)
		if _, err := tx.Insert(TableEA, row); err != nil {
			return nil, err
		}
	}
	tx.Commit()
	// The observer maintained counters through the bulk commit; a rebuild
	// additionally populates the rebuild-only histograms.
	if err := s.optStats.RebuildAll(); err != nil {
		return nil, err
	}
	return s, nil
}

func labelsOf(recs []blueprints.EdgeRec) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Label
	}
	return out
}

// adjRows collects the bulk load's adjacency rows. Per table, each row's
// values follow the previous row's in one growing array; insert then cuts
// the rows from one exactly sized copy, so that a table's row images lie
// in slot order in one allocation. Allocated row by row as the vertices
// come, the OPA and IPA images (and the OSA and ISA ones) alternate in the
// allocator's size classes, so an ascending hop's rows are not adjacent.
type adjRows struct {
	vals [4][]rel.Value // OPA, OSA, IPA, ISA

	// Grouping state for one vertex's edges, reused by every vertex.
	byLabel map[string]int32
	group   []int32 // per edge, its label's group
	order   []int32 // edge indexes, by group, each group's in the given order
}

var adjTables = [4]string{TableOPA, TableOSA, TableIPA, TableISA}

// insert inserts every collected row, table by table, each table's rows in
// the order they were collected; widths are the tables' arities.
func (a *adjRows) insert(tx *rel.Txn, widths [4]int) error {
	for t, name := range adjTables {
		vals, w := slices.Clone(a.vals[t]), widths[t]
		a.vals[t] = nil
		for i := 0; i < len(vals); i += w {
			if _, err := tx.Insert(name, vals[i:i+w:i+w]); err != nil {
				return err
			}
		}
	}
	return nil
}

// shredSide collects one vertex's adjacency (one direction) as rows of the
// primary and secondary hash tables.
func (s *Store) shredSide(a *adjRows, v int64, recs []blueprints.EdgeRec, outgoing bool) {
	if len(recs) == 0 {
		return
	}
	assign, cols, t := s.outAssign, s.outCols, 0
	if !outgoing {
		assign, cols, t = s.inAssign, s.inCols, 2
	}
	other := func(r blueprints.EdgeRec) rel.Value {
		if outgoing {
			return rel.NewInt(r.In)
		}
		return rel.NewInt(r.Out)
	}

	// Group the edges by label: groups in the order their labels first
	// appear, each group's edges in the order given.
	clear(a.byLabel)
	a.group, a.order = a.group[:0], a.order[:0]
	for i, r := range recs {
		g, ok := a.byLabel[r.Label]
		if !ok {
			g = int32(len(a.byLabel))
			a.byLabel[r.Label] = g
		}
		a.group = append(a.group, g)
		a.order = append(a.order, int32(i))
	}
	slices.SortStableFunc(a.order, func(i, j int32) int { return cmp.Compare(a.group[i], a.group[j]) })

	// Each label takes a cell of its column in the vertex's first row that
	// has the column free; a fresh row starts all NULL.
	w := 2 + 3*cols
	rows := a.vals[t]
	start := len(rows)
	for lo := 0; lo < len(a.order); {
		hi := lo + 1
		for hi < len(a.order) && a.group[a.order[hi]] == a.group[a.order[lo]] {
			hi++
		}
		first := recs[a.order[lo]]
		eid, val := rel.NewInt(first.ID), other(first)
		if hi-lo > 1 {
			// Multi-valued label: allocate a list id and push pairs into
			// the secondary table.
			lid := s.allocLID()
			for _, i := range a.order[lo:hi] {
				a.vals[t+1] = append(a.vals[t+1], rel.NewInt(lid), rel.NewInt(recs[i].ID), other(recs[i]))
			}
			eid, val = rel.Null, rel.NewInt(lid)
		}
		col := assign.Column(first.Label)
		if col >= cols {
			col = col % cols
		}
		r := start
		for r < len(rows) && !rows[r+adjLBL(col)].IsNull() {
			r += w
		}
		if r == len(rows) {
			rows = append(rows, make([]rel.Value, w)...)
		}
		rows[r+adjEID(col)], rows[r+adjLBL(col)], rows[r+adjVAL(col)] = eid, rel.NewString(first.Label), val
		lo = hi
	}
	spill := int64(0)
	if len(rows)-start > w {
		spill = 1
	}
	for r := start; r < len(rows); r += w {
		rows[r+adjVID], rows[r+adjSPILL] = rel.NewInt(v), rel.NewInt(spill)
	}
	a.vals[t] = rows
}

func (s *Store) allocLID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lid := s.nextLID
	s.nextLID--
	return lid
}

// Engine exposes the underlying SQL engine (micro-benchmarks issue raw
// SQL through it).
func (s *Store) Engine() *engine.Engine { return s.eng }

// SetParallelism caps the number of workers the SQL executor's
// morsel-parallel operators (scans, filters, hash-join probes) may use
// per query: 0 restores the default (GOMAXPROCS), 1 forces serial
// execution. Results are identical at any setting.
func (s *Store) SetParallelism(n int) {
	opts := s.eng.ExecOptionsInEffect()
	opts.Parallelism = n
	s.eng.SetExecOptions(opts)
}

// SetForcePlan pins the planner's join-order choice for subsequent
// queries: 0 restores cost-based planning, -1 forces the syntactic FROM
// order, k >= 1 pins the k-th enumerated order (wrapping modulo the
// enumeration count). Results are identical at any setting.
func (s *Store) SetForcePlan(k int) {
	opts := s.eng.ExecOptionsInEffect()
	opts.ForcePlan = k
	s.eng.SetExecOptions(opts)
}

// Catalog exposes the relational catalog (statistics, sizes).
func (s *Store) Catalog() *rel.Catalog { return s.cat }

// PinnedSnapshots reports the number of distinct store versions still
// pinned by open snapshots. A quiesced store (every Snap closed) reports
// zero; the serving layer exposes this as a leak gauge.
func (s *Store) PinnedSnapshots() int { return s.cat.PinnedVersions() }

// OutColumns and InColumns report the hash-table widths.
func (s *Store) OutColumns() int { return s.outCols }
func (s *Store) InColumns() int  { return s.inCols }

// OutColumnFor and InColumnFor expose the label hash (used by the
// translator to pick triads for labeled traversals).
func (s *Store) OutColumnFor(label string) int { return s.outAssign.Column(label) % s.outCols }
func (s *Store) InColumnFor(label string) int  { return s.inAssign.Column(label) % s.inCols }

// TotalBytes approximates the store's footprint (paper Section 5.1
// compares on-disk sizes).
func (s *Store) TotalBytes() int64 { return s.cat.TotalBytes() }

// CreateVertexAttrIndex builds a JSON expression index over a vertex
// attribute (paper Section 3.3: "a user would typically add specialized
// indexes for attributes they wanted to look up by"). Creating the same
// index twice is a no-op.
func (s *Store) CreateVertexAttrIndex(key string) error {
	return s.createAttrIndex(TableVA, "VA_ATTR", key)
}

// CreateEdgeAttrIndex builds a JSON expression index over an edge
// attribute. Creating the same index twice is a no-op.
func (s *Store) CreateEdgeAttrIndex(key string) error {
	return s.createAttrIndex(TableEA, "EA_ATTR", key)
}

func (s *Store) createAttrIndex(table, prefix, key string) error {
	name := fmt.Sprintf("%s_%X", prefix, fnvName(key))
	if t, ok := s.cat.Table(table); ok {
		for _, ix := range t.Indexes() {
			if ix.Name() == name {
				return nil
			}
		}
	}
	return s.eng.CreateIndex(name, table, &sql.FuncCall{
		Name: "JSON_VAL",
		Args: []sql.Expr{&sql.ColumnRef{Column: "ATTR"}, &sql.Literal{Val: key}},
	})
}

func fnvName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func escapeSQL(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'')
		}
		out = append(out, s[i])
	}
	return string(out)
}
