package stats

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqlgraph/internal/rel"
)

// TableSpec configures which statistics are maintained for one table.
// Row counts and per-column NonNull/NonNeg counters are always kept
// (they are O(1) per mutation); NDV sketches and per-group stats are
// opt-in per ordinal because they hash values on the write path.
type TableSpec struct {
	Name     string
	NDVCols  []int // ordinals given deletion-capable NDV sketches
	HistCols []int // ordinals given equi-height histograms at rebuild
	GroupCol int   // ordinal whose value partitions the per-group stats; -1 disables
	// GroupNDVCols are ordinals given a per-group NDV sketch (e.g. the
	// distinct sources and targets per edge label).
	GroupNDVCols []int
}

// Config lists the tables a Collection tracks. Mutations to untracked
// tables are ignored by the observer.
type Config struct {
	Tables []TableSpec
}

// ColumnStats holds one column's incrementally maintained counters plus
// the rebuild-only histogram. NonNeg counts rows whose value is an
// integer >= 0 — the soft-delete liveness guard (`VID >= 0`) divides
// tables exactly along that line.
type ColumnStats struct {
	NonNull int64
	NonNeg  int64
	Sketch  *Sketch    // nil unless the ordinal is in NDVCols
	Hist    *Histogram // rebuild-only; nil until first rebuild
}

// GroupStats holds the per-group (per edge label) counters.
type GroupStats struct {
	Count int64
	NDV   map[int]*Sketch // keyed by ordinal, from GroupNDVCols
}

// TableStats is one table's statistics. Rows, NonNull, NonNeg, group
// counts and sketch cell arrays are invariant-exact: incremental
// maintenance reproduces a from-scratch rebuild bit for bit. Histograms
// are refreshed only by Rebuild.
type TableStats struct {
	Spec   TableSpec
	Rows   int64
	Cols   []ColumnStats
	Groups map[string]*GroupStats
	AsOf   rel.Version // last version observed or rebuilt at
}

func newTableStats(spec TableSpec, arity int) *TableStats {
	ts := &TableStats{Spec: spec, Cols: make([]ColumnStats, arity)}
	for _, o := range spec.NDVCols {
		if o >= 0 && o < arity {
			ts.Cols[o].Sketch = NewSketch()
		}
	}
	if spec.GroupCol >= 0 {
		ts.Groups = map[string]*GroupStats{}
	}
	return ts
}

// apply folds one row into (delta=+1) or out of (delta=-1) the counters.
// Each key is built in kb: a sketch only hashes it, and a group's map
// lookup does not keep it, so a row costs no allocation.
func (ts *TableStats) apply(vals []rel.Value, delta int64) {
	var kb [32]byte
	ts.Rows += delta
	for i := range ts.Cols {
		if i >= len(vals) {
			break
		}
		v := vals[i]
		if v.IsNull() {
			continue
		}
		ts.Cols[i].NonNull += delta
		if v.Kind() == rel.KindInt && v.Int() >= 0 {
			ts.Cols[i].NonNeg += delta
		}
		if sk := ts.Cols[i].Sketch; sk != nil {
			sk.apply(string(v.AppendKey(kb[:0])), delta)
		}
	}
	if ts.Spec.GroupCol >= 0 && ts.Spec.GroupCol < len(vals) && !vals[ts.Spec.GroupCol].IsNull() {
		key := vals[ts.Spec.GroupCol].AppendKey(kb[:0])
		g := ts.Groups[string(key)]
		if g == nil {
			g = &GroupStats{NDV: map[int]*Sketch{}}
			for _, o := range ts.Spec.GroupNDVCols {
				g.NDV[o] = NewSketch()
			}
			ts.Groups[string(key)] = g
		}
		g.Count += delta
		for _, o := range ts.Spec.GroupNDVCols {
			if o < 0 || o >= len(vals) || vals[o].IsNull() {
				continue
			}
			g.NDV[o].apply(string(vals[o].AppendKey(kb[:0])), delta)
		}
	}
}

// Collection maintains statistics for one catalog. It implements
// rel.ChangeObserver; ObserveCommit runs inside Commit under the table
// write locks, so per-mutation work is a few counter bumps and (for
// configured ordinals) one hash each.
type Collection struct {
	mu      sync.RWMutex
	cat     *rel.Catalog
	tables  map[string]*TableStats
	version atomic.Uint64 // bumped on every commit and rebuild swap
}

// NewCollection builds an empty collection for cat. The caller attaches
// it with cat.SetChangeObserver(c) once the initial Rebuild is done
// (attach-then-rebuild also works; rebuild swaps are serialized with
// observed commits by the table locks).
func NewCollection(cat *rel.Catalog, cfg Config) *Collection {
	c := &Collection{cat: cat, tables: map[string]*TableStats{}}
	for _, spec := range cfg.Tables {
		if spec.GroupCol == 0 && len(spec.GroupNDVCols) == 0 {
			spec.GroupCol = -1 // zero-value spec convenience: no grouping
		}
		arity := 0
		if t, ok := cat.Table(spec.Name); ok {
			arity = t.Schema().Len()
		}
		c.tables[spec.Name] = newTableStats(spec, arity)
	}
	return c
}

// ObserveCommit implements rel.ChangeObserver.
func (c *Collection) ObserveCommit(ver rel.Version, changes []rel.Change) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range changes {
		ts, ok := c.tables[ch.Table]
		if !ok {
			continue
		}
		switch ch.Kind {
		case rel.ChangeInsert:
			ts.apply(ch.New, +1)
		case rel.ChangeDelete:
			ts.apply(ch.Old, -1)
		case rel.ChangeUpdate:
			ts.apply(ch.Old, -1)
			ts.apply(ch.New, +1)
		}
		ts.AsOf = ver
	}
	c.version.Add(1)
}

// StatsVersion returns a counter that advances whenever any tracked
// statistic may have changed (observed commits and rebuild swaps). The
// engine's plan cache uses it as its invalidation stamp.
func (c *Collection) StatsVersion() uint64 { return c.version.Load() }

// Rebuild recomputes one table's statistics from a scan and swaps them
// in. The scan runs inside a read transaction (holding the table read
// lock), so no writer can commit between the scan and the swap: the
// fresh stats are exact at the swap point and incremental maintenance
// continues from them.
func (c *Collection) Rebuild(name string) error {
	c.mu.RLock()
	old, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("stats: table %s not tracked", name)
	}
	tx, err := c.cat.Begin(nil, []string{name})
	if err != nil {
		return err
	}
	defer tx.Rollback()
	t, _ := c.cat.Table(name)
	fresh := newTableStats(old.Spec, t.Schema().Len())
	hv := newHistVals(old.Spec)
	err = tx.Scan(name, func(rid rel.RowID, vals []rel.Value) bool {
		fresh.apply(vals, +1)
		hv.add(vals)
		return true
	})
	if err != nil {
		return err
	}
	for o, h := range hv.build() {
		if o < len(fresh.Cols) {
			fresh.Cols[o].Hist = h
		}
	}
	fresh.AsOf = c.cat.CurrentVersion()
	c.mu.Lock()
	c.tables[name] = fresh
	c.mu.Unlock()
	c.version.Add(1)
	return nil
}

// RebuildAll rebuilds every tracked table (used at load, crash recovery
// and RefreshStats; a checkpoint refreshes only the histograms, from its
// own scan — see HistBuilder).
func (c *Collection) RebuildAll() error {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		if err := c.Rebuild(n); err != nil {
			return err
		}
	}
	return nil
}

// histVals gathers one table's histogram-column values from a scan.
type histVals []histCol

// histCol holds one column's non-null values. While every value is an
// integer — as in all the graph schema's histogram columns — they are
// kept as bare int64s: an eighth of the memory of Values, and they sort
// an order of magnitude faster.
type histCol struct {
	ord   int
	ints  []int64
	vals  []rel.Value
	mixed bool // a non-integer was seen: everything is in vals
}

func newHistVals(spec TableSpec) histVals {
	hv := make(histVals, len(spec.HistCols))
	for i, o := range spec.HistCols {
		hv[i].ord = o
	}
	return hv
}

func (hv histVals) add(vals []rel.Value) {
	for i := range hv {
		h := &hv[i]
		if h.ord >= len(vals) || vals[h.ord].IsNull() {
			continue
		}
		v := vals[h.ord]
		if !h.mixed && v.Kind() == rel.KindInt {
			h.ints = append(h.ints, v.Int())
			continue
		}
		if !h.mixed {
			h.mixed = true
			h.vals = make([]rel.Value, 0, len(h.ints)+1)
			for _, n := range h.ints {
				h.vals = append(h.vals, rel.NewInt(n))
			}
			h.ints = nil
		}
		h.vals = append(h.vals, v)
	}
}

// build sorts the gathered values (in place) into histograms by ordinal.
func (hv histVals) build() map[int]*Histogram {
	out := make(map[int]*Histogram, len(hv))
	for i := range hv {
		h := &hv[i]
		if h.mixed {
			out[h.ord] = buildHistogram(h.vals)
			continue
		}
		slices.Sort(h.ints)
		out[h.ord] = cutHistogram(len(h.ints), func(i int) rel.Value { return rel.NewInt(h.ints[i]) })
	}
	return out
}

// HistBuilder refreshes the rebuild-only histograms from a scan somebody
// else is doing anyway: the checkpoint hands it every row it dumps at its
// pinned version, and Install then builds the histograms and swaps only
// them in. Everything else a Rebuild recomputes is maintained per commit
// and already exact, so this replaces a second full scan under read locks
// and six version bumps with no lock and one bump. A nil builder ignores
// the rows it is given.
type HistBuilder struct {
	c      *Collection
	tables map[string]histVals
}

// NewHistBuilder starts a histogram refresh over every tracked table
// with histogram columns.
func (c *Collection) NewHistBuilder() *HistBuilder {
	b := &HistBuilder{c: c, tables: map[string]histVals{}}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for name, ts := range c.tables {
		if len(ts.Spec.HistCols) > 0 {
			b.tables[name] = newHistVals(ts.Spec)
		}
	}
	return b
}

// Add offers one row of the named table.
func (b *HistBuilder) Add(table string, vals []rel.Value) {
	if b == nil {
		return
	}
	if hv, ok := b.tables[table]; ok {
		hv.add(vals)
	}
}

// Install builds the histograms from the rows seen and publishes them
// with one StatsVersion bump. They describe the scanned version; commits
// since then are not in them, as with any histogram until its next
// refresh.
func (b *HistBuilder) Install() {
	built := make(map[string]map[int]*Histogram, len(b.tables))
	for name, hv := range b.tables {
		built[name] = hv.build()
	}
	b.c.mu.Lock()
	for name, hs := range built {
		ts := b.c.tables[name]
		for o, h := range hs {
			if o < len(ts.Cols) {
				ts.Cols[o].Hist = h
			}
		}
	}
	b.c.mu.Unlock()
	b.c.version.Add(1)
}

// ---- provider methods (the engine's StatsProvider interface) ----

// TableRows returns the tracked row count.
func (c *Collection) TableRows(table string) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok {
		return 0, false
	}
	return ts.Rows, true
}

// ColumnNDV estimates the number of distinct non-null values in a
// column; ok is false when no sketch is configured for the ordinal.
func (c *Collection) ColumnNDV(table string, col int) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok || col < 0 || col >= len(ts.Cols) || ts.Cols[col].Sketch == nil {
		return 0, false
	}
	return ts.Cols[col].Sketch.NDV(), true
}

// FracNonNull returns the fraction of rows with a non-null value.
func (c *Collection) FracNonNull(table string, col int) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok || ts.Rows <= 0 || col < 0 || col >= len(ts.Cols) {
		return 0, false
	}
	return float64(ts.Cols[col].NonNull) / float64(ts.Rows), true
}

// FracNonNeg returns the fraction of rows whose value is an integer
// >= 0 — the exact selectivity of the soft-delete guard `col >= 0`.
func (c *Collection) FracNonNeg(table string, col int) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok || ts.Rows <= 0 || col < 0 || col >= len(ts.Cols) {
		return 0, false
	}
	return float64(ts.Cols[col].NonNeg) / float64(ts.Rows), true
}

// SelEq estimates the selectivity of `col = v` as 1/NDV.
func (c *Collection) SelEq(table string, col int, v rel.Value) (float64, bool) {
	ndv, ok := c.ColumnNDV(table, col)
	if !ok || ndv < 1 {
		return 0, false
	}
	return 1 / ndv, true
}

// SelRange estimates the fraction of rows in [lo, hi] (nil = open) from
// the column's histogram.
func (c *Collection) SelRange(table string, col int, lo, hi *rel.Value) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok || col < 0 || col >= len(ts.Cols) || ts.Cols[col].Hist == nil {
		return 0, false
	}
	return ts.Cols[col].Hist.FracBetween(lo, hi), true
}

// GroupCount returns the row count of one group (edges with one label).
func (c *Collection) GroupCount(table string, group rel.Value) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok || ts.Groups == nil {
		return 0, false
	}
	g, ok := ts.Groups[group.Key()]
	if !ok || g.Count <= 0 {
		return 0, true // known zero: the label does not exist
	}
	return g.Count, true
}

// GroupColumn returns the ordinal of the table's group column (-1 when
// the table is untracked or has no group column).
func (c *Collection) GroupColumn(table string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok {
		return -1
	}
	return ts.Spec.GroupCol
}

// GroupNDV estimates the distinct values of col within one group (e.g.
// distinct sources among edges with one label).
func (c *Collection) GroupNDV(table string, group rel.Value, col int) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok || ts.Groups == nil {
		return 0, false
	}
	g, ok := ts.Groups[group.Key()]
	if !ok || g.Count <= 0 {
		return 0, true
	}
	sk := g.NDV[col]
	if sk == nil {
		return 0, false
	}
	return sk.NDV(), true
}

// ---- inspection (server /stats, CLI, tests) ----

// ColDescription is one column's stats in a JSON-friendly shape.
type ColDescription struct {
	Ordinal int     `json:"ordinal"`
	NonNull int64   `json:"non_null"`
	NonNeg  int64   `json:"non_neg"`
	NDV     float64 `json:"ndv,omitempty"`
	HistMin string  `json:"hist_min,omitempty"`
	HistMax string  `json:"hist_max,omitempty"`
}

// GroupDescription is one group's stats.
type GroupDescription struct {
	Key   string             `json:"key"`
	Count int64              `json:"count"`
	NDV   map[string]float64 `json:"ndv,omitempty"` // "col<ordinal>" -> estimate
}

// TableDescription is one table's stats.
type TableDescription struct {
	Table  string             `json:"table"`
	Rows   int64              `json:"rows"`
	AsOf   uint64             `json:"as_of_version"`
	Cols   []ColDescription   `json:"cols,omitempty"`
	Groups []GroupDescription `json:"groups,omitempty"`
}

// Describe snapshots every tracked table, sorted by name. maxGroups
// bounds the per-table group listing (largest first; 0 = all).
func (c *Collection) Describe(maxGroups int) []TableDescription {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TableDescription, 0, len(names))
	for _, n := range names {
		ts := c.tables[n]
		d := TableDescription{Table: n, Rows: ts.Rows, AsOf: uint64(ts.AsOf)}
		for i := range ts.Cols {
			col := &ts.Cols[i]
			if col.NonNull == 0 && col.Sketch == nil && col.Hist == nil {
				continue
			}
			cd := ColDescription{Ordinal: i, NonNull: col.NonNull, NonNeg: col.NonNeg}
			if col.Sketch != nil {
				cd.NDV = col.Sketch.NDV()
			}
			if col.Hist != nil {
				cd.HistMin = col.Hist.Min.String()
				cd.HistMax = col.Hist.Max.String()
			}
			d.Cols = append(d.Cols, cd)
		}
		for _, key := range sortedGroupsByCount(ts.Groups) {
			g := ts.Groups[key]
			gd := GroupDescription{Key: key, Count: g.Count}
			if len(g.NDV) > 0 {
				gd.NDV = map[string]float64{}
				for o, sk := range g.NDV {
					gd.NDV[fmt.Sprintf("col%d", o)] = sk.NDV()
				}
			}
			d.Groups = append(d.Groups, gd)
			if maxGroups > 0 && len(d.Groups) >= maxGroups {
				break
			}
		}
		out = append(out, d)
	}
	return out
}

func sortedGroupsByCount(groups map[string]*GroupStats) []string {
	keys := make([]string, 0, len(groups))
	for k, g := range groups {
		if g.Count > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if groups[keys[i]].Count != groups[keys[j]].Count {
			return groups[keys[i]].Count > groups[keys[j]].Count
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Fingerprint renders the invariant-exact state of one table — row
// count, per-column counters, sketch cell arrays, and per-group
// counters (groups with zero live rows are skipped, since a rebuild
// never learns about them) — as a deterministic string. The invariant
// tests compare fingerprints of incrementally maintained stats against
// a from-scratch rebuild; histograms are excluded by design.
func (c *Collection) Fingerprint(table string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[table]
	if !ok {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d\n", ts.Rows)
	for i := range ts.Cols {
		col := &ts.Cols[i]
		fmt.Fprintf(&b, "col%d nonnull=%d nonneg=%d", i, col.NonNull, col.NonNeg)
		if col.Sketch != nil {
			fmt.Fprintf(&b, " sketch=%x", cellsDigest(col.Sketch))
		}
		b.WriteByte('\n')
	}
	for _, key := range sortedGroupKeys(ts.Groups) {
		g := ts.Groups[key]
		if g.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "group %q count=%d", key, g.Count)
		ords := make([]int, 0, len(g.NDV))
		for o := range g.NDV {
			ords = append(ords, o)
		}
		sort.Ints(ords)
		for _, o := range ords {
			fmt.Fprintf(&b, " ndv%d=%x", o, cellsDigest(g.NDV[o]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedGroupKeys(groups map[string]*GroupStats) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cellsDigest hashes a sketch's refcount array (FNV over the bytes).
func cellsDigest(s *Sketch) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range s.cells {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(uint8(c >> shift))
			h *= 1099511628211
		}
	}
	return h
}

// TableNames returns the tracked table names, sorted.
func (c *Collection) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
