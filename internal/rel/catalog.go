package rel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Catalog is a database: a set of named tables and their indexes.
// Creating a table takes the catalog write lock; queries and
// transactions take the read lock plus the per-table locks of the tables
// they touch.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	schema atomic.Uint64               // advanced by every table and index added (SchemaVersion)
	mvcc   mvccState                   // version clock, snapshot pins, writer mutex, GC (mvcc.go)
	obs    atomic.Pointer[observerBox] // commit-time change observer (observer.go)
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}, mvcc: newMVCCState()}
}

// CreateTable adds a new table. Names are case-sensitive; the SQL layer
// upper-cases identifiers before reaching the catalog.
func (c *Catalog) CreateTable(name string, schema *Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("rel: table %s already exists", name)
	}
	t := NewTable(name, schema)
	c.tables[name] = t
	c.schema.Add(1)
	return t, nil
}

// SchemaVersion advances whenever a table or an index is added: what a
// plan prepared over the catalog's tables and indexes is stamped with.
func (c *Catalog) SchemaVersion() uint64 { return c.schema.Load() }

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Tables returns all table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateIndex builds an ordered index over an existing table, populating
// it from current rows.
func (c *Catalog) CreateIndex(name, table string, unique bool, ordinals []int, expr string, keyFn KeyFunc) (*Index, error) {
	return c.addIndex(NewIndex(name, table, unique, ordinals, expr, keyFn))
}

// CreateHashIndex builds a non-unique hashed index over plain columns
// (see Index): equality and prefix probes only, hashed on the first
// column.
func (c *Catalog) CreateHashIndex(name, table string, ordinals []int) (*Index, error) {
	if len(ordinals) == 0 || len(ordinals) > maxHashedColumns {
		return nil, fmt.Errorf("rel: create index %s: a hashed index takes 1 to %d columns", name, maxHashedColumns)
	}
	return c.addIndex(newHashedIndex(name, table, ordinals))
}

func (c *Catalog) addIndex(ix *Index) (*Index, error) {
	name, table := ix.name, ix.table
	c.mu.RLock()
	t, ok := c.tables[table]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rel: create index %s: table %s does not exist", name, table)
	}
	for _, o := range ix.colOrds {
		if o < 0 || o >= t.schema.Len() {
			return nil, fmt.Errorf("rel: create index %s: ordinal %d out of range", name, o)
		}
	}
	t.Lock()
	defer t.Unlock()
	// Stamp the creation version under the table lock: no writer can be
	// mid-flight on this table, so the index covers exactly the states at
	// versions >= born (older snapshots must not use it — historical
	// images are not back-indexed).
	ix.born = c.CurrentVersion()
	for _, existing := range t.indexes {
		if existing.name == name {
			return nil, fmt.Errorf("rel: index %s already exists on %s", name, table)
		}
	}
	if err := t.addIndex(ix); err != nil {
		return nil, err
	}
	c.schema.Add(1)
	return ix, nil
}

// TotalBytes approximates the whole database footprint (paper Section 5.1
// compares on-disk sizes across systems).
func (c *Catalog) TotalBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, t := range c.tables {
		n += t.Bytes()
	}
	return n
}
