// Package engine plans and executes SQL statements (internal/sql ASTs)
// against the relational storage layer (internal/rel). It provides the
// subset of a mature relational optimizer that the SQLGraph translation
// relies on: predicate pushdown, index selection (including JSON
// expression indexes), index-nested-loop and hash joins, CTE
// materialization, lateral VALUES unnesting, UNION ALL, grouping (COUNT,
// LISTAGG), and ordering.
package engine

import (
	"fmt"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// colInfo names one column of an intermediate relation.
type colInfo struct {
	table string // alias, upper-cased; "" for anonymous
	name  string // column name, upper-cased
}

// relation is an intermediate result: stored rows, stored ids or, while
// src is set, the output of pipelines that have not run yet (see
// pipeline.go). A pending relation has one reader; once that reader has
// its pipelines the relation is taken, and reading it again is an error,
// not an empty result.
//
// A stored relation whose rows are all one integer keeps them as ids
// (DESIGN.md §21): an order-free DISTINCT — every frontier of the
// translation — as its set, ascending; anything else, the ids of a
// g.V(ids) head among them, as a list, one int64 per row in order. The
// next hop's pipe runs from the ids as they are; a reader that needs the
// rows (the result, a hash build, a sort) builds them once, through
// rowsOf.
//
// ordered says an ORDER BY of the statement may be upstream of the rows:
// their order is then the result's to keep, and a DISTINCT over them
// keeps first occurrences in order (DESIGN.md §21). It is set by the sort
// and carried, conservatively, by everything that passes rows on.
type relation struct {
	cols    []colInfo
	rows    [][]rel.Value
	ids     []int64 // non-nil: the rows, one integer each, and rows is nil
	set     *idSet  // non-nil: the rows, one integer each, ascending — a DISTINCT's set itself — and rows is nil
	src     []*pipe
	taken   bool
	ordered bool
}

// count returns how many rows r stores.
func (r *relation) count() int { return len(r.rows) + len(r.ids) + r.set.len() }

// rowsOf returns r's stored rows, built from its ids the first time a
// reader asks for them.
func (r *relation) rowsOf() [][]rel.Value {
	if r.set != nil {
		r.ids, r.set = r.set.appendRange(nil, 0, r.set.len()), nil
	}
	if r.ids != nil {
		r.rows, r.ids = appendIntRows(nil, r.ids), nil
	}
	return r.rows
}

// scope resolves column references against a relation's columns and,
// past a grouping, aggregate calls against the slots their results are in.
// It resolves by scanning the columns: a Table-8 relation has a handful,
// and a statement builds a dozen scopes per execution.
type scope struct {
	cols []colInfo
	// Past a grouping (HAVING and an aggregating select list) the result
	// of aggs[i] is at row position aggBase+i; nil anywhere else.
	aggs    []*sql.FuncCall
	aggBase int
}

func newScope(cols []colInfo) *scope { return &scope{cols: cols} }

// resolve returns the position of the referenced column.
func (s *scope) resolve(table, col string) (int, error) {
	if table != "" {
		// The last of two columns with one qualified name wins.
		for i := len(s.cols) - 1; i >= 0; i-- {
			if s.cols[i].name == col && s.cols[i].table == table {
				return i, nil
			}
		}
		return -1, fmt.Errorf("engine: unknown column %s.%s", table, col)
	}
	first := -1
	for i := range s.cols {
		switch {
		case s.cols[i].name != col:
		case first < 0:
			first = i
		case s.cols[i].table != s.cols[first].table:
			// Ambiguity is tolerated when all candidates share the same table
			// alias (duplicate projection); otherwise it is an error.
			return -1, fmt.Errorf("engine: ambiguous column %s", col)
		}
	}
	if first < 0 {
		return -1, fmt.Errorf("engine: unknown column %s", col)
	}
	return first, nil
}

// has reports whether a column of that name is in scope, under any alias.
func (s *scope) has(col string) bool {
	for i := range s.cols {
		if s.cols[i].name == col {
			return true
		}
	}
	return false
}
