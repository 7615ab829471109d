// Package engine plans and executes SQL statements (internal/sql ASTs)
// against the relational storage layer (internal/rel). It provides the
// subset of a mature relational optimizer that the SQLGraph translation
// relies on: predicate pushdown, index selection (including JSON
// expression indexes), index-nested-loop and hash joins, CTE
// materialization, recursive CTEs, lateral VALUES unnesting, set
// operations, grouping, and ordering.
package engine

import (
	"fmt"
	"strings"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// colInfo names one column of an intermediate relation.
type colInfo struct {
	table string // alias, upper-cased; "" for anonymous
	name  string // column name, upper-cased
}

// relation is an intermediate result: stored rows or, while src is set,
// the output of pipelines that have not run yet (see pipeline.go). A
// pending relation has one reader; once that reader has its pipelines the
// relation is taken, and reading it again is an error, not an empty result.
type relation struct {
	cols  []colInfo
	rows  [][]rel.Value
	src   []*pipe
	taken bool
}

// scope resolves column references against a relation's columns and,
// past a grouping, aggregate calls against the slots their results are in.
type scope struct {
	cols   []colInfo
	byQual map[string]int
	byName map[string][]int
	aggs   map[*sql.FuncCall]int // row position of each aggregate call's result; nil outside HAVING and an aggregating select list
}

func newScope(cols []colInfo) *scope {
	s := &scope{cols: cols, byQual: map[string]int{}, byName: map[string][]int{}}
	for i, c := range cols {
		if c.table != "" {
			s.byQual[c.table+"."+c.name] = i
		}
		s.byName[c.name] = append(s.byName[c.name], i)
	}
	return s
}

// resolve returns the position of the referenced column.
func (s *scope) resolve(table, col string) (int, error) {
	if table != "" {
		if i, ok := s.byQual[table+"."+col]; ok {
			return i, nil
		}
		return -1, fmt.Errorf("engine: unknown column %s.%s", table, col)
	}
	positions := s.byName[col]
	switch len(positions) {
	case 0:
		return -1, fmt.Errorf("engine: unknown column %s", col)
	case 1:
		return positions[0], nil
	default:
		// Ambiguity is tolerated when all candidates share the same table
		// alias (duplicate projection); otherwise it is an error.
		first := positions[0]
		for _, p := range positions[1:] {
			if s.cols[p].table != s.cols[first].table {
				return -1, fmt.Errorf("engine: ambiguous column %s", col)
			}
		}
		return first, nil
	}
}

// tablesOf returns the set of table aliases a column belongs to.
func (s *scope) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		if c.table != "" {
			parts[i] = c.table + "." + c.name
		} else {
			parts[i] = c.name
		}
	}
	return strings.Join(parts, ", ")
}
