package core

import (
	"sqlgraph/internal/engine"
	"sqlgraph/internal/gremlin"
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
	"sqlgraph/internal/trace"
	"sqlgraph/internal/translate"
)

// Result is the outcome of a Gremlin query: the emitted objects, as plain
// Go values (element ids for vertices and edges, payloads for values,
// []any for paths), plus the SQL executor's statistics for the translated
// statement (join strategies, morsel fan-out) so benchmarks can assert
// planner decisions, and the query's span tree (parse → translate → plan
// → execute with one child per operator).
type Result struct {
	Values   []any
	ElemType translate.ElemType
	Stats    engine.ExecStats
	Trace    *trace.Trace
}

// Count returns the number of emitted objects.
func (r *Result) Count() int { return len(r.Values) }

// preparedQuery is the statement of one query shape: the translation
// (a template with ? where the queries of the shape differ) and its parsed
// SQL, so a hit skips translation and SQL parsing and leaves one Gremlin
// parse, one map probe and the bind. It is shared by every execution of
// the shape, concurrent ones included: the engine never mutates statement
// nodes, and a request's arguments travel beside the statement, never in
// it (DESIGN.md §8).
//
// The cache holds at most maxPrepared statements (about 5 KB each with
// their plans). An application has a few dozen shapes however many
// distinct texts it sends; the bound is for a client that mints shapes.
type preparedQuery struct {
	translation  *translate.Translation
	stmt         *sql.SelectStmt
	cachedDetail string // detail of the plan span of a hit
}

// preparedKey identifies a statement: the query's shape under the
// translation options.
type preparedKey struct {
	opts  TranslateOptions
	shape string
}

const maxPrepared = 4096

// TranslateOptions mirrors translate.Options at the store API surface.
type TranslateOptions = translate.Options

// Translate compiles a Gremlin query to SQL without executing it.
func (s *Store) Translate(gremlinText string, opts TranslateOptions) (*translate.Translation, error) {
	q, err := gremlin.Parse(gremlinText)
	if err != nil {
		return nil, err
	}
	return translate.Translate(q, s, opts)
}

func valueToAny(v rel.Value) any {
	switch v.Kind() {
	case rel.KindNull:
		return nil
	case rel.KindBool:
		return v.Bool()
	case rel.KindInt:
		return v.Int()
	case rel.KindFloat:
		return v.Float()
	case rel.KindString:
		return v.Str()
	case rel.KindJSON:
		return v.JSON().Map()
	case rel.KindList:
		list := v.List()
		out := make([]any, len(list))
		for i, e := range list {
			out[i] = valueToAny(e)
		}
		return out
	default:
		return nil
	}
}
