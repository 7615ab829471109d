package engine

import (
	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// colNeeds is the needed-column analysis of one SELECT core: what anything
// downstream of a join still reads. A Table-8 hop joins a one-column
// frontier with a seventeen-column adjacency table and selects one column
// of the result; joins consult colNeeds and emit only what is read later,
// instead of the full concatenation.
//
// A column is needed while the select list, GROUP BY, HAVING or a lateral
// VALUES cell names it, or a WHERE/ON term that has not been applied yet
// does. ORDER BY and LIMIT run on the projected output and need nothing
// here.
type colNeeds struct {
	all     bool            // SELECT *: every column is output
	tables  map[string]bool // SELECT t.*: every column of t is output
	fixed   *exprRefs       // select items, GROUP BY, HAVING, lateral VALUES cells
	pending []*conjunct     // WHERE and ON terms; each is needed until applied
}

// newColNeeds analyses a SELECT core. refs is its FROM list in execution
// order, where its WHERE terms and on the ON terms of its explicit JOINs,
// per FROM item and JOIN clause.
func newColNeeds(sel *sql.SimpleSelect, refs []sql.TableRef, where []*conjunct, on [][][]*conjunct) *colNeeds {
	n := &colNeeds{fixed: &exprRefs{}, pending: where}
	for _, item := range sel.Items {
		switch {
		case item.Star && item.Table == "":
			n.all = true
		case item.Star:
			if n.tables == nil {
				n.tables = map[string]bool{}
			}
			n.tables[item.Table] = true
		default:
			collectRefs(item.Expr, n.fixed)
		}
	}
	for _, gx := range sel.GroupBy {
		collectRefs(gx, n.fixed)
	}
	collectRefs(sel.Having, n.fixed)
	for i, ref := range refs {
		if ref.TableFn != nil {
			for _, row := range ref.TableFn.Rows {
				for _, x := range row {
					collectRefs(x, n.fixed)
				}
			}
		}
		for _, terms := range on[i] {
			n.pending = append(n.pending, terms...)
		}
	}
	return n
}

// keep returns the positions of cols still needed once the terms in
// applying have been evaluated (the join about to run consumes them).
func (n *colNeeds) keep(cols []colInfo, applying ...[]*conjunct) []int {
	live := []*exprRefs{n.fixed}
	for _, c := range n.pending {
		if !c.applied && !containsConjunct(applying, c) {
			live = append(live, c.refs)
		}
	}
	keep := make([]int, 0, len(cols))
	for p, c := range cols {
		needed := n.all || n.tables[c.table]
		for i := 0; !needed && i < len(live); i++ {
			needed = live[i].reads(c)
		}
		if needed {
			keep = append(keep, p)
		}
	}
	return keep
}

func containsConjunct(lists [][]*conjunct, c *conjunct) bool {
	for _, list := range lists {
		for _, x := range list {
			if x == c {
				return true
			}
		}
	}
	return false
}

// joinShape is the column plan of one join: which positions of the left
// and right input rows its output keeps, in that order, and the residual
// terms (those reading both sides) a pair must pass to be emitted.
type joinShape struct {
	cols      []colInfo // output columns
	leftSrc   []int     // kept positions of the left row
	rightSrc  []int     // kept positions of the right row
	leftArity int
	full      *scope // every left and right column; residuals compile against it
	residual  []*conjunct
}

// newJoinShape prunes the concatenation of the two inputs' columns to the
// positions in keep (ascending, as colNeeds.keep returns them).
func newJoinShape(leftCols, rightCols []colInfo, full *scope, keep []int, residual []*conjunct) *joinShape {
	s := &joinShape{leftArity: len(leftCols), full: full, residual: residual, cols: make([]colInfo, 0, len(keep))}
	for _, p := range keep {
		if p < len(leftCols) {
			s.leftSrc = append(s.leftSrc, p)
			s.cols = append(s.cols, leftCols[p])
		} else {
			s.rightSrc = append(s.rightSrc, p-len(leftCols))
			s.cols = append(s.cols, rightCols[p-len(leftCols)])
		}
	}
	return s
}

// joinEmitter is one worker's state for emitting a join's rows: its own
// compiled residual predicate, the scratch rows it assembles in, and the
// sink its rows go to.
type joinEmitter struct {
	shape   *joinShape
	resid   func(row []rel.Value) (bool, error) // nil when there are no residual terms
	scratch []rel.Value                         // full-width row the residual terms read
	out     []rel.Value                         // the emitted row, overwritten by the next one
	next    sink
	n       int // rows pushed on
}

// newJoinEmitter builds a worker's emitter pushing into next.
func (e *Engine) newJoinEmitter(q *queryState, s *joinShape, next sink) (*joinEmitter, error) {
	je := &joinEmitter{shape: s, out: make([]rel.Value, len(s.cols)), next: next}
	if len(s.residual) > 0 {
		resid, err := e.compilePredicates(q, s.full, s.residual)
		if err != nil {
			return nil, err
		}
		je.resid = resid
		je.scratch = make([]rel.Value, len(s.full.cols))
	}
	return je, nil
}

// pair assembles the output row for a left/right pair that already passed
// the join's key and single-side checks, unless a residual term rejects
// it. Both inputs are read in place: only the kept columns are copied,
// into a row that is valid until the emitter's next call.
func (je *joinEmitter) pair(l, r []rel.Value) ([]rel.Value, bool, error) {
	s := je.shape
	if je.resid != nil {
		copy(je.scratch, l)
		copy(je.scratch[s.leftArity:], r)
		if ok, err := je.resid(je.scratch); err != nil || !ok {
			return nil, false, err
		}
	}
	for i, p := range s.leftSrc {
		je.out[i] = l[p]
	}
	k := len(s.leftSrc)
	for i, p := range s.rightSrc {
		je.out[k+i] = r[p]
	}
	return je.out, true, nil
}

// emit pushes the pair's output row on, unless a residual term rejects
// the pair.
func (je *joinEmitter) emit(l, r []rel.Value) (matched bool, err error) {
	row, ok, err := je.pair(l, r)
	if !ok {
		return false, err
	}
	je.n++
	return true, je.next.push(row)
}

// emitUnmatched pushes on the null-extended output row of a LEFT join's
// unmatched left row.
func (je *joinEmitter) emitUnmatched(l []rel.Value) error {
	for i, p := range je.shape.leftSrc {
		je.out[i] = l[p]
	}
	clear(je.out[len(je.shape.leftSrc):])
	je.n++
	return je.next.push(je.out)
}
