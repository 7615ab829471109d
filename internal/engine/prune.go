package engine

import (
	"slices"

	"sqlgraph/internal/rel"
	"sqlgraph/internal/sql"
)

// colNeeds is the needed-column analysis of one SELECT core: what anything
// downstream of a join still reads. A Table-8 hop joins a one-column
// frontier with a seventeen-column adjacency table and selects one column
// of the result; joins consult colNeeds and emit only what is read later,
// instead of the full concatenation.
//
// A column is needed while the select list, GROUP BY or a lateral VALUES
// cell names it, or a WHERE/ON term that has not been applied yet
// does. ORDER BY and LIMIT run on the projected output and need nothing
// here.
type colNeeds struct {
	fixed   *exprRefs   // select items, GROUP BY, lateral VALUES cells
	pending []*conjunct // WHERE and ON terms; each is needed until applied
}

// newColNeeds analyses a SELECT core: where holds its WHERE terms and on
// the ON terms of its explicit JOINs, per FROM item and JOIN clause.
func newColNeeds(sel *sql.SimpleSelect, where []*conjunct, on [][][]*conjunct) *colNeeds {
	n := &colNeeds{fixed: &exprRefs{}, pending: where}
	for _, item := range sel.Items {
		collectRefs(item.Expr, n.fixed)
	}
	for _, gx := range sel.GroupBy {
		collectRefs(gx, n.fixed)
	}
	for i, ref := range sel.From {
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
		if !c.applied && !slices.ContainsFunc(applying, func(l []*conjunct) bool { return slices.Contains(l, c) }) {
			live = append(live, c.refs)
		}
	}
	keep := make([]int, 0, len(cols))
	for p, c := range cols {
		if slices.ContainsFunc(live, func(r *exprRefs) bool { return r.reads(c) }) {
			keep = append(keep, p)
		}
	}
	return keep
}

// joinShape is the column plan of one join: which positions of the left
// and right input rows its output keeps, in that order, and the residual
// terms (those reading both sides) a pair must pass to be emitted,
// compiled against every left and right column.
type joinShape struct {
	cols      []colInfo // output columns
	leftSrc   []int     // kept positions of the left row
	rightSrc  []int     // kept positions of the right row
	leftArity int
	width     int       // every left and right column: the row the residual reads
	resid     predicate // nil when there are no residual terms
}

// newJoinShape prunes the concatenation of the two inputs' columns to the
// positions in keep (ascending, as colNeeds.keep returns them).
func (p *prep) newJoinShape(leftCols, rightCols []colInfo, full *scope, keep []int, residual []*conjunct) (*joinShape, error) {
	s := &joinShape{leftArity: len(leftCols), width: len(full.cols), cols: make([]colInfo, 0, len(keep))}
	for _, k := range keep {
		if k < len(leftCols) {
			s.leftSrc = append(s.leftSrc, k)
			s.cols = append(s.cols, leftCols[k])
		} else {
			s.rightSrc = append(s.rightSrc, k-len(leftCols))
			s.cols = append(s.cols, rightCols[k-len(leftCols)])
		}
	}
	var err error
	if len(residual) > 0 {
		s.resid, err = p.predicates(full, residual)
	}
	return s, err
}

// joinEmitter is one worker's state for emitting a join's rows: the
// scratch rows it assembles in, and the sink its rows go to.
type joinEmitter struct {
	f       *frame
	shape   *joinShape
	scratch []rel.Value // full-width row the residual terms read
	out     []rel.Value // the emitted row, overwritten by the next one
	next    sink
	n       int // rows pushed on
}

// newJoinEmitter builds a worker's emitter pushing into next.
func newJoinEmitter(f *frame, s *joinShape, next sink) *joinEmitter {
	je := &joinEmitter{f: f, shape: s, out: make([]rel.Value, len(s.cols)), next: next}
	if s.resid != nil {
		je.scratch = make([]rel.Value, s.width)
	}
	return je
}

// emit pushes on the output row of a left/right pair that already passed
// the join's key and single-side checks, unless a residual term rejects
// it, and reports whether it did. Both inputs are read in place: only the
// kept columns are copied, into a row that is valid until the emitter's
// next call.
func (je *joinEmitter) emit(l, r []rel.Value) (matched bool) {
	s := je.shape
	if s.resid != nil {
		copy(je.scratch, l)
		copy(je.scratch[s.leftArity:], r)
		if !s.resid(je.f, je.scratch) {
			return false
		}
	}
	for i, p := range s.leftSrc {
		je.out[i] = l[p]
	}
	k := len(s.leftSrc)
	for i, p := range s.rightSrc {
		je.out[k+i] = r[p]
	}
	je.n++
	je.next.push(je.out)
	return true
}

// emitUnmatched pushes on the null-extended output row of a LEFT join's
// unmatched left row.
func (je *joinEmitter) emitUnmatched(l []rel.Value) {
	for i, p := range je.shape.leftSrc {
		je.out[i] = l[p]
	}
	clear(je.out[len(je.shape.leftSrc):])
	je.n++
	je.next.push(je.out)
}
