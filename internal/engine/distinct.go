package engine

import (
	"slices"
	"strings"

	"sqlgraph/internal/rel"
)

// DISTINCT decides membership with a deduper (DESIGN.md §8, §21). The
// translation's DISTINCT is over one column of element ids, so one-integer
// rows live in an idSet; anything else is kept by canonical string key.

// appendIntRows appends one-column rows holding ids to rows, all backed
// by one array.
func appendIntRows(rows [][]rel.Value, ids []int64) [][]rel.Value {
	vals := make([]rel.Value, len(ids))
	rows = slices.Grow(rows, len(ids))
	for i, id := range ids {
		vals[i] = rel.NewInt(id)
		rows = append(rows, vals[i:i+1:i+1])
	}
	return rows
}

func rowKey(row []rel.Value) string {
	var sb strings.Builder
	for _, v := range row {
		k := v.Key()
		sb.WriteString(k)
		sb.WriteByte(0xFF)
	}
	return sb.String()
}

// deduper tracks seen rows: a row that is one integer as its id, any
// other by canonical string key. Under an ascending DISTINCT the ids stay
// apart from the keys to the end (collect.finish); otherwise the first row
// that is not one integer moves them to string keys, where they stay, for
// the rows are one first-occurrence sequence from then on.
type deduper struct {
	ids       idSet
	strs      map[string]struct{} // non-nil once a row that is not one integer was seen
	ascending bool                // the input is order-free: the ids come out ascending, ahead of the other rows
}

// intRow returns the id of a row the set holds: a single integer, while
// the ids have not moved to string keys.
func (d *deduper) intRow(row []rel.Value) (int64, bool) {
	if (d.strs == nil || d.ascending) && len(row) == 1 && row[0].Kind() == rel.KindInt {
		return row[0].Int(), true
	}
	return 0, false
}

// seen records the row and reports whether it was already present.
func (d *deduper) seen(row []rel.Value) bool {
	if id, ok := d.intRow(row); ok {
		return !d.ids.add(id)
	}
	if d.strs == nil {
		d.strs = map[string]struct{}{}
		if !d.ascending {
			for _, id := range d.ids.appendRange(nil, 0, d.ids.len()) {
				d.strs[rowKey([]rel.Value{rel.NewInt(id)})] = struct{}{}
			}
			d.ids.reset()
		}
	}
	k := rowKey(row)
	if _, ok := d.strs[k]; ok {
		return true
	}
	d.strs[k] = struct{}{}
	return false
}
