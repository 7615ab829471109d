package stats

import (
	"slices"
	"sort"

	"sqlgraph/internal/rel"
)

// histogramBuckets is the number of equi-height buckets built per
// configured column at rebuild time.
const histogramBuckets = 32

// Histogram is an equi-height histogram over the non-null values of one
// column, built only at Rebuild/Checkpoint time (it is not maintained
// incrementally; see DESIGN.md §15 for the invalidation rules). Bounds
// holds ascending bucket upper bounds; every bucket covers Total/len
// rows.
type Histogram struct {
	Bounds []rel.Value
	Total  int64
	Min    rel.Value
	Max    rel.Value
}

// buildHistogram sorts vals in place and cuts them into equi-height
// buckets. Returns nil for empty input.
func buildHistogram(vals []rel.Value) *Histogram {
	slices.SortFunc(vals, rel.Compare)
	return cutHistogram(len(vals), func(i int) rel.Value { return vals[i] })
}

// cutHistogram cuts n values, of which at(i) is the i-th smallest, into
// equi-height buckets. Returns nil for n == 0.
func cutHistogram(n int, at func(i int) rel.Value) *Histogram {
	if n == 0 {
		return nil
	}
	b := min(histogramBuckets, n)
	h := &Histogram{Total: int64(n), Min: at(0), Max: at(n - 1)}
	for i := 1; i <= b; i++ {
		h.Bounds = append(h.Bounds, at(i*n/b-1))
	}
	return h
}

// FracLE estimates the fraction of rows with value <= v.
func (h *Histogram) FracLE(v rel.Value) float64 {
	if h == nil || len(h.Bounds) == 0 {
		return 0.5
	}
	if rel.Compare(v, h.Min) < 0 {
		return 0
	}
	if rel.Compare(v, h.Max) >= 0 {
		return 1
	}
	// First bucket whose upper bound is >= v covers v; everything below
	// it is definitely <= v, and we credit half of the covering bucket.
	idx := sort.Search(len(h.Bounds), func(i int) bool { return rel.Compare(h.Bounds[i], v) >= 0 })
	return (float64(idx) + 0.5) / float64(len(h.Bounds))
}

// FracBetween estimates the fraction of rows in [lo, hi]; a nil bound
// leaves that side open.
func (h *Histogram) FracBetween(lo, hi *rel.Value) float64 {
	lower, upper := 0.0, 1.0
	if lo != nil {
		lower = h.FracLE(*lo)
	}
	if hi != nil {
		upper = h.FracLE(*hi)
	}
	f := upper - lower
	if f < 0 {
		f = 0
	}
	return f
}
