package reputation

import (
	"cmp"
	"fmt"
	"iter"
	"slices"

	"repro/internal/metrics"
)

// Cell is one (rater, ratee) aggregate of a sparse rating matrix: the ratee
// column and the mechanism's per-pair aggregate.
type Cell[V any] struct {
	Col int32
	Val V
}

// Entry is one cell of a serialized rating matrix, with its rater.
type Entry[V any] struct {
	Row, Col int
	Val      V
}

// rowCap is the capacity a rater's row starts with: most raters rate a
// handful of distinct ratees, so one allocation covers a typical row.
const rowCap = 8

// Rows is the sparse rating matrix EigenTrust's local trust and
// PowerTrust's feedback graph share: one slice of cells per rater, sorted by
// ratee and holding only pairs that exchanged a report, plus the set of rows
// changed since the last ClearDirty, so a recompute touches O(changed rows),
// not Θ(n²). The per-pair aggregate V is the mechanism's: satisfactory and
// unsatisfactory counts for LocalTrust, a rating sum and count for
// PowerTrust. The zero value is a 0-peer matrix; use NewRows.
type Rows[V any] struct {
	rows  [][]Cell[V] // nil: the rater has no row (never rated, or reset)
	dirty metrics.DirtySet
}

// NewRows returns an empty matrix for n peers.
func NewRows[V any](n int) Rows[V] {
	return Rows[V]{rows: make([][]Cell[V], max(n, 0))}
}

// Row returns rater i's cells, ratee ascending. Read-only; valid until the
// row's next mutation.
func (r *Rows[V]) Row(i int) []Cell[V] { return r.rows[i] }

// All yields every cell with its rater in (rater, ratee) order — the
// canonical order the serialized forms use, so equal matrices encode to
// equal blobs without a sort.
func (r *Rows[V]) All() iter.Seq2[int, Cell[V]] {
	return func(yield func(int, Cell[V]) bool) {
		for i, row := range r.rows {
			for _, c := range row {
				if !yield(i, c) {
					return
				}
			}
		}
	}
}

// find returns the position of column j in row (sorted by column): its
// index when present, else the index it would be inserted at.
func find[V any](row []Cell[V], j int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].Col < j {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].Col == j
}

// Upsert returns cell (i, j)'s aggregate, inserting a zero one when the pair
// has none, and marks row i dirty: the caller is about to change it. The
// pointer is valid until row i's next insert or delete.
func (r *Rows[V]) Upsert(i int, j int32) *V {
	row := r.rows[i]
	if row == nil {
		row = make([]Cell[V], 0, rowCap)
		r.rows[i] = row
	}
	if !r.dirty.Dirty(i) { // inlined: a rater's repeat reports skip the Mark call
		r.dirty.Mark(i)
	}
	k, found := find(row, j)
	if !found {
		row = slices.Insert(row, k, Cell[V]{Col: j})
		r.rows[i] = row
	}
	return &row[k].Val
}

// Delete removes cell (i, j) and returns its aggregate; ok is false, and
// nothing changes, when the pair has no cell. Row i is marked dirty.
func (r *Rows[V]) Delete(i int, j int32) (v V, ok bool) {
	row := r.rows[i]
	k, found := find(row, j)
	if !found {
		return v, false
	}
	v = row[k].Val
	r.rows[i] = slices.Delete(row, k, k+1)
	r.dirty.Mark(i)
	return v, true
}

// DropRow removes rater i's row, marking it dirty when it existed.
func (r *Rows[V]) DropRow(i int) {
	if r.rows[i] != nil {
		r.rows[i] = nil
		r.dirty.Mark(i)
	}
}

// DirtyRows returns, in ascending order, the rows changed since the last
// ClearDirty — the rows whose CSR materialization is stale. The slice is
// owned by the matrix and valid until its next mutation or ClearDirty.
func (r *Rows[V]) DirtyRows() []int { return r.dirty.Sorted() }

// HasDirty reports whether any row changed since the last ClearDirty.
func (r *Rows[V]) HasDirty() bool { return r.dirty.Len() > 0 }

// ClearDirty empties the dirty set (called after the mechanism has
// rematerialized the rows it reported).
func (r *Rows[V]) ClearDirty() { r.dirty.Reset() }

// DirtyState returns the dirty rows ascending, in the form the serialized
// states store them (nil when none).
func (r *Rows[V]) DirtyState() []int32 {
	var out []int32
	for _, i := range r.dirty.Sorted() {
		out = append(out, int32(i))
	}
	return out
}

// RowsFromState rebuilds an n-peer matrix from serialized entries and dirty
// rows. Entries may come in any order, but each must be an in-range,
// non-self (rater, ratee) pair that appears once, and each dirty row must be
// in range — the only matrices reports can build. The aggregates are the
// caller's to check, and entries is sorted in place. The result is a fresh
// matrix, so a caller whose other state fails validation can drop it and
// stay unchanged.
func RowsFromState[V any](n int, entries []Entry[V], dirty []int32) (Rows[V], error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return Rows[V]{}, fmt.Errorf("rating-matrix entry %d->%d out of range [0,%d)", e.Row, e.Col, n)
		}
		if e.Row == e.Col {
			return Rows[V]{}, fmt.Errorf("rating-matrix entry %d->%d is a self-rating", e.Row, e.Col)
		}
	}
	for _, i := range dirty {
		if i < 0 || int(i) >= n {
			return Rows[V]{}, fmt.Errorf("rating-matrix dirty row %d out of range [0,%d)", i, n)
		}
	}
	byPair := func(a, b Entry[V]) int {
		if c := cmp.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	}
	slices.SortFunc(entries, byPair)
	for k := 1; k < len(entries); k++ {
		if byPair(entries[k-1], entries[k]) == 0 {
			return Rows[V]{}, fmt.Errorf("rating-matrix entry %d->%d appears twice", entries[k].Row, entries[k].Col)
		}
	}
	r := NewRows[V](n)
	for lo := 0; lo < len(entries); {
		i := entries[lo].Row
		hi := lo + 1
		for hi < len(entries) && entries[hi].Row == i {
			hi++
		}
		row := make([]Cell[V], hi-lo)
		for k, e := range entries[lo:hi] {
			row[k] = Cell[V]{Col: int32(e.Col), Val: e.Val}
		}
		r.rows[i] = row
		lo = hi
	}
	for _, i := range dirty {
		r.dirty.Mark(int(i))
	}
	return r, nil
}
