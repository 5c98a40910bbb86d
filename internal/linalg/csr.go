// Package linalg is the sparse linear-algebra kernel under the reputation
// mechanisms: CSR trust matrices with incremental per-row updates and a
// deterministic, shard-parallel sparse matrix–vector product. Every epoch
// the interaction graph touches only a sliver of the population, so the
// mechanisms rematerialize just the changed rows and pay O(nnz) per power
// iteration instead of the Θ(n²) a dense [][]float64 costs.
//
// Determinism is a hard contract, matching the epoch pipeline's: all
// results are bit-for-bit identical for every worker count (see spmv.go for
// the canonical-fold argument).
package linalg

import (
	"fmt"
	"slices"
	"sort"
)

// extent locates one row inside the shared arena.
type extent struct {
	off, n, cap int
}

// CSR is a square sparse matrix in compressed-sparse-row form. All rows
// share one (cols, vals) arena; each row occupies a contiguous extent with
// slack capacity so hot rows can be rewritten in place as trust accumulates.
// Rows that outgrow their extent move to the arena tail, and the arena is
// repacked automatically once the leaked space exceeds the live entries.
//
// Column indices within a row are strictly ascending — the invariant every
// kernel (SpMV accumulation order, row normalization, golden equivalence
// with the dense reference) rests on.
type CSR struct {
	n    int
	rows []extent
	cols []int32
	vals []float64
	live int // live entries; len(cols) - live is leaked by row moves

	// rowsPer is the row span of one canonical SpMV block; gen[b] counts
	// the column-set changes of block b's rows, so a Workspace rebuilds a
	// block's scatter pattern only when its structure (not its values)
	// changed.
	rowsPer int
	gen     []uint64
}

// New returns an empty n×n matrix.
func New(n int) *CSR {
	if n < 0 {
		n = 0
	}
	blocks := blockCount(n)
	return &CSR{
		n:       n,
		rows:    make([]extent, n),
		rowsPer: (n + blocks - 1) / blocks,
		gen:     make([]uint64, blocks),
	}
}

// touch records that row i's column set changed.
func (c *CSR) touch(i int) { c.gen[i/c.rowsPer]++ }

// Triplet is one (row, col, value) coordinate entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// FromTriplets builds a matrix from coordinate entries in any order;
// duplicate coordinates are summed. Out-of-range coordinates are an error.
func FromTriplets(n int, ts []Triplet) (*CSR, error) {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, fmt.Errorf("linalg: triplet (%d,%d) out of range [0,%d)", t.Row, t.Col, n)
		}
	}
	sorted := append([]Triplet(nil), ts...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Row != sorted[b].Row {
			return sorted[a].Row < sorted[b].Row
		}
		return sorted[a].Col < sorted[b].Col
	})
	c := New(n)
	c.cols = make([]int32, 0, len(sorted))
	c.vals = make([]float64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		row := sorted[i].Row
		off := len(c.cols)
		for ; i < len(sorted) && sorted[i].Row == row; i++ {
			if k := len(c.cols); k > off && c.cols[k-1] == int32(sorted[i].Col) {
				c.vals[k-1] += sorted[i].Val
				continue
			}
			c.cols = append(c.cols, int32(sorted[i].Col))
			c.vals = append(c.vals, sorted[i].Val)
		}
		c.rows[row] = extent{off: off, n: len(c.cols) - off, cap: len(c.cols) - off}
	}
	c.live = len(c.cols)
	return c, nil
}

// N returns the matrix dimension.
func (c *CSR) N() int { return c.n }

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return c.live }

// Row returns row i's column indices (ascending) and values. The slices
// alias internal storage: they are read-only and valid only until the next
// mutating call (SetRow, NormalizeRow, ClearRow).
func (c *CSR) Row(i int) ([]int32, []float64) {
	e := c.rows[i]
	return c.cols[e.off : e.off+e.n], c.vals[e.off : e.off+e.n]
}

// RowEmpty reports whether row i has no stored entries.
func (c *CSR) RowEmpty(i int) bool { return c.rows[i].n == 0 }

// SetRow replaces row i. cols must be strictly ascending and in range —
// a violated invariant is a programming error and panics — and cols/vals
// must not alias the matrix's own storage (pass scratch buffers, not the
// slices returned by Row). The row is rewritten in place when it fits its
// extent; otherwise it moves to the arena tail (compacting first if the
// arena has leaked past its live size).
func (c *CSR) SetRow(i int, cols []int32, vals []float64) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("linalg: SetRow row %d out of range [0,%d)", i, c.n))
	}
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("linalg: SetRow row %d: %d cols vs %d vals", i, len(cols), len(vals)))
	}
	for k, col := range cols {
		if col < 0 || int(col) >= c.n {
			panic(fmt.Sprintf("linalg: SetRow row %d: column %d out of range [0,%d)", i, col, c.n))
		}
		if k > 0 && cols[k-1] >= col {
			panic(fmt.Sprintf("linalg: SetRow row %d: columns not strictly ascending at %d", i, k))
		}
	}
	e := c.rows[i]
	if len(cols) <= e.cap {
		if !slices.Equal(c.cols[e.off:e.off+e.n], cols) {
			c.touch(i)
		}
		copy(c.cols[e.off:], cols)
		copy(c.vals[e.off:], vals)
		c.live += len(cols) - e.n
		c.rows[i] = extent{off: e.off, n: len(cols), cap: e.cap}
		return
	}
	// Abandon the old extent; emptying it first lets a compaction pass
	// drop it instead of copying dead entries.
	c.touch(i)
	c.live -= e.n
	c.rows[i].n = 0
	if len(c.cols) > 2*(c.live+len(cols))+64 {
		c.compact()
	}
	// Slack absorbs the steady growth of a filling trust row without a move
	// per added entry.
	slack := len(cols)/4 + 4
	off := len(c.cols)
	c.cols = append(c.cols, cols...)
	c.vals = append(c.vals, vals...)
	for k := 0; k < slack; k++ {
		c.cols = append(c.cols, 0)
		c.vals = append(c.vals, 0)
	}
	c.rows[i] = extent{off: off, n: len(cols), cap: len(cols) + slack}
	c.live += len(cols)
}

// ClearRow empties row i (its extent capacity is kept for reuse).
func (c *CSR) ClearRow(i int) {
	if c.rows[i].n == 0 {
		return
	}
	c.touch(i)
	c.live -= c.rows[i].n
	c.rows[i].n = 0
}

// NormalizeRow scales row i to sum 1, returning the pre-normalization sum.
// The sum is accumulated in ascending column order, so it is deterministic
// and matches a dense left-to-right row scan bit for bit. A row with a
// non-positive sum is cleared: it is a dangling row, handled by the SpMV's
// rank-one correction instead of a dense uniform fill.
func (c *CSR) NormalizeRow(i int) float64 {
	e := c.rows[i]
	sum := 0.0
	for _, v := range c.vals[e.off : e.off+e.n] {
		sum += v
	}
	if sum <= 0 {
		c.ClearRow(i)
		return sum
	}
	for k := e.off; k < e.off+e.n; k++ {
		c.vals[k] /= sum
	}
	return sum
}

// compact repacks the arena, dropping extents leaked by row moves. Row
// order is preserved, so iteration order — and therefore every numeric
// result — is unchanged.
func (c *CSR) compact() {
	cols := make([]int32, 0, c.live+c.live/4)
	vals := make([]float64, 0, c.live+c.live/4)
	for i := range c.rows {
		e := c.rows[i]
		off := len(cols)
		cols = append(cols, c.cols[e.off:e.off+e.n]...)
		vals = append(vals, c.vals[e.off:e.off+e.n]...)
		c.rows[i] = extent{off: off, n: e.n, cap: e.n}
	}
	c.cols, c.vals = cols, vals
}
