// Package linalg is the sparse linear-algebra kernel under the reputation
// mechanisms: row-normalized CSR trust matrices updated in batches of dirty
// rows, and a deterministic sparse matrix–vector product.
// Every epoch the interaction graph touches only a sliver of the
// population, so the mechanisms rematerialize just the changed rows and pay
// O(nnz) per power iteration instead of the Θ(n²) a dense [][]float64 costs.
//
// Determinism is a hard contract, matching the epoch pipeline's: every
// product adds the same terms in the same canonical block order, locally or
// through the cluster's block partials (see spmv.go for the argument).
package linalg

import (
	"fmt"
	"math/bits"
	"slices"
)

// RowSource supplies matrix rows: AppendRow appends row i's entries —
// columns strictly ascending within [0, n) — to cols and vals and returns
// the extended slices.
type RowSource interface {
	AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64)
}

// entries is a run of entries, rows ascending and columns ascending within
// a row, with each row's start offset.
type entries struct {
	ptr []int32   // row r of the run holds entries [ptr[r], ptr[r+1])
	row []int32   // per entry: its row
	col []int32   // per entry: its column
	val []float64 // per entry: its value
}

// block is one canonical SpMV block (see spmv.go): its rows' entries in the
// order the kernel reads them, plus the block's pattern.
type block struct {
	lo int // first row; the block holds rows [lo, lo+len(ptr)-1)
	entries
	cols   []int32 // ascending distinct columns the block's rows touch
	shared []int32 // ascending columns the block's rows touch more than once
	empty  []int32 // ascending rows with no entry (dangling)
}

// CSR is a square sparse matrix whose rows are each empty (dangling) or
// normalized to sum 1. It is stored block-major: each canonical SpMV block
// keeps its entries contiguous, rows ascending and columns strictly
// ascending within a row — the order the kernel reads them, and the order
// its deterministic accumulation rests on. Rows change only through Update.
type CSR struct {
	n       int
	rowsPer int // rows per block; the last block may hold fewer
	blocks  []block

	// Update scratch: the dirty rows' new entries (ptr per dirty row), the
	// merge target a rebuilt block swaps its entries with, and the column
	// bitmaps of a pattern rebuild (touched, and touched twice). The bitmaps
	// are all zero between calls.
	fresh, spare entries
	mark, dup    []uint64
}

// New returns an empty n×n matrix: every row dangling.
func New(n int) *CSR {
	n = max(n, 0)
	nb := BlockCount(n)
	words := (n + 63) / 64
	c := &CSR{
		n:       n,
		rowsPer: max(1, (n+nb-1)/nb),
		blocks:  make([]block, nb),
		mark:    make([]uint64, words),
		dup:     make([]uint64, words),
	}
	for b := range c.blocks {
		blk := &c.blocks[b]
		blk.lo = min(b*c.rowsPer, n)
		rows := min((b+1)*c.rowsPer, n) - blk.lo
		blk.ptr = make([]int32, rows+1)
		blk.empty = make([]int32, 0, rows)
		c.pattern(blk)
	}
	return c
}

// Build returns the n×n matrix whose rows are src's rows, each normalized
// as Update does.
func Build(n int, src RowSource) *CSR {
	c := New(n)
	rows := make([]int, c.n)
	for i := range rows {
		rows[i] = i
	}
	c.Update(src, rows)
	return c
}

// AppendRow appends row i's columns (ascending) and values to cols and vals
// and returns the extended slices, so a matrix is itself a RowSource.
func (c *CSR) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	blk := &c.blocks[i/c.rowsPer]
	lo, hi := blk.ptr[i-blk.lo], blk.ptr[i-blk.lo+1]
	return append(cols, blk.col[lo:hi]...), append(vals, blk.val[lo:hi]...)
}

// Update rematerializes rows — strictly ascending — from src. Each row is
// normalized: its sum is taken in ascending column order and each value
// divided by it, so the result matches a dense left-to-right row scan bit
// for bit. A row whose sum is not positive becomes empty: a dangling row,
// handled by the SpMV's rank-one correction instead of a dense uniform
// fill. A block whose updated rows all keep their column sets is rewritten
// in place, in O(updated entries); any other block is rebuilt, in
// O(entries in the block). Rows out of order or range, or a source row
// with unordered or out-of-range columns, are programming errors and panic.
func (c *CSR) Update(src RowSource, rows []int) {
	for k, i := range rows {
		if i < 0 || i >= c.n || (k > 0 && i <= rows[k-1]) {
			panic(fmt.Sprintf("linalg: Update rows must be strictly ascending in [0,%d): %d at position %d", c.n, i, k))
		}
	}
	for k := 0; k < len(rows); {
		blk := &c.blocks[rows[k]/c.rowsPer]
		end := k + 1
		for end < len(rows) && rows[end] < blk.lo+len(blk.ptr)-1 {
			end++
		}
		c.updateBlock(src, blk, rows[k:end])
		k = end
	}
}

// updateBlock rematerializes rows of blk from src.
func (c *CSR) updateBlock(src RowSource, blk *block, rows []int) {
	f := &c.fresh
	f.ptr = append(f.ptr[:0], 0)
	f.col, f.val = f.col[:0], f.val[:0]
	same := true
	for _, i := range rows {
		start := len(f.col)
		f.col, f.val = src.AppendRow(i, f.col, f.val)
		c.normalize(i, start)
		f.ptr = append(f.ptr, int32(len(f.col)))
		r := i - blk.lo
		same = same && slices.Equal(blk.col[blk.ptr[r]:blk.ptr[r+1]], f.col[start:])
	}
	if same {
		for j, i := range rows {
			r := i - blk.lo
			copy(blk.val[blk.ptr[r]:blk.ptr[r+1]], f.val[f.ptr[j]:f.ptr[j+1]])
		}
		return
	}
	c.merge(blk, rows)
	c.pattern(blk)
}

// normalize checks the row i just appended at fresh[start:] and scales it to
// sum 1, or drops its entries when the sum is not positive.
func (c *CSR) normalize(i, start int) {
	f := &c.fresh
	if len(f.col) != len(f.val) {
		panic(fmt.Sprintf("linalg: row %d: %d cols vs %d vals", i, len(f.col)-start, len(f.val)-start))
	}
	cols, vals := f.col[start:], f.val[start:]
	for k, col := range cols {
		if col < 0 || int(col) >= c.n {
			panic(fmt.Sprintf("linalg: row %d: column %d out of range [0,%d)", i, col, c.n))
		}
		if k > 0 && cols[k-1] >= col {
			panic(fmt.Sprintf("linalg: row %d: columns not strictly ascending at %d", i, k))
		}
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if sum <= 0 {
		f.col, f.val = f.col[:start], f.val[:start]
		return
	}
	for k := range vals {
		vals[k] /= sum
	}
}

// merge rebuilds blk's entries in one pass into the spare run — the rows
// between updated ones copied as whole runs, the updated rows from the
// fresh entries — and swaps the two runs.
func (c *CSR) merge(blk *block, rows []int) {
	f, s := &c.fresh, &c.spare
	nrows := len(blk.ptr) - 1
	size := len(f.col) + len(blk.row)
	for _, i := range rows {
		size -= int(blk.ptr[i-blk.lo+1] - blk.ptr[i-blk.lo])
	}
	s.ptr = resize(s.ptr, nrows+1)
	s.row, s.col, s.val = resize(s.row, size), resize(s.col, size), resize(s.val, size)
	pos, next := int32(0), 0 // write offset; first row not yet written
	for j := 0; ; j++ {
		r := nrows
		if j < len(rows) {
			r = rows[j] - blk.lo
		}
		// Rows [next, r) keep their entries: copy them as one run.
		if next < r {
			lo, hi := blk.ptr[next], blk.ptr[r]
			copy(s.row[pos:], blk.row[lo:hi])
			copy(s.col[pos:], blk.col[lo:hi])
			copy(s.val[pos:], blk.val[lo:hi])
			for q := next; q < r; q++ {
				s.ptr[q] = blk.ptr[q] - lo + pos
			}
			pos += hi - lo
		}
		if j == len(rows) {
			break
		}
		lo, hi := f.ptr[j], f.ptr[j+1]
		s.ptr[r] = pos
		copy(s.col[pos:], f.col[lo:hi])
		copy(s.val[pos:], f.val[lo:hi])
		seg := s.row[pos : pos+hi-lo]
		for k := range seg {
			seg[k] = int32(blk.lo + r)
		}
		pos += hi - lo
		next = r + 1
	}
	s.ptr[nrows] = pos
	blk.entries, c.spare = c.spare, blk.entries
}

// pattern rebuilds blk's pattern from its entries: its empty rows, its
// touched columns and, among them, those touched more than once. Each
// column is marked in a bitmap over the n/64 column words, a second mark
// recording a repeat, and the marked columns are read out word by word in
// ascending order, so the cost is O(entries + words spanned), no
// comparison sort.
func (c *CSR) pattern(blk *block) {
	blk.empty = blk.empty[:0]
	for r := range blk.ptr[1:] {
		if blk.ptr[r] == blk.ptr[r+1] {
			blk.empty = append(blk.empty, int32(blk.lo+r))
		}
	}
	mark, dup := c.mark, c.dup
	wlo, whi := len(mark), 0
	for _, col := range blk.col {
		wd, bit := int(col>>6), uint64(1)<<(col&63)
		dup[wd] |= mark[wd] & bit
		mark[wd] |= bit
		wlo, whi = min(wlo, wd), max(whi, wd+1)
	}
	touched, shared := 0, 0
	for wd := wlo; wd < whi; wd++ {
		touched += bits.OnesCount64(mark[wd])
		shared += bits.OnesCount64(dup[wd])
	}
	whi = max(whi, wlo) // a block with no entry spans no word
	blk.cols = listBits(resize(blk.cols, touched)[:0], mark[wlo:whi], wlo)
	blk.shared = listBits(resize(blk.shared, shared)[:0], dup[wlo:whi], wlo)
}

// listBits appends, ascending, the column of every bit set in words (word
// 0 being column word base) to dst, zeroes the words, and returns dst.
func listBits(dst []int32, words []uint64, base int) []int32 {
	for k, w := range words {
		for m := w; m != 0; m &= m - 1 {
			dst = append(dst, int32((base+k)<<6|bits.TrailingZeros64(m)))
		}
		words[k] = 0
	}
	return dst
}

// resize returns s with length n, reallocating with an eighth's headroom
// only when it lacks capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}
