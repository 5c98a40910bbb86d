package linalg

import (
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// The scatter phase of the parallel SpMV works over fixed row blocks. The
// block decomposition is a function of the matrix dimension ONLY — never of
// the worker count — so each block's partial vector is computed by exactly
// one worker with a deterministic serial accumulation order, and the fold
// sums the partials in canonical (ascending block) order. Worker count then
// only changes which goroutine computes a block, not any float operation or
// its order: results are bit-for-bit identical for every parallelism.
//
// A block's partial is stored compressed: one slot per distinct column the
// block's rows touch, so a product costs O(nnz + touched columns) instead of
// O(blocks·n). Skipping the untouched columns is exact. A dense partial holds
// +0 there, and the fold's running sum starts at +0 and can never become −0
// under round-to-nearest (x + y is −0 only when both are −0), so adding +0
// leaves it unchanged bit for bit.
const (
	spmvBlockRows = 256
	spmvMaxBlocks = 32
)

// BlockCount returns the canonical scatter block count for an n-row matrix —
// the decomposition the cluster layer fans out to worker processes. It is a
// function of n ONLY (never of worker or process count), which is what makes
// a distributed SpMV bit-identical to the local one: each block's partial is
// produced by the same serial accumulation wherever it runs, and FoldBlocks
// folds them in the same canonical order MulTranspose does.
func BlockCount(n int) int { return blockCount(n) }

// blockCount returns the canonical scatter block count for an n-row matrix.
func blockCount(n int) int {
	b := (n + spmvBlockRows - 1) / spmvBlockRows
	if b < 1 {
		b = 1
	}
	if b > spmvMaxBlocks {
		b = spmvMaxBlocks
	}
	return b
}

// blockRows returns block b's row range [lo, hi).
func (c *CSR) blockRows(b int) (lo, hi int) {
	lo, hi = b*c.rowsPer, (b+1)*c.rowsPer
	if hi > c.n {
		hi = c.n
	}
	return lo, hi
}

// blockPattern is one block's compressed scatter layout: the columns its
// rows touch and, for every stored entry, the slot of its column.
type blockPattern struct {
	built bool
	gen   uint64    // the block's CSR.gen when the pattern was built
	cols  []int32   // ascending distinct columns the block's rows touch
	lidx  []int32   // per block entry (rows ascending, columns ascending): index into cols
	part  []float64 // the block's partial product, aligned with cols
}

// Workspace holds the SpMV scratch: the per-block compressed partials, their
// column patterns and the dangling masses. A pattern is rebuilt only when
// its block's column set changed since the workspace last saw it (value-only
// row rewrites keep it), so reusing one workspace across iterations keeps
// the power iteration allocation-free in steady state. A workspace must not
// be shared by concurrent SpMV calls.
type Workspace struct {
	owner *CSR // the matrix the patterns describe
	pats  []blockPattern
	mass  []float64
	mark  []uint64 // column bitmap; all zero between pattern builds
	rank  []int32  // per bitmap word: pattern columns in lower words
}

// refresh brings the patterns of blocks [lob, hib) up to date with c.
func (w *Workspace) refresh(c *CSR, lob, hib int) {
	if w.owner != c {
		words := (c.n + 63) / 64
		blocks := len(c.gen)
		*w = Workspace{
			owner: c,
			pats:  make([]blockPattern, blocks),
			mass:  make([]float64, blocks),
			mark:  make([]uint64, words),
			rank:  make([]int32, words),
		}
	}
	for b := lob; b < hib; b++ {
		if p := &w.pats[b]; !p.built || p.gen != c.gen[b] {
			w.build(c, b)
		}
	}
}

// build rebuilds block b's pattern: mark every touched column in the bitmap,
// list the marked columns in ascending order, then give each entry its
// column's rank among them — a prefix count per word plus a popcount within
// the word, so the cost is O(entries + words spanned), no comparison sort.
func (w *Workspace) build(c *CSR, b int) {
	p := &w.pats[b]
	lo, hi := c.blockRows(b)
	mark := w.mark
	wlo, whi := len(mark), 0
	entries := 0
	for i := lo; i < hi; i++ {
		e := c.rows[i]
		if e.n == 0 {
			continue
		}
		cols := c.cols[e.off : e.off+e.n]
		for _, col := range cols {
			mark[col>>6] |= 1 << (col & 63)
		}
		wlo = min(wlo, int(cols[0]>>6))
		whi = max(whi, int(cols[len(cols)-1]>>6)+1)
		entries += e.n
	}
	touched := int32(0)
	for wd := wlo; wd < whi; wd++ {
		w.rank[wd] = touched
		touched += int32(bits.OnesCount64(mark[wd]))
	}
	p.cols = resize(p.cols, int(touched))
	for wd := wlo; wd < whi; wd++ {
		k := w.rank[wd]
		for m := mark[wd]; m != 0; m &= m - 1 {
			p.cols[k] = int32(wd<<6 | bits.TrailingZeros64(m))
			k++
		}
	}
	p.lidx = resize(p.lidx, entries)
	k := 0
	for i := lo; i < hi; i++ {
		e := c.rows[i]
		for _, col := range c.cols[e.off : e.off+e.n] {
			wd := col >> 6
			below := mark[wd] & (1<<(col&63) - 1)
			p.lidx[k] = w.rank[wd] + int32(bits.OnesCount64(below))
			k++
		}
	}
	for wd := wlo; wd < whi; wd++ {
		mark[wd] = 0
	}
	p.part = resize(p.part, int(touched))
	p.gen, p.built = c.gen[b], true
}

// resize returns s with length n, reallocating only when it lacks capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MulTranspose computes y = Aᵀx + mass·dangle, where mass is the total x
// weight sitting on empty (dangling) rows: mass = Σ_{i : row i empty} x[i].
// This is the rank-one uniform correction that replaces a dense uniform (or
// pretrust) fill of silent rows — dangle is the distribution a dangling
// row's weight jumps to (nil applies no correction). x and y must have
// length N and must not overlap.
//
// The product scatters over the canonical row blocks on up to `workers`
// goroutines and folds the compressed partials in ascending block order,
// each worker owning a contiguous output range; see the package comment for
// why the result is bit-for-bit identical at any worker count.
func (c *CSR) MulTranspose(y, x, dangle []float64, workers int, ws *Workspace) {
	n := c.n
	if n == 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	blocks := len(c.gen)
	ws.refresh(c, 0, blocks)

	// Scatter: each block accumulates its rows' contributions into its own
	// partial, rows ascending, columns ascending within a row.
	if workers == 1 {
		// Inline serial path: no closures, so the steady state is
		// allocation-free.
		c.scatter(ws, x, 0, blocks)
	} else {
		sim.ForChunks(workers, blocks, func(lob, hib int) {
			c.scatter(ws, x, lob, hib)
		})
	}

	mass := 0.0
	for b := 0; b < blocks; b++ {
		mass += ws.mass[b]
	}

	// Fold: each output index is owned by one worker and sums the partials
	// in ascending block order — canonical regardless of chunking.
	if workers == 1 {
		ws.fold(y, dangle, mass, 0, n)
	} else {
		sim.ForChunks(workers, n, func(lo, hi int) {
			ws.fold(y, dangle, mass, lo, hi)
		})
	}
}

// ScatterBlocks computes the partial vectors and dangling masses of the
// canonical scatter blocks [lob, hib) for y = Aᵀx: partials[k] is block
// lob+k's length-n partial, masses[k] its dangling x mass. It runs exactly
// the serial per-block accumulation MulTranspose's scatter phase runs, on
// ws's patterns for those blocks, and expands each compressed partial to
// length n (+0 off its pattern), so a partial computed here — in another
// process, say — is bit-for-bit the one the local kernel would have
// produced. Pair with FoldBlocks on the full block set to finish the
// product. Only the returned blocks are allocated; the results never alias
// ws.
func (c *CSR) ScatterBlocks(x []float64, lob, hib int, ws *Workspace) (partials [][]float64, masses []float64) {
	n := c.n
	if hib > len(c.gen) {
		hib = len(c.gen)
	}
	if n == 0 || lob >= hib {
		return nil, nil
	}
	ws.refresh(c, lob, hib)
	c.scatter(ws, x, lob, hib)
	dense := make([]float64, (hib-lob)*n)
	partials = make([][]float64, hib-lob)
	for b := lob; b < hib; b++ {
		out := dense[(b-lob)*n : (b-lob+1)*n : (b-lob+1)*n]
		p := &ws.pats[b]
		for k, col := range p.cols {
			out[col] = p.part[k]
		}
		partials[b-lob] = out
	}
	return partials, append([]float64(nil), ws.mass[lob:hib]...)
}

// FoldBlocks completes y = Aᵀx + mass·dangle from a full set of per-block
// partials (partials[b] for block b, ascending; masses likewise). The fold
// runs the same arithmetic in the same order as MulTranspose's fold phase —
// masses summed in ascending block order, each output index summing its
// partials in ascending block order before the rank-one dangling correction
// — so a product assembled from remotely computed blocks is bit-identical
// to the local one. dangle == nil applies no correction.
func FoldBlocks(y, dangle []float64, partials [][]float64, masses []float64) {
	mass := 0.0
	for _, m := range masses {
		mass += m
	}
	blocks := len(partials)
	for j := range y {
		s := 0.0
		for b := 0; b < blocks; b++ {
			s += partials[b][j]
		}
		if dangle == nil {
			y[j] = s
		} else {
			y[j] = s + mass*dangle[j]
		}
	}
}

// scatter accumulates blocks [lob, hib) of the transpose product into the
// workspace's compressed partials and dangling masses.
func (c *CSR) scatter(ws *Workspace, x []float64, lob, hib int) {
	for b := lob; b < hib; b++ {
		p := &ws.pats[b]
		part := p.part
		clear(part)
		mass := 0.0
		lo, hi := c.blockRows(b)
		k := 0 // block entry index: the running offset into lidx
		for i := lo; i < hi; i++ {
			e := c.rows[i]
			if e.n == 0 {
				mass += x[i]
				continue
			}
			xi := x[i]
			if xi != 0 {
				lidx := p.lidx[k : k+e.n]
				for t, v := range c.vals[e.off : e.off+e.n] {
					part[lidx[t]] += v * xi
				}
			}
			k += e.n
		}
		ws.mass[b] = mass
	}
}

// fold writes output indices [lo, hi): the partials summed in ascending
// block order, then the rank-one dangling correction when dangle is set.
// Each block's first column in range is found by binary search.
func (w *Workspace) fold(y, dangle []float64, mass float64, lo, hi int) {
	clear(y[lo:hi])
	for b := range w.pats {
		cols, part := w.pats[b].cols, w.pats[b].part
		k, _ := slices.BinarySearch(cols, int32(lo))
		for ; k < len(cols) && int(cols[k]) < hi; k++ {
			y[cols[k]] += part[k]
		}
	}
	if dangle != nil {
		for j := lo; j < hi; j++ {
			y[j] += mass * dangle[j]
		}
	}
}
