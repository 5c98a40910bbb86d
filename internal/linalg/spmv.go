package linalg

import (
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
// leaves it unchanged bit for bit. The same argument lets the scatter run
// one flat loop over a block's entries with no per-row branch: a row whose
// x weight is 0 adds ±0 to slots that hold no −0, which changes nothing.
//
// Every product is written float64(a*b): the explicit conversion rounds it,
// so no architecture may fuse it with the add that follows, and the bits
// are the same on all of them.
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
func BlockCount(n int) int {
	return min(max((n+spmvBlockRows-1)/spmvBlockRows, 1), spmvMaxBlocks)
}

// Workspace holds the SpMV scratch: one compressed partial per block, its
// Cols aliasing the block's touched columns. Reusing one workspace across
// iterations keeps the power iteration allocation-free in steady state; it
// may move between matrices. A workspace must not be shared by concurrent
// SpMV calls.
type Workspace struct {
	parts []BlockPartial
}

// fit sizes the partials of blocks [lob, hib) to c's current layout.
func (w *Workspace) fit(c *CSR, lob, hib int) {
	if len(w.parts) != len(c.blocks) {
		w.parts = make([]BlockPartial, len(c.blocks))
	}
	for b := lob; b < hib; b++ {
		p := &w.parts[b]
		p.Cols = c.blocks[b].cols
		p.Vals = resize(p.Vals, len(p.Cols))
	}
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
	blocks := len(c.blocks)
	ws.fit(c, 0, blocks)
	if workers == 1 {
		// Inline serial path: no closures, so the steady state is
		// allocation-free.
		c.scatter(ws, x, 0, blocks)
	} else {
		sim.ForChunks(workers, blocks, func(lob, hib int) {
			c.scatter(ws, x, lob, hib)
		})
	}
	mass := totalMass(ws.parts)
	// Each output index is owned by one worker and sums the partials in
	// ascending block order — canonical regardless of chunking.
	if workers == 1 {
		fold(y, dangle, ws.parts, mass, 0, n)
	} else {
		sim.ForChunks(workers, n, func(lo, hi int) {
			fold(y, dangle, ws.parts, mass, lo, hi)
		})
	}
}

// BlockPartial is one canonical block's share of y = Aᵀx in the kernel's
// compressed form: Vals[k] is the block's partial sum at column Cols[k]
// (strictly ascending), every other column's partial is +0, and Mass is the
// x weight on the block's empty rows.
type BlockPartial struct {
	Cols []int32
	Vals []float64
	Mass float64
}

// Valid reports whether p is well-formed for an n-column product: as many
// values as columns, and columns strictly ascending within [0, n).
func (p *BlockPartial) Valid(n int) bool {
	if len(p.Vals) != len(p.Cols) {
		return false
	}
	prev := int32(-1)
	for _, col := range p.Cols {
		if col <= prev || int(col) >= n {
			return false
		}
		prev = col
	}
	return true
}

// ScatterBlocks computes the compressed partials of the canonical scatter
// blocks [lob, hib) for y = Aᵀx, one per block in ascending order. It runs
// exactly the serial per-block accumulation MulTranspose's scatter phase
// runs, so a partial computed here — in another process, say — is
// bit-for-bit the one the local kernel would have produced. Pair with
// FoldBlocks on the full block set to finish the product. The results cost
// O(touched columns), never alias ws or the matrix, and share one column
// and one value backing array.
func (c *CSR) ScatterBlocks(x []float64, lob, hib int, ws *Workspace) []BlockPartial {
	hib = min(hib, len(c.blocks))
	if c.n == 0 || lob >= hib {
		return nil
	}
	ws.fit(c, lob, hib)
	c.scatter(ws, x, lob, hib)
	touched := 0
	for b := lob; b < hib; b++ {
		touched += len(ws.parts[b].Cols)
	}
	cols := make([]int32, 0, touched)
	vals := make([]float64, 0, touched)
	parts := make([]BlockPartial, hib-lob)
	for b := lob; b < hib; b++ {
		p := &ws.parts[b]
		k := len(cols)
		cols = append(cols, p.Cols...)
		vals = append(vals, p.Vals...)
		parts[b-lob] = BlockPartial{Cols: cols[k:len(cols):len(cols)], Vals: vals[k:len(vals):len(vals)], Mass: p.Mass}
	}
	return parts
}

// FoldBlocks completes y = Aᵀx + mass·dangle from a full set of block
// partials (parts[b] for block b, ascending). It runs MulTranspose's fold —
// masses summed in ascending block order, each output index summing its
// partials in ascending block order (the +0 off a block's columns skipped,
// which is exact) before the rank-one dangling correction — so a product
// assembled from remotely computed blocks is bit-identical to the local
// one. dangle == nil applies no correction. It returns false, leaving y
// untouched, when any partial fails Valid for len(y).
func FoldBlocks(y, dangle []float64, parts []BlockPartial) bool {
	for b := range parts {
		if !parts[b].Valid(len(y)) {
			return false
		}
	}
	fold(y, dangle, parts, totalMass(parts), 0, len(y))
	return true
}

// scatter accumulates blocks [lob, hib) of the transpose product into the
// workspace's compressed partials and dangling masses: one flat pass over
// each block's entries, then one over its empty rows.
func (c *CSR) scatter(ws *Workspace, x []float64, lob, hib int) {
	for b := lob; b < hib; b++ {
		blk := &c.blocks[b]
		p := &ws.parts[b]
		part := p.Vals
		clear(part)
		lidx, val := blk.lidx[:len(blk.row)], blk.val[:len(blk.row)]
		for k, i := range blk.row {
			part[lidx[k]] += float64(val[k] * x[i])
		}
		mass := 0.0
		for _, i := range blk.empty {
			mass += x[i]
		}
		p.Mass = mass
	}
}

// totalMass sums the blocks' dangling masses in ascending block order.
func totalMass(parts []BlockPartial) float64 {
	mass := 0.0
	for b := range parts {
		mass += parts[b].Mass
	}
	return mass
}

// fold writes output indices [lo, hi): the partials summed in ascending
// block order, then the rank-one dangling correction when dangle is set.
// Each block's columns in range are found by binary search.
func fold(y, dangle []float64, parts []BlockPartial, mass float64, lo, hi int) {
	clear(y[lo:hi])
	for b := range parts {
		cols, vals := parts[b].Cols, parts[b].Vals
		start, _ := slices.BinarySearch(cols, int32(lo))
		end, _ := slices.BinarySearch(cols, int32(hi))
		vals = vals[start:end]
		for k, col := range cols[start:end] {
			y[col] += vals[k]
		}
	}
	if dangle != nil {
		for j := lo; j < hi; j++ {
			y[j] += float64(mass * dangle[j])
		}
	}
}
