package linalg

// The product works over fixed row blocks. The block decomposition is a
// function of the matrix dimension ONLY, and the product adds each block's
// terms in one canonical order: blocks ascending, and within a block its
// entries rows ascending, columns ascending. Every output index therefore
// sums the same block partials in the same block order wherever the blocks
// are computed — here, or in cluster workers through ScatterBlocks and
// FoldBlocks — so the bits never depend on where a block ran.
//
// MulTranspose makes one serial pass over the blocks. An entry whose column
// its block touches only once adds its term straight into the output, and
// a column the block touches more than once accumulates the block's partial
// in the output cell itself, with the running sum parked aside and added
// back right after the block. Both are exact against the partial-then-fold
// form. A one-term partial is +0 + v, which equals v unless v is −0; the
// output starts at +0 and can never become −0 under round-to-nearest
// (x + y is −0 only when both are −0), so adding −0 or +0 to it changes
// nothing. A parked column restarts at +0, so it builds the block's partial
// term by term exactly as a private slot would. Skipping a column a block
// does not touch is exact for the same reason: the partial there is +0. And
// a row whose x weight is 0 adds ±0, which changes nothing either, so the
// pass is one flat loop over a block's entries with no per-row branch.
//
// Every product is written float64(a*b): the explicit conversion rounds it,
// so no architecture may fuse it with the add that follows, and the bits
// are the same on all of them.
const (
	spmvBlockRows = 256
	spmvMaxBlocks = 32
)

// BlockCount returns the canonical block count for an n-row matrix — the
// decomposition the cluster layer fans out to worker processes. It is a
// function of n ONLY (never of worker or process count), which is what makes
// a distributed product bit-identical to the local one: each block's partial
// is produced by the same serial accumulation wherever it runs, and
// FoldBlocks folds them in the same canonical order MulTranspose adds them.
func BlockCount(n int) int {
	return min(max((n+spmvBlockRows-1)/spmvBlockRows, 1), spmvMaxBlocks)
}

// Workspace holds the product's scratch: the parked output values of a
// block's shared columns, and ScatterBlocks' dense accumulator (all zero
// between calls). Reusing one workspace across iterations keeps the power
// iteration allocation-free in steady state; it may move between matrices.
// A workspace must not be shared by concurrent calls.
type Workspace struct {
	park  []float64
	dense []float64
}

// MulTranspose sets y = Aᵀx and returns the dangling mass: the total x
// weight sitting on empty rows, mass = Σ_{i : row i empty} x[i], summed per
// block in row order and over blocks in ascending order. The caller applies
// the rank-one correction mass·dangle that replaces a dense uniform (or
// pretrust) fill of silent rows, in its own pass over y. x and y must have
// length N and must not overlap. See the package comment for why the result
// is bit-for-bit the canonical block fold.
func (c *CSR) MulTranspose(y, x []float64, ws *Workspace) float64 {
	clear(y)
	mass := 0.0
	for b := range c.blocks {
		blk := &c.blocks[b]
		if len(ws.park) < len(blk.shared) {
			ws.park = make([]float64, len(blk.shared))
		}
		park := ws.park[:len(blk.shared)]
		for s, j := range blk.shared {
			park[s], y[j] = y[j], 0
		}
		col, val := blk.col[:len(blk.row)], blk.val[:len(blk.row)]
		for k, i := range blk.row {
			y[col[k]] += float64(val[k] * x[i])
		}
		for s, j := range blk.shared {
			y[j] = park[s] + y[j]
		}
		mass += blk.mass(x)
	}
	return mass
}

// mass sums x over the block's empty rows, in row order.
func (blk *block) mass(x []float64) float64 {
	m := 0.0
	for _, i := range blk.empty {
		m += x[i]
	}
	return m
}

// BlockPartial is one canonical block's share of y = Aᵀx in compressed
// form: Vals[k] is the block's partial sum at column Cols[k] (strictly
// ascending), every other column's partial is +0, and Mass is the x weight
// on the block's empty rows.
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

// ScatterBlocks computes the compressed partials of the canonical blocks
// [lob, hib) for y = Aᵀx, one per block in ascending order: the cluster's
// wire form of the product. Each block's entries accumulate in the same
// order MulTranspose adds them, so a partial computed here — in another
// process, say — folds by FoldBlocks to bit-for-bit MulTranspose's result.
// The results cost O(touched columns), never alias ws or the matrix, and
// share one column and one value backing array.
func (c *CSR) ScatterBlocks(x []float64, lob, hib int, ws *Workspace) []BlockPartial {
	hib = min(hib, len(c.blocks))
	if c.n == 0 || lob >= hib {
		return nil
	}
	touched := 0
	for b := lob; b < hib; b++ {
		touched += len(c.blocks[b].cols)
	}
	cols := make([]int32, 0, touched)
	vals := make([]float64, touched)
	parts := make([]BlockPartial, hib-lob)
	if len(ws.dense) < c.n {
		ws.dense = make([]float64, c.n)
	}
	for b := lob; b < hib; b++ {
		k := len(cols)
		cols = append(cols, c.blocks[b].cols...)
		end := len(cols)
		c.scatter(b, x, ws.dense, vals[k:end])
		parts[b-lob] = BlockPartial{Cols: cols[k:end:end], Vals: vals[k:end:end], Mass: c.blocks[b].mass(x)}
	}
	return parts
}

// scatter accumulates block b's entries, in order, into the all-zero dense
// scratch d, then moves d at the block's touched columns (ascending) into
// vals, one value per column, leaving d all zero again.
func (c *CSR) scatter(b int, x, d, vals []float64) {
	blk := &c.blocks[b]
	col, val := blk.col[:len(blk.row)], blk.val[:len(blk.row)]
	for k, i := range blk.row {
		d[col[k]] += float64(val[k] * x[i])
	}
	vals = vals[:len(blk.cols)]
	for k, j := range blk.cols {
		vals[k], d[j] = d[j], 0
	}
}

// FoldBlocks sets y = Aᵀx from a full set of block partials (parts[b] for
// block b, ascending) and returns the dangling mass, both as MulTranspose
// computes them: each output index sums its partials in ascending block
// order (the +0 off a block's columns skipped, which is exact), and the
// masses are summed in ascending block order. It returns false, leaving y
// untouched, when any partial fails Valid for len(y).
func FoldBlocks(y []float64, parts []BlockPartial) (float64, bool) {
	for b := range parts {
		if !parts[b].Valid(len(y)) {
			return 0, false
		}
	}
	clear(y)
	mass := 0.0
	for b := range parts {
		vals := parts[b].Vals
		for k, col := range parts[b].Cols {
			y[col] += vals[k]
		}
		mass += parts[b].Mass
	}
	return mass, true
}
