package reputation

// The cluster seam: mechanisms whose Compute is dominated by a sparse
// matrix-vector product can hand that product to an external executor — the
// master/worker cluster layer — without giving up the determinism contract.
// The delegate replaces only the SpMV; iteration control, convergence tests
// and score normalization stay inside the mechanism, so a delegated Compute
// is the same solver with its inner product computed elsewhere.

// SpMVDelegate computes y = Aᵀx + mass·dangle for the mechanism's current
// matrix, where mass is the total x weight on empty rows and dangle the
// distribution that weight jumps to (exactly linalg.CSR.MulTranspose's
// contract). It returns false to decline — no workers available, say — in
// which case the mechanism runs the product locally. A delegate MUST be
// bit-exact: the linalg block scatter/fold helpers guarantee this when the
// remote side computes blocks with ScatterBlocks and the caller folds with
// FoldBlocks in canonical order.
type SpMVDelegate func(y, x, dangle []float64) bool

// SpMVDelegator is implemented by mechanisms that can route their Compute's
// inner SpMV through a delegate (nil restores the local kernel).
type SpMVDelegator interface {
	SetSpMVDelegate(fn SpMVDelegate)
}

// BlockScatterer is implemented by mechanisms that expose their current
// matrix through the canonical block decomposition — the worker-side half of
// a delegated SpMV (and the master's local fallback for blocks whose worker
// died). SpMVScatterBlocks must refresh any stale rows first, so a replica
// that folded the same reports holds the same matrix.
type BlockScatterer interface {
	// SpMVBlocks returns the canonical block count (linalg.BlockCount of the
	// mechanism's dimension).
	SpMVBlocks() int
	// SpMVScatterBlocks returns the partial vectors and dangling masses of
	// blocks [lob, hib) for y = Aᵀx, per linalg.CSR.ScatterBlocks. It runs on
	// the mechanism's SpMV workspace, so calls must not overlap each other
	// or a Compute.
	SpMVScatterBlocks(x []float64, lob, hib int) (partials [][]float64, masses []float64)
}
