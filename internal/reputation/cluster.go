package reputation

import "repro/internal/linalg"

// The cluster seam: mechanisms whose Compute is dominated by a sparse
// matrix-vector product can hand that product to an external executor — the
// master/worker cluster layer — without giving up the determinism contract.
// The delegate replaces only the SpMV; iteration control, convergence tests
// and score normalization stay inside the Solver, so a delegated Compute is
// the same solver with its inner product computed elsewhere.

// SpMVDelegate sets y = Aᵀx for the mechanism's current matrix and returns
// the total x weight on its empty rows (exactly linalg.CSR.MulTranspose's
// contract); the solver applies the dangling correction itself. It returns
// false to decline — no workers available, say — in which case the
// mechanism runs the product locally. A delegate MUST be bit-exact: the
// linalg block scatter/fold helpers guarantee this when the remote side
// computes blocks with ScatterBlocks and the caller folds with FoldBlocks
// in canonical order.
type SpMVDelegate func(y, x []float64) (mass float64, ok bool)

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
	// SpMVScatterBlocks returns the compressed partials of blocks
	// [lob, hib) for y = Aᵀx, per linalg.CSR.ScatterBlocks. It runs on the
	// mechanism's SpMV workspace, so calls must not overlap each other or a
	// Compute.
	SpMVScatterBlocks(x []float64, lob, hib int) []linalg.BlockPartial
}
