package reputation

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// RowFeed is a mechanism's rating matrix as the Solver sees it: a source of
// materialized rows plus the set of rows changed since the solver last
// materialized them. LocalTrust is EigenTrust's feed.
type RowFeed interface {
	// AppendRow appends row i's nonnegative entries — columns ascending —
	// to cols and vals and returns them. A row with no positive entry is
	// dangling.
	AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64)
	// DirtyRows returns, ascending, the rows changed since ClearDirty. The
	// slice may be the feed's own, valid until its next mutation.
	DirtyRows() []int
	// HasDirty reports whether any row changed since ClearDirty.
	HasDirty() bool
	// ClearDirty empties the dirty set.
	ClearDirty()
}

var _ RowFeed = (*LocalTrust)(nil)

// Solver is the damped power iteration EigenTrust and PowerTrust share:
//
//	t ← (1−α)·(Aᵀt + mᵀ·dangle) + α·teleport
//
// where A is the feed's row-normalized matrix and m the trust mass on its
// dangling rows, folded in by a rank-one correction instead of dense rows.
// A lives in a CSR whose rows are rematerialized from the feed's dirty set,
// so a recompute touches only the rows that changed; each step is one
// serial product followed by one pass over n that applies the correction,
// the α-blend and (in Solve) the residual, on buffers reused across
// computes (zero steady-state allocation). Mechanisms embed it and keep
// only what differs between them: the feed, the two vectors, and whatever
// they do before a Solve.
type Solver struct {
	feed     RowFeed   //trustlint:derived the owning mechanism's matrix, which the mechanism snapshots itself
	dangle   []float64 //trustlint:derived configuration, rebuilt by the mechanism's constructor
	teleport []float64 //trustlint:derived configuration or refilled by the mechanism before every Solve
	alpha    float64   //trustlint:derived configuration
	epsilon  float64   //trustlint:derived configuration
	maxIter  int       //trustlint:derived configuration
	cold     bool      //trustlint:derived configuration

	scores []float64 // the fixed point of the last Solve (sums to ~1)
	dirty  bool      // a report or reset arrived since the last Solve
	// Diagnostics of the most recent Solve that ran iterations.
	lastConv Convergence
	hasConv  bool

	// Sparse kernel state.
	csr          *linalg.CSR      //trustlint:derived rematerialized from the feed on first Solve after restore
	ws           linalg.Workspace //trustlint:derived scratch, contents never outlive one Solve
	materialized bool             //trustlint:derived cleared by restore to force a full CSR rebuild
	// spmv, when set, computes the inner product remotely (the cluster
	// layer); nil or a false return runs the local kernel.
	spmv SpMVDelegate //trustlint:derived cluster-layer hook, re-attached by the owner after restore; bit-exact by contract
	// Reusable iteration scratch.
	vecA, vecB, vecMid []float64 //trustlint:derived scratch, contents never outlive one Solve
	// Max-normalized score cache backing ScoresView.
	norm    []float64 //trustlint:derived cache, recomputed from scores by refreshNorm on restore
	normMax float64   //trustlint:derived cache, recomputed from scores by refreshNorm on restore
	// version counts the rewrites of norm (ScoresVersion).
	version uint64 //trustlint:derived process-local cursor, compared only against itself; never snapshotted
}

// NewSolver builds a solver over feed's len(dangle)-peer matrix. dangle is
// the distribution dangling rows' mass jumps to; it is also the initial
// scores and the cold start. teleport is the restart distribution weighted
// by alpha; the solver reads it on every iteration, so its owner may refill
// it between Solves. Both slices are aliased, not copied.
func NewSolver(feed RowFeed, dangle, teleport []float64, alpha, epsilon float64, maxIter int, coldStart bool) *Solver {
	n := len(dangle)
	s := &Solver{
		feed:         feed,
		dangle:       dangle,
		teleport:     teleport,
		alpha:        alpha,
		epsilon:      epsilon,
		maxIter:      maxIter,
		cold:         coldStart,
		scores:       append([]float64(nil), dangle...),
		csr:          linalg.New(n),
		materialized: true, // a fresh CSR matches the empty matrix
		vecA:         make([]float64, n),
		vecB:         make([]float64, n),
		norm:         make([]float64, n),
	}
	s.refreshNorm()
	return s
}

// SetSpMVDelegate implements SpMVDelegator: the inner product routes
// through fn (nil restores the local kernel). The delegate is bit-exact by
// contract, so delegated and local solves produce identical scores.
func (s *Solver) SetSpMVDelegate(fn SpMVDelegate) { s.spmv = fn }

// SpMVBlocks implements BlockScatterer.
func (s *Solver) SpMVBlocks() int { return linalg.BlockCount(len(s.scores)) }

// SpMVScatterBlocks implements BlockScatterer: it rematerializes any dirty
// rows, then computes the canonical block partials of Aᵀx. Materialization
// is a pure function of the feed, so a replica that folded the same reports
// returns bit-identical partials.
func (s *Solver) SpMVScatterBlocks(x []float64, lob, hib int) []linalg.BlockPartial {
	s.refreshMatrix()
	return s.csr.ScatterBlocks(x, lob, hib, &s.ws)
}

var (
	_ SpMVDelegator       = (*Solver)(nil)
	_ BlockScatterer      = (*Solver)(nil)
	_ ConvergenceReporter = (*Solver)(nil)
)

// MarkDirty records that the feed changed, so the next Solve iterates.
func (s *Solver) MarkDirty() { s.dirty = true }

// Dirty reports whether the next Solve will iterate.
func (s *Solver) Dirty() bool { return s.dirty }

// refreshMatrix rematerializes the CSR rows the feed reports dirty — every
// row after a snapshot restore — in one batched call. Materialization is a
// pure function of the row's current feed, so the incremental matrix is
// bit-for-bit identical to a from-scratch rebuild.
func (s *Solver) refreshMatrix() {
	switch {
	case !s.materialized:
		s.csr = linalg.Build(len(s.scores), s.feed)
		s.materialized = true
	case s.feed.HasDirty():
		s.csr.Update(s.feed, s.feed.DirtyRows())
	default:
		return
	}
	s.feed.ClearDirty()
}

// mul sets dst = Aᵀsrc, remotely when a delegate accepts, and returns the
// dangling mass of src.
func (s *Solver) mul(dst, src []float64) float64 {
	if s.spmv != nil {
		if mass, ok := s.spmv(dst, src); ok {
			return mass
		}
	}
	return s.csr.MulTranspose(dst, src, &s.ws)
}

// Step applies the iteration operator once: dst = (1−α)·(Aᵀsrc + mᵀ·dangle)
// + α·teleport, the correction and the blend in one pass over the product.
// It reads the materialized matrix as the last Solve left it. Each product
// is rounded by an explicit float64 conversion, so no architecture fuses it
// into a multiply-add and every one computes the same bits (as in the
// linalg kernel).
func (s *Solver) Step(dst, src []float64) {
	mass := s.mul(dst, src)
	alpha, dangle, teleport := s.alpha, s.dangle, s.teleport
	for j, v := range dst {
		dst[j] = float64((1-alpha)*(v+float64(mass*dangle[j]))) + float64(alpha*teleport[j])
	}
}

// Solve iterates until the L1 change of a round drops below epsilon or
// maxIter rounds ran, and returns the round count (0 when nothing changed
// since the last Solve). A look-ahead round applies the operator twice —
// each node aggregates its neighbors' own aggregated vectors, one extra
// message exchange that halves the round count. By default the iteration
// warm-starts from the previous fixed point, so an incremental recompute
// pays only as many rounds as the matrix actually moved; a cold start
// begins at dangle every time. epsilon is never loosened on warm starts.
// Each round's last operator application does Step's pass and adds the
// residual, in ascending order, in the same pass, so a round makes no more
// passes over n than its products need.
func (s *Solver) Solve(lookAhead bool) int {
	if !s.dirty {
		return 0
	}
	s.refreshMatrix()
	if lookAhead && s.vecMid == nil {
		s.vecMid = make([]float64, len(s.scores)) // only look-ahead walks need it
	}
	t, next, mid := s.vecA, s.vecB, s.vecMid
	if s.cold {
		copy(t, s.dangle)
	} else {
		copy(t, s.scores)
	}
	alpha, dangle, teleport := s.alpha, s.dangle, s.teleport
	iters := 0
	residual := 0.0
	for ; iters < s.maxIter; iters++ {
		src := t
		if lookAhead {
			s.Step(mid, t)
			src = mid
		}
		mass := s.mul(next, src)
		diff := 0.0
		for j, v := range next {
			v = float64((1-alpha)*(v+float64(mass*dangle[j]))) + float64(alpha*teleport[j])
			next[j] = v
			diff += math.Abs(v - t[j])
		}
		t, next = next, t
		residual = diff
		if diff < s.epsilon {
			iters++
			break
		}
	}
	copy(s.scores, t)
	s.vecA, s.vecB = t, next // keep the buffer pair owned by the solver
	s.refreshNorm()
	s.dirty = false
	s.lastConv = Convergence{Iterations: iters, Residual: residual, Warm: !s.cold}
	s.hasConv = true
	return iters
}

// refreshNorm rebuilds the max-normalized score cache behind ScoresView
// and advances its version.
func (s *Solver) refreshNorm() {
	s.version++
	maxV := 0.0
	for _, v := range s.scores {
		if v > maxV {
			maxV = v
		}
	}
	s.normMax = maxV
	if maxV == 0 {
		clear(s.norm)
		return
	}
	for i, v := range s.scores {
		s.norm[i] = v / maxV
	}
}

// LastConvergence implements ConvergenceReporter.
func (s *Solver) LastConvergence() (Convergence, bool) { return s.lastConv, s.hasConv }

// Raw returns a copy of the fixed point (sums to ~1).
func (s *Solver) Raw() []float64 { return append([]float64(nil), s.scores...) }

// RawView returns the fixed point without the copy. Read-only; valid until
// the next Solve or restore.
func (s *Solver) RawView() []float64 { return s.scores }

// Score implements Mechanism: the peer's share normalized by the maximum,
// so the best peer scores 1.
func (s *Solver) Score(peer int) float64 {
	if peer < 0 || peer >= len(s.scores) || s.normMax == 0 {
		return 0
	}
	return s.scores[peer] / s.normMax
}

// ScoresView implements Mechanism: the max-normalized scores, uncopied.
// Read-only; valid until the next Solve or restore.
func (s *Solver) ScoresView() []float64 { return s.norm }

// ScoresVersion implements Mechanism: it advances on every Solve that
// iterates and on every SetState, the two writers of ScoresView.
func (s *Solver) ScoresVersion() uint64 { return s.version }

// SolverState is the serializable state of a Solver. The CSR is derived: it
// is rematerialized from the feed on the first Solve after a restore, and
// materialization is pure, so restore-then-run is bit-for-bit identical to
// an uninterrupted run. The diagnostics travel so a restored run reports
// what an uninterrupted one would.
type SolverState struct {
	Scores  []float64
	Dirty   bool
	Conv    Convergence
	HasConv bool
}

// State captures the solver.
func (s *Solver) State() SolverState {
	return SolverState{
		Scores:  append([]float64(nil), s.scores...),
		Dirty:   s.dirty,
		Conv:    s.lastConv,
		HasConv: s.hasConv,
	}
}

// SetState restores a captured solver of the same dimension and forces a
// full CSR rebuild on the next Solve. Every score must be a number in
// [0, 1], as every Solve's is (a convex blend of distributions); the check
// runs before the first write, so a rejected state leaves the solver as it
// was.
func (s *Solver) SetState(st SolverState) error {
	if len(st.Scores) != len(s.scores) {
		return fmt.Errorf("state for %d peers, want %d", len(st.Scores), len(s.scores))
	}
	for i, v := range st.Scores {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("state score %v of peer %d out of [0,1]", v, i)
		}
	}
	copy(s.scores, st.Scores)
	s.refreshNorm()
	s.dirty = st.Dirty
	s.materialized = false
	s.lastConv = st.Conv
	s.hasConv = st.HasConv
	return nil
}
