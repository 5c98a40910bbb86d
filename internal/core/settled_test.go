package core

import (
	"math"
	"testing"
)

// settleModel drives a model to an all-settled state under constant facets.
// Inertia halves the distance to the fixed point each step, so the bitwise
// fixed point is reached well within the iteration bound.
func settleModel(t testing.TB, n int) (*TrustModel, func(int) Facets) {
	t.Helper()
	m, err := NewTrustModel(n, DefaultWeights(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	facetOf := func(int) Facets { return Facets{Satisfaction: 0.7, Reputation: 0.6, Privacy: 0.9} }
	for i := 0; i < 200 && m.SettledCount() < n; i++ {
		if err := m.UpdateScattered(nil, true, facetOf, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.SettledCount() != n {
		t.Fatalf("model did not settle: %d/%d", m.SettledCount(), n)
	}
	return m, facetOf
}

// TestSettledUpdateIsNoOp pins the skip's correctness argument directly: a
// settled user's fold is a provable no-op, so re-updating any candidate
// subset of a settled model changes nothing — trust, tree root, or flags.
func TestSettledUpdateIsNoOp(t *testing.T) {
	const n = 513
	m, facetOf := settleModel(t, n)
	before := append([]float64(nil), m.trust...)
	root := m.GlobalTrust()
	cands := []int{0, 7, 250, 512}
	if err := m.UpdateScattered(cands, false, facetOf, 1); err != nil {
		t.Fatal(err)
	}
	for u, want := range before {
		if got := m.Trust(u); got != want {
			t.Fatalf("user %d trust moved %v -> %v on a settled update", u, want, got)
		}
	}
	if got := m.GlobalTrust(); got != root {
		t.Fatalf("global trust moved %v -> %v on a settled update", root, got)
	}
	if m.SettledCount() != n {
		t.Fatalf("settled count dropped to %d", m.SettledCount())
	}
}

// TestSettledTailZeroAllocs is the steady-state allocation guarantee for the
// trust-update phase: once every scratch buffer has been sized, a sparse
// update over settled candidates allocates nothing. (The remaining epoch
// tail allocation is the reputation measurement's O(served log served)
// ranking term, priced separately in DESIGN.md.)
func TestSettledTailZeroAllocs(t *testing.T) {
	const n = 1024
	m, facetOf := settleModel(t, n)
	cands := []int{3, 17, 900}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.UpdateScattered(cands, false, facetOf, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("settled sparse update allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkSettledTrustUpdate prices the skipped epoch tail: a sparse update
// over a handful of candidates in an otherwise settled 100k-user model.
func BenchmarkSettledTrustUpdate(b *testing.B) {
	const n = 100000
	m, facetOf := settleModel(b, n)
	cands := []int{3, 17, 900, 5000, 99999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.UpdateScattered(cands, false, facetOf, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDenseEpochTailZeroAllocs extends the guarantee to a dense epoch tail:
// with the reputation facet moved, every user is facet-dirty, so the tail
// updates and couples everyone, stages every tree leaf, flushes the trees
// and reads the reputation facet off a fully ordered served set. Once its
// scratch has grown, that allocates nothing.
func TestDenseEpochTailZeroAllocs(t *testing.T) {
	d := newDyn(t, true, 0.3)
	if _, err := d.Run(3); err != nil {
		t.Fatal(err)
	}
	if served := len(d.eng.ServedProviders()); served < 10 {
		t.Fatalf("only %d providers served; the reading would not be exercised", served)
	}
	before, iters := d.eng.CumulativeStats(), d.eng.ComputeIterations()
	tail := func() {
		d.prevRepFacet = math.NaN() // the reputation facet moved: every user is dirty
		st, err := d.closeEpoch(before, iters)
		if err != nil {
			t.Fatal(err)
		}
		if st.DirtyFacets != d.cfg.Workload.NumPeers {
			t.Fatalf("tail was not dense: %d dirty facets", st.DirtyFacets)
		}
	}
	tail()
	if allocs := testing.AllocsPerRun(50, tail); allocs != 0 {
		t.Fatalf("dense epoch tail allocates %v objects/op, want 0", allocs)
	}
}
