package eigentrust

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/reputation"
	"repro/internal/sim"
)

// normalizedRow returns row i of the normalized matrix C as a dense vector,
// read through AppendRow: s_ij over the row sum, or the pretrust
// distribution for a row with no positive local trust.
func normalizedRow(lt *reputation.LocalTrust, i int, pretrust []float64) []float64 {
	row := make([]float64, len(pretrust))
	cols, vals := lt.AppendRow(i, nil, nil)
	for k, j := range cols {
		row[j] = vals[k]
	}
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if sum == 0 {
		copy(row, pretrust)
		return row
	}
	for j := range row {
		row[j] /= sum
	}
	return row
}

// denseCompute is the frozen pre-kernel reference: the Θ(n²) power
// iteration over fully materialized dense rows, verbatim from the dense
// implementation the sparse kernel replaced. The golden-equivalence suite
// pins the refactor to it.
func denseCompute(lt *reputation.LocalTrust, pretrust []float64, cfg Config) []float64 {
	n := cfg.N
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = normalizedRow(lt, i, pretrust)
	}
	t := append([]float64(nil), pretrust...)
	next := make([]float64, n)
	for iters := 0; iters < cfg.MaxIter; iters++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			ti := t[i]
			if ti == 0 {
				continue
			}
			for j, c := range rows[i] {
				if c != 0 {
					next[j] += c * ti
				}
			}
		}
		diff := 0.0
		for j := 0; j < n; j++ {
			next[j] = (1-cfg.Alpha)*next[j] + cfg.Alpha*pretrust[j]
			diff += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		if diff < cfg.Epsilon {
			break
		}
	}
	return t
}

// feedRandom submits a random sparse report set: most peers rate a few
// others, some stay silent (dangling rows for the kernel's rank-one
// correction).
func feedRandom(t *testing.T, m *Mechanism, rng *sim.RNG, n, reports int) {
	t.Helper()
	for k := 0; k < reports; k++ {
		i := rng.Intn(n)
		if i%7 == 0 {
			continue // keep some rows silent
		}
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if err := m.Submit(reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSparseMatchesDenseReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		cfg := Config{N: 60, Pretrusted: []int{0, 3}}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed)
		feedRandom(t, m, rng, cfg.N, 500)
		m.Compute()
		pretrust, err := reputation.PretrustOver(cfg.N, cfg.Pretrusted)
		if err != nil {
			t.Fatal(err)
		}
		want := denseCompute(m.lt, pretrust, m.cfg)
		got := m.Raw()
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-9 {
				t.Fatalf("seed %d: score[%d] = %v, dense reference %v", seed, j, got[j], want[j])
			}
		}
	}
}

// TestComputeMatchesBlockFold pins the one-pass product and the solver's
// fused correction, blend and residual pass, bit for bit, to the canonical
// block fold: a twin whose every product is ScatterBlocks over all blocks
// plus FoldBlocks, the form the cluster computes. Both see the same reports
// in three waves, a Compute after each, so the later waves run on
// incrementally updated matrices; scores, round counts and residuals must
// match exactly.
func TestComputeMatchesBlockFold(t *testing.T) {
	const n = 600 // three canonical blocks
	build := func(fold bool) *Mechanism {
		m, err := New(Config{N: n, Pretrusted: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		if fold {
			m.SetSpMVDelegate(func(y, x []float64) (float64, bool) {
				return linalg.FoldBlocks(y, m.SpMVScatterBlocks(x, 0, m.SpMVBlocks()))
			})
		}
		return m
	}
	local, folded := build(false), build(true)
	for wave := uint64(0); wave < 3; wave++ {
		feedRandom(t, local, sim.NewRNG(42+wave), n, 1500)
		feedRandom(t, folded, sim.NewRNG(42+wave), n, 1500)
		if li, fi := local.Compute(), folded.Compute(); li != fi {
			t.Fatalf("wave %d: %d rounds, block fold %d", wave, li, fi)
		}
		lc, _ := local.LastConvergence()
		fc, _ := folded.LastConvergence()
		if math.Float64bits(lc.Residual) != math.Float64bits(fc.Residual) {
			t.Fatalf("wave %d: residual %v, block fold %v", wave, lc.Residual, fc.Residual)
		}
		want := folded.Raw()
		for j, v := range local.Raw() {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("wave %d: score[%d] = %v, block fold %v", wave, j, v, want[j])
			}
		}
	}
}

// TestIncrementalMatchesFresh pins the dirty-set rematerialization: a
// mechanism that computed mid-stream (so most CSR rows are reused, only
// dirty ones rebuilt) must match, bit for bit, a mechanism that saw all
// reports at once. ColdStart pins the iteration's starting vector — warm
// starts (the default) legitimately stop at different points within Epsilon
// depending on the compute history, which is exactly the variation this
// test must exclude to isolate the materialization path.
func TestIncrementalMatchesFresh(t *testing.T) {
	const n = 80
	inc, err := New(Config{N: n, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{N: n, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	var reports []reputation.Report
	for k := 0; k < 800; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		reports = append(reports, reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()})
	}
	for k, r := range reports {
		if err := inc.Submit(r); err != nil {
			t.Fatal(err)
		}
		if k == len(reports)/3 || k == 2*len(reports)/3 {
			inc.Compute() // intermediate computes exercise partial rebuilds
		}
		if err := fresh.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	inc.Compute()
	fresh.Compute()
	for j := range fresh.Raw() {
		if inc.Raw()[j] != fresh.Raw()[j] {
			t.Fatalf("score[%d]: incremental %v != fresh %v", j, inc.Raw()[j], fresh.Raw()[j])
		}
	}
}

// TestSnapshotRoundTripMidDirty snapshots with dirty rows pending (reports
// submitted after the last Compute) and checks restore-then-run equals the
// uninterrupted run bit for bit, state blob included.
func TestSnapshotRoundTripMidDirty(t *testing.T) {
	const n = 50
	cfg := Config{N: n, Pretrusted: []int{2}}
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	feedRandom(t, orig, rng, n, 300)
	orig.Compute()
	feedRandom(t, orig, rng, n, 100) // pending dirty rows at snapshot time

	blob, err := orig.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}

	// Continue both identically, then compare everything observable.
	cont := sim.NewRNG(77)
	for k := 0; k < 150; k++ {
		i, j := cont.Intn(n), cont.Intn(n)
		if i == j {
			continue
		}
		r := reputation.Report{Rater: i, Ratee: j, Value: cont.Float64()}
		if err := orig.Submit(r); err != nil {
			t.Fatal(err)
		}
		if err := restored.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if orig.Compute() != restored.Compute() {
		t.Fatal("iteration counts diverged after restore")
	}
	for j := range orig.Raw() {
		if orig.Raw()[j] != restored.Raw()[j] {
			t.Fatalf("score[%d]: %v != %v after restore-then-run", j, orig.Raw()[j], restored.Raw()[j])
		}
	}
	b1, err := orig.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := restored.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("state blobs diverged after restore-then-run")
	}
}

// TestComputeSteadyStateAllocFree pins the reusable-buffer contract: once
// the workspace is warm, a recompute of an unchanged matrix performs zero
// allocations.
func TestComputeSteadyStateAllocFree(t *testing.T) {
	m, err := New(Config{N: 400})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom(t, m, sim.NewRNG(3), 400, 4000)
	m.Compute() // warm buffers and materialize the CSR
	allocs := testing.AllocsPerRun(20, func() {
		m.MarkDirty() // force the iteration; no rows are dirty
		m.Compute()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Compute allocates %v objects/op, want 0", allocs)
	}
}

func TestNewRejectsDuplicatePretrusted(t *testing.T) {
	if _, err := New(Config{N: 5, Pretrusted: []int{1, 1}}); err == nil {
		t.Fatal("duplicate pre-trusted peer accepted")
	}
}
