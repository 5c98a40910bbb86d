package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestStreamBasics(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almostEqual(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Fatal("empty stream has nonzero stats")
	}
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	rng := sim.NewRNG(1)
	f := func(seed uint16) bool {
		r := sim.NewRNG(uint64(seed) + 1)
		n := 3 + r.Intn(50)
		var whole, a, b Stream
		for i := 0; i < n; i++ {
			x := r.NormFloat64()*3 + 1
			whole.Add(x)
			if i < n/2 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return almostEqual(a.Mean(), whole.Mean(), 1e-9) &&
			almostEqual(a.Var(), whole.Var(), 1e-9) &&
			a.N() == whole.N() &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMergeEmptySides(t *testing.T) {
	var a, b Stream
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatal("merge with empty changed stream")
	}
	var c Stream
	c.Merge(&a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 3 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be modified.
	if xs[0] != 5 {
		t.Fatal("Quantile sorted its input in place")
	}
	// Edge cases are explicit NaN, not silent clamps: no data and
	// not-a-quantile must not look like measured values.
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile != NaN")
	}
	for _, q := range []float64{-0.01, 1.01, math.NaN()} {
		if !math.IsNaN(Quantile(xs, q)) {
			t.Fatalf("Quantile(q=%v) != NaN", q)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); !almostEqual(got, 3, 1e-12) {
		t.Fatalf("interpolated quantile = %v, want 3", got)
	}
}

// sortQuantile is the sort-based quantile QuantileInPlace must match: copy,
// sort.Float64s, then interpolate between the two order statistics.
func sortQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// TestQuantileMatchesSort checks the selection-based quantile against the
// sort-based one over random inputs with heavy duplication, ±Inf, NaN and
// signed zeros, and over sorted, reversed, constant and organ-pipe inputs,
// at q = 0, q = 1, exact order-statistic positions and interior points.
// Results must be bitwise equal; the one exception is a zero result, where
// +0 and −0 may differ because the sort leaves them in any order. The
// quantile must neither modify nor copy its input.
func TestQuantileMatchesSort(t *testing.T) {
	rng := sim.NewRNG(3)
	pool := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), 1, -1, 0.5, 1e-300, 2.5}
	draw := func(n, kind int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch kind {
			case 0: // from a small pool: duplicates and specials
				xs[i] = pool[rng.Intn(len(pool))]
			case 1: // mostly distinct, some specials
				xs[i] = rng.Float64()*2 - 1
				if rng.Bool(0.05) {
					xs[i] = pool[rng.Intn(len(pool))]
				}
			case 2:
				xs[i] = float64(i)
			case 3:
				xs[i] = float64(n - i)
			case 4:
				xs[i] = 7
			case 5: // organ pipe
				xs[i] = float64(min(i, n-i))
			}
		}
		return xs
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
	}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(64)
		if trial%10 == 0 {
			n = 1 + rng.Intn(5000)
		}
		xs := draw(n, rng.Intn(6))
		qs := []float64{0, 1, rng.Float64(), float64(rng.Intn(n)) / float64(max(n-1, 1)), 0.5, 0.9}
		for _, q := range qs {
			want := sortQuantile(xs, q)
			orig := append([]float64(nil), xs...)
			if got := Quantile(xs, q); !same(got, want) {
				t.Fatalf("trial %d: Quantile(n=%d, q=%v) = %v, sort gives %v", trial, n, q, got, want)
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("trial %d: Quantile modified its input", trial)
				}
			}
			if trial%100 == 0 {
				if allocs := testing.AllocsPerRun(5, func() { Quantile(xs, q) }); allocs != 0 {
					t.Fatalf("trial %d: Quantile(n=%d) allocates %v objects, want 0", trial, n, allocs)
				}
			}
		}
	}
}

func TestKendallTauPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if got := KendallTau(a, b); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("tau = %v, want 1", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if got := KendallTau(a, rev); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("tau = %v, want -1", got)
	}
}

func TestKendallTauDegenerate(t *testing.T) {
	if KendallTau([]float64{1}, []float64{2}) != 0 {
		t.Fatal("singleton tau != 0")
	}
	if KendallTau([]float64{1, 2}, []float64{1, 2, 3}) != 0 {
		t.Fatal("mismatched-length tau != 0")
	}
	if KendallTau([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Fatal("all-tied tau != 0")
	}
}

func TestKendallTauTies(t *testing.T) {
	// Hand-computed tau-b example with one tie in each vector.
	a := []float64{1, 2, 2, 3}
	b := []float64{1, 2, 3, 3}
	// Pairs: (1,2):C (1,2):C (1,3):C (2,2)tieA:(2,3) - a tied, b differs -> tieA
	// (2,3):C (2,3): a differs (2<3), b tied (3,3) -> tieB. n0=6.
	// C=4, D=0, tiesA=1, tiesB=1 => tau = 4/sqrt(5*5) = 0.8
	if got := KendallTau(a, b); !almostEqual(got, 0.8, 1e-12) {
		t.Fatalf("tau-b = %v, want 0.8", got)
	}
}

func TestKendallTauNoisyMonotone(t *testing.T) {
	r := sim.NewRNG(99)
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i)
		b[i] = float64(i) + r.NormFloat64()*2
	}
	if got := KendallTau(a, b); got < 0.8 {
		t.Fatalf("noisy monotone tau = %v, want > 0.8", got)
	}
}

func TestMeanHelper(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) != NaN")
	}
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
}

func TestDescribe(t *testing.T) {
	a := Describe([]float64{1, 2, 3, 4})
	if a.N != 4 || a.Mean != 2.5 || a.Min != 1 || a.Max != 4 {
		t.Fatalf("Describe = %+v", a)
	}
	if !almostEqual(a.Median, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", a.Median)
	}
	if !almostEqual(a.Std, math.Sqrt(5.0/3), 1e-12) {
		t.Fatalf("std = %v", a.Std)
	}
	one := Describe([]float64{7})
	if one.N != 1 || one.Mean != 7 || one.Std != 0 || one.Min != 7 || one.Max != 7 || one.Median != 7 {
		t.Fatalf("single-sample Describe = %+v", one)
	}
	empty := Describe(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) || !math.IsNaN(empty.Median) {
		t.Fatalf("empty Describe = %+v", empty)
	}
}
