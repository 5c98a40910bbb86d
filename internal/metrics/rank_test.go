package metrics

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// bruteTau is the quadratic tau-b reference the fast implementation must
// reproduce exactly (up to float noise).
func bruteTau(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	var concordant, discordant, tiesA, tiesB float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				tiesA++
				tiesB++
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case da*db > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := float64(n*(n-1)) / 2
	denom := math.Sqrt((n0 - tiesA) * (n0 - tiesB))
	if denom == 0 {
		return 0
	}
	return (concordant - discordant) / denom
}

func bruteAUC(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return math.NaN()
	}
	wins := 0.0
	for _, g := range pos {
		for _, b := range neg {
			switch {
			case g > b:
				wins++
			case g == b:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(pos)*len(neg))
}

// quantized draws values from a small discrete set so ties are frequent.
func quantized(rng *sim.RNG, n, levels int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Intn(levels)) / float64(levels)
	}
	return out
}

func TestKendallTauMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		levels := 1 + rng.Intn(8) // levels=1 gives an all-tied vector
		a := quantized(rng, n, levels)
		b := quantized(rng, n, 1+rng.Intn(8))
		got, want := KendallTau(a, b), bruteTau(a, b)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d): fast tau %v != brute %v\na=%v\nb=%v",
				trial, n, got, want, a, b)
		}
	}
}

func TestKendallTauKnownValues(t *testing.T) {
	if got := KendallTau([]float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect agreement tau = %v", got)
	}
	if got := KendallTau([]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect disagreement tau = %v", got)
	}
	if got := KendallTau([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("all-tied vector tau = %v, want 0", got)
	}
	if got := KendallTau([]float64{1}, []float64{1}); got != 0 {
		t.Fatalf("short input tau = %v, want 0", got)
	}
	if got := KendallTau([]float64{1, 2}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("mismatched lengths tau = %v, want 0", got)
	}
}

func TestAUCMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		pos := quantized(rng, 1+rng.Intn(30), 1+rng.Intn(6))
		neg := quantized(rng, 1+rng.Intn(30), 1+rng.Intn(6))
		got, want := AUC(pos, neg), bruteAUC(pos, neg)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: fast AUC %v != brute %v", trial, got, want)
		}
	}
	if !math.IsNaN(AUC(nil, []float64{1})) || !math.IsNaN(AUC([]float64{1}, nil)) {
		t.Fatal("empty class must yield NaN")
	}
	if got := AUC([]float64{1, 1}, []float64{0, 0}); got != 1 {
		t.Fatalf("separated classes AUC = %v", got)
	}
	if got := AUC([]float64{0.5}, []float64{0.5}); got != 0.5 {
		t.Fatalf("fully tied AUC = %v", got)
	}
}

// sortSliceKendallTau is KendallTau as it was before the pair sort: an
// index permutation sorted with sort.Slice, then a sort.Float64s of the
// already merge-sorted b column. It pins the current implementation
// bit for bit.
func sortSliceKendallTau(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		i, j := idx[x], idx[y]
		if a[i] != a[j] {
			return a[i] < a[j]
		}
		return b[i] < b[j]
	})
	pairs := func(t float64) float64 { return t * (t - 1) / 2 }
	var n1, n3 float64
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && a[idx[hi]] == a[idx[lo]] {
			hi++
		}
		n1 += pairs(float64(hi - lo))
		for jlo := lo; jlo < hi; {
			jhi := jlo + 1
			for jhi < n && a[idx[jhi]] == a[idx[jlo]] && b[idx[jhi]] == b[idx[jlo]] {
				jhi++
			}
			n3 += pairs(float64(jhi - jlo))
			jlo = jhi
		}
		lo = hi
	}
	bs := make([]float64, n)
	for i, id := range idx {
		bs[i] = b[id]
	}
	discordant := float64(countInversions(bs, make([]float64, n)))
	sort.Float64s(bs)
	var n2 float64
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && bs[hi] == bs[lo] {
			hi++
		}
		n2 += pairs(float64(hi - lo))
		lo = hi
	}
	n0 := float64(n) * float64(n-1) / 2
	denom := math.Sqrt((n0 - n1) * (n0 - n2))
	if denom == 0 {
		return 0
	}
	return (n0 - n1 - n2 + n3 - 2*discordant) / denom
}

// sortSliceAUC is AUC as it was before the slices.SortFunc sort.
func sortSliceAUC(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return math.NaN()
	}
	type obs struct {
		v   float64
		pos bool
	}
	all := make([]obs, 0, len(pos)+len(neg))
	for _, v := range pos {
		all = append(all, obs{v, true})
	}
	for _, v := range neg {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	rankSum := 0.0
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].v == all[lo].v {
			hi++
		}
		avg := float64(lo+1+hi) / 2
		for i := lo; i < hi; i++ {
			if all[i].pos {
				rankSum += avg
			}
		}
		lo = hi
	}
	np, nn := float64(len(pos)), float64(len(neg))
	return (rankSum - np*(np+1)/2) / (np * nn)
}

// signedZeros turns about half of xs's zeros into negative zeros, which
// compare equal to positive zero and must tie with it.
func signedZeros(rng *sim.RNG, xs []float64) []float64 {
	for i, v := range xs {
		if v == 0 && rng.Bool(0.5) {
			xs[i] = math.Copysign(0, -1)
		}
	}
	return xs
}

// TestRankStatsMatchSortSliceBitwise pins KendallTau and AUC bit for bit
// against their sort.Slice forms on heavily tied inputs (1–4 levels, signed
// zeros) and on large untied ones.
func TestRankStatsMatchSortSliceBitwise(t *testing.T) {
	rng := sim.NewRNG(2024)
	bits := math.Float64bits
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(300)
		la, lb := 1+rng.Intn(4), 1+rng.Intn(4)
		if trial%10 == 0 {
			la, lb = 1<<20, 1<<20
		}
		a := signedZeros(rng, quantized(rng, n, la))
		b := signedZeros(rng, quantized(rng, n, lb))
		if got, want := KendallTau(a, b), sortSliceKendallTau(a, b); bits(got) != bits(want) {
			t.Fatalf("trial %d (n=%d): KendallTau %v, want %v", trial, n, got, want)
		}
		if got, want := AUC(a, b), sortSliceAUC(a, b); bits(got) != bits(want) {
			t.Fatalf("trial %d (n=%d): AUC %v, want %v", trial, n, got, want)
		}
	}
}
