package metrics

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// bruteTau is the quadratic tau-b reference the fast implementation must
// reproduce exactly (up to float noise).
// AUC returns the probability that a uniformly chosen positive outranks a
// uniformly chosen negative (ties count half) — the Mann–Whitney form of
// the ROC area, computed in O(m log m) by rank-summing rather than the
// quadratic pair scan, through RankSample. It returns NaN when either class
// is empty.
func AUC(pos, neg []float64) float64 {
	r := newRankSample(len(pos) + len(neg))
	for _, v := range pos {
		r.Add(v, 1)
	}
	for _, v := range neg {
		r.Add(v, 0)
	}
	_, auc := r.read(false)
	return auc
}

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
	discordant := float64(floatInversions(bs, make([]float64, n)))
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

// floatInversions is the top-down merge-sort inversion count the comparator
// forms below used: it sorts xs in place and returns the number of strict
// inversions; tmp is scratch of equal length.
func floatInversions(xs, tmp []float64) int64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := floatInversions(xs[:mid], tmp[:mid]) + floatInversions(xs[mid:], tmp[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if xs[i] <= xs[j] {
			tmp[k] = xs[i]
			i++
		} else {
			tmp[k] = xs[j]
			inv += int64(mid - i)
			j++
		}
		k++
	}
	copy(tmp[k:], xs[i:mid])
	copy(xs, tmp[:k+mid-i])
	return inv
}

// comparatorKendallTau is KendallTau as it was before RankSample: the
// (a, b) pairs ordered by a comparator sort, then the ties counted and the
// discordant pairs counted as merge-sort inversions of b. It is the oracle
// RankSample is pinned against, bit for bit.
func comparatorKendallTau(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	type pair struct{ a, b float64 }
	ps := make([]pair, n)
	for i := range ps {
		ps[i] = pair{a[i], b[i]}
	}
	slices.SortFunc(ps, func(x, y pair) int {
		switch {
		case x.a < y.a:
			return -1
		case x.a > y.a:
			return 1
		case x.b < y.b:
			return -1
		case x.b > y.b:
			return 1
		}
		return 0
	})
	pairs := func(t float64) float64 { return t * (t - 1) / 2 }
	var n1, n3 float64
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ps[hi].a == ps[lo].a {
			hi++
		}
		n1 += pairs(float64(hi - lo))
		for jlo := lo; jlo < hi; {
			jhi := jlo + 1
			for jhi < hi && ps[jhi].b == ps[jlo].b {
				jhi++
			}
			n3 += pairs(float64(jhi - jlo))
			jlo = jhi
		}
		lo = hi
	}
	bs := make([]float64, n)
	for i, p := range ps {
		bs[i] = p.b
	}
	discordant := float64(floatInversions(bs, make([]float64, n)))
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
	return (n0 - n1 - n2 + n3 - float64(2*discordant)) / denom
}

// comparatorAUC is AUC as it was before RankSample: one comparator sort of
// both classes, then the tie-averaged rank sum of the positives.
func comparatorAUC(pos, neg []float64) float64 {
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
	slices.SortFunc(all, func(x, y obs) int {
		switch {
		case x.v < y.v:
			return -1
		case x.v > y.v:
			return 1
		}
		return 0
	})
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

// comparatorReading is the reputation reading as the epoch boundary took it
// before RankSample: τ of the scores against the truths, and the AUC of the
// scores of the observations with truth >= 0.5 against the rest.
func comparatorReading(sc, gt []float64) (tau, auc float64) {
	var good, bad []float64
	for i, q := range gt {
		if q >= 0.5 {
			good = append(good, sc[i])
		} else {
			bad = append(bad, sc[i])
		}
	}
	return comparatorKendallTau(sc, gt), comparatorAUC(good, bad)
}

// TestRankSampleMatchesComparatorOracle pins RankSample.Read, KendallTau
// and AUC bit for bit against the comparator-sort forms, over samples with
// heavy ties, signed zeros, all-tied scores, all-tied truths, fewer than two
// observations, an empty class, and large untied samples that take the
// radix path. One sample is reused throughout, so the storage reuse is
// covered too.
func TestRankSampleMatchesComparatorOracle(t *testing.T) {
	rng := sim.NewRNG(27)
	bits := math.Float64bits
	var r RankSample
	check := func(name string, sc, gt []float64) {
		t.Helper()
		r.Reset()
		for i := range sc {
			r.Add(sc[i], gt[i])
		}
		tau, auc := r.Read()
		wantTau, wantAUC := comparatorReading(sc, gt)
		if bits(tau) != bits(wantTau) || bits(auc) != bits(wantAUC) {
			t.Fatalf("%s (n=%d): Read = (%v, %v), want (%v, %v)", name, len(sc), tau, auc, wantTau, wantAUC)
		}
		if tau, auc := r.Read(); tau != 0 || !math.IsNaN(auc) {
			t.Fatalf("%s: Read did not empty the sample: a second Read gave (%v, %v)", name, tau, auc)
		}
		if got, want := KendallTau(sc, gt), comparatorKendallTau(sc, gt); bits(got) != bits(want) {
			t.Fatalf("%s (n=%d): KendallTau %v, want %v", name, len(sc), got, want)
		}
		if got, want := AUC(sc, gt), comparatorAUC(sc, gt); bits(got) != bits(want) {
			t.Fatalf("%s (n=%d): AUC %v, want %v", name, len(sc), got, want)
		}
	}
	constant := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	check("empty", nil, nil)
	check("one", []float64{0.3}, []float64{0.9})
	check("two tied", []float64{0.3, 0.3}, []float64{0.9, 0.1})
	check("signed zero scores", []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}, []float64{0.9, 0.1, 0.2, 0.8})
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		if trial%25 == 0 {
			n = 2000 + rng.Intn(3000)
		}
		ls, lt := 1+rng.Intn(5), 1+rng.Intn(5)
		if trial%5 == 0 {
			ls, lt = 1<<20, 1<<20
		}
		sc := signedZeros(rng, quantized(rng, n, ls))
		gt := signedZeros(rng, quantized(rng, n, lt))
		check("random", sc, gt)
		check("all-tied scores", constant(n, 0.25), gt)
		check("all-tied truth", sc, constant(n, 0.75))
		check("no positive", sc, constant(n, 0.25))
	}
}

// TestRankSampleReadAllocs pins the epoch boundary's reading at zero
// allocations once the sample's storage has grown to its size.
func TestRankSampleReadAllocs(t *testing.T) {
	rng := sim.NewRNG(3)
	sc, gt := quantized(rng, 5000, 1<<20), quantized(rng, 5000, 7)
	var r RankSample
	read := func() {
		for i := range sc {
			r.Add(sc[i], gt[i])
		}
		r.Read()
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("RankSample read allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkReputationReading prices the epoch boundary's reputation reading
// at 20k served providers: distinct scores (the full τ path) and all-tied
// scores (a mechanism that ranks nobody, the O(n) path).
func BenchmarkReputationReading(b *testing.B) {
	const n = 20000
	rng := sim.NewRNG(11)
	gt := quantized(rng, n, 1<<10)
	for _, tc := range []struct {
		name string
		sc   []float64
	}{
		{"distinct", quantized(rng, n, 1<<30)},
		{"all-tied", make([]float64, n)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var r RankSample
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range tc.sc {
					r.Add(tc.sc[j], gt[j])
				}
				r.Read()
			}
		})
	}
}
