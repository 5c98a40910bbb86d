package metrics

import "math"

// RankSample is a sample of (score, truth) observations and the reusable
// storage of the one rank-statistics implementation: KendallTau, AUC and the
// epoch boundary's reputation reading all order their observations here.
// The zero value is an empty sample; once its storage has grown to a
// sample's size, reading a sample of that size allocates nothing.
//
// Observations are kept as ordered keys (see orderKey) with −0 folded onto
// +0, so the order is sort.Float64s's and a signed zero ties with an
// unsigned one, as == has it. Every NaN ties with every other NaN below
// −Inf; the comparator sorts this replaces gave NaN no consistent place.
type RankSample struct {
	score, truth []uint64
	order, tmp   []int32
}

// Reset empties the sample, keeping its storage.
func (r *RankSample) Reset() { r.score, r.truth = r.score[:0], r.truth[:0] }

// Add records one observation.
func (r *RankSample) Add(score, truth float64) {
	r.score = append(r.score, rankKey(score))
	r.truth = append(r.truth, rankKey(truth))
}

// Read returns Kendall's τ-b between the scores and the truths, and the AUC
// of the scores with the observations whose truth is at least 0.5 as the
// positive class, and empties the sample (it reuses the sample's storage as
// scratch). τ is 0 for fewer than two observations or when either side is
// all tied; the AUC is NaN when either class is empty. Both come bit for
// bit as KendallTau and AUC compute them.
//
// One radix sort orders the observations by score; one walk over the score
// ties then gives AUC's tie-averaged rank sum and τ's count of score-tied
// pairs. Only when the scores are not all tied does τ go on to order each
// run of tied scores by truth and count the pairs tied on both sides, the
// discordant pairs (as merge-sort inversions of the truths in that order)
// and the truth-tied pairs. So an all-tied sample costs O(n), and any other
// O(n log n).
func (r *RankSample) Read() (tau, auc float64) {
	tau, auc = r.read(true)
	r.Reset()
	return tau, auc
}

// pairs is the number of unordered pairs among t observations.
func pairs(t float64) float64 { return float64(t * (t - 1) / 2) }

// read is Read without emptying the sample; with wantTau false it returns
// τ as 0 and stops once the AUC is known.
func (r *RankSample) read(wantTau bool) (tau, auc float64) {
	score, truth := r.score, r.truth
	n := len(score)
	r.order, r.tmp = growInt32(r.order, n), growInt32(r.tmp, n)
	order, tmp := r.order, r.tmp
	for i := range order {
		order[i] = int32(i)
	}
	radixSort(order, tmp, score)
	// Each run of tied scores shares the average of the ranks it spans.
	positive := rankKey(0.5)
	var n1, rankSum float64
	np := 0
	for lo := 0; lo < n; {
		hi := scoreRunEnd(order, score, lo)
		n1 += pairs(float64(hi - lo))
		c := 0
		for _, i := range order[lo:hi] {
			if truth[i] >= positive {
				c++
			}
		}
		// The run's c positives each add the mean of ranks lo+1 .. hi. Every
		// partial sum is a multiple of 1/2 below n², so for any sample under
		// 2^26 observations it is exact, and adding the c terms at once gives
		// the bits of adding them in turn.
		rankSum += float64(float64(lo+1+hi) / 2 * float64(c))
		np += c
		lo = hi
	}
	auc = math.NaN()
	if np > 0 && np < n {
		pos, neg := float64(np), float64(n-np)
		auc = (rankSum - float64(pos*(pos+1)/2)) / (pos * neg)
	}
	n0 := float64(float64(n) * float64(n-1) / 2)
	if !wantTau || n < 2 || n0-n1 == 0 {
		return 0, auc
	}
	// Order each score run by truth and count the pairs tied on both sides.
	var n3 float64
	for lo := 0; lo < n; {
		hi := scoreRunEnd(order, score, lo)
		if hi-lo > 1 {
			radixSort(order[lo:hi], tmp[lo:hi], truth)
			for jlo := lo; jlo < hi; {
				jhi := jlo + 1
				for jhi < hi && truth[order[jhi]] == truth[order[jlo]] {
					jhi++
				}
				n3 += pairs(float64(jhi - jlo))
				jlo = jhi
			}
		}
		lo = hi
	}
	// The truths in (score, truth) order: each inversion is a discordant
	// pair. The score keys are no longer needed, so they hold the sequence
	// and the truth keys, once copied, the merge buffer.
	seq := score
	for k, i := range order {
		seq[k] = truth[i]
	}
	inv, sorted := countInversions(seq, truth)
	discordant := float64(inv)
	var n2 float64
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && sorted[hi] == sorted[lo] {
			hi++
		}
		n2 += pairs(float64(hi - lo))
		lo = hi
	}
	denom := math.Sqrt((n0 - n1) * (n0 - n2))
	if denom == 0 {
		return 0, auc
	}
	// concordant - discordant = n0 - n1 - n2 + n3 - 2*discordant.
	return (n0 - n1 - n2 + n3 - float64(2*discordant)) / denom, auc
}

// scoreRunEnd returns the end of the run of tied scores starting at lo.
func scoreRunEnd(order []int32, score []uint64, lo int) int {
	hi, k := lo+1, score[order[lo]]
	for hi < len(order) && score[order[hi]] == k {
		hi++
	}
	return hi
}

// KendallTau returns the Kendall rank correlation coefficient (tau-b,
// handling ties) between two equal-length score vectors. It returns 0 for
// degenerate inputs (length < 2, mismatched lengths, or all-tied vectors).
//
// The experiment harness uses it as the "reputation power / consistency with
// reality" metric of the paper's Figure 2: correlation between mechanism
// scores and ground-truth peer behaviour. It is Knight's O(n log n)
// algorithm, through RankSample.
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	r := newRankSample(len(a))
	for i := range a {
		r.Add(a[i], b[i])
	}
	tau, _ := r.read(true)
	return tau
}

// newRankSample returns an empty sample with room for n observations.
func newRankSample(n int) *RankSample {
	return &RankSample{score: make([]uint64, 0, n), truth: make([]uint64, 0, n)}
}

// rankKey is x's orderKey with −0 folded onto +0.
func rankKey(x float64) uint64 {
	if x == 0 {
		return 1 << 63
	}
	return orderKey(x)
}

// growInt32 returns s resliced to length n, reallocated with append's
// growth when its capacity is short. The contents are unspecified.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]int32, n-cap(s))...)
	}
	return s[:n]
}

// insertionCutoff is the length up to which radixSort sorts by insertion:
// below it, clearing the digit counts costs more than the comparisons.
const insertionCutoff = 48

// radixSort orders idx ascending by keys[idx[i]], using tmp (of idx's
// length) as scratch: least significant byte first, with one counting pass
// per byte on which the keys differ and none for a byte they all share.
func radixSort(idx, tmp []int32, keys []uint64) {
	n := len(idx)
	if n <= insertionCutoff {
		for i := 1; i < n; i++ {
			v := idx[i]
			k := keys[v]
			j := i
			for ; j > 0 && keys[idx[j-1]] > k; j-- {
				idx[j] = idx[j-1]
			}
			idx[j] = v
		}
		return
	}
	// Finding the shared bytes first also spares the histogram a run of
	// increments to one counter per shared byte.
	and, or := ^uint64(0), uint64(0)
	for _, i := range idx {
		and &= keys[i]
		or |= keys[i]
	}
	if and == or {
		return
	}
	var shifts [8]uint
	digits := shifts[:0]
	for shift := uint(0); shift < 64; shift += 8 {
		if (and^or)>>shift&0xff != 0 {
			digits = append(digits, shift)
		}
	}
	var counts [8][256]int32
	for _, i := range idx {
		k := keys[i]
		for d, shift := range digits {
			counts[d][k>>shift&0xff]++
		}
	}
	src, dst := idx, tmp
	for d, shift := range digits {
		c := &counts[d]
		var sum int32
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, i := range src {
			b := keys[i] >> shift & 0xff
			dst[c[b]] = i
			c[b]++
		}
		src, dst = dst, src
	}
	if len(digits)%2 == 1 {
		copy(idx, src)
	}
}

// countInversions merge-sorts xs bottom-up, using buf (of xs's length) as
// the other half of each pass, and returns the number of strict inversions
// (i < j with xs[i] > xs[j]) and whichever of xs and buf ends up sorted.
func countInversions(xs, buf []uint64) (int64, []uint64) {
	n := len(xs)
	var inv int64
	// Short runs sort faster by insertion; each shift undoes one inversion.
	for lo := 0; lo < n; lo += insertionRun {
		hi := min(lo+insertionRun, n)
		for i := lo + 1; i < hi; i++ {
			v := xs[i]
			j := i
			for ; j > lo && xs[j-1] > v; j-- {
				xs[j] = xs[j-1]
			}
			xs[j] = v
			inv += int64(i - j)
		}
	}
	src, dst := xs, buf
	for width := insertionRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			inv += mergeCount(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	return inv, src
}

// insertionRun is the length of the runs countInversions sorts by
// insertion before it starts merging.
const insertionRun = 8

// mergeCount merges the ascending runs a and b into dst and returns the
// number of pairs with the element of a greater than the element of b. It
// does not branch on the comparison: which run moves depends on the data,
// so a branch would mispredict about half the time.
func mergeCount(dst, a, b []uint64) int64 {
	var inv int64
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		step := 0
		if y < x {
			step = 1
		}
		v := x
		if step == 1 {
			v = y
		}
		dst[k] = v
		inv += int64(step * (len(a) - i))
		i += 1 - step
		j += step
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
	return inv
}
