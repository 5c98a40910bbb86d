// Package metrics provides the statistics and reporting toolkit used by the
// experiment harness: streaming moments (Welford), histograms, rank
// correlation (Kendall tau), time series and fixed-width ASCII tables that
// mirror the rows/series reported in the paper's figures.
package metrics

import (
	"math"
	"math/bits"
)

// Stream accumulates streaming mean and variance using Welford's algorithm.
// The zero value is an empty stream ready for use.
type Stream struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the stream.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += float64(delta * (x - s.mean))
}

// N returns the number of observations.
func (s *Stream) N() int64 { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stream) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Merge folds another stream into s (parallel-Welford combination).
func (s *Stream) Merge(o *Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Quantile returns the q-quantile of xs using linear interpolation between
// the order statistics at floor and ceil of q·(len(xs)−1), ordered as
// sort.Float64s orders them (NaN first). It neither sorts nor copies xs:
// it selects the order statistics by radix over the values' ordered bit
// patterns, in at most nine passes over xs and without allocating. Where
// the sort leaves equal values in any order, the result may differ from it
// only in the sign of a zero or the payload of a NaN.
//
// Edge cases are explicit rather than clamped: an empty slice and a q
// outside [0,1] (including NaN) both return NaN — "no data" and "not a
// quantile" must not masquerade as a measured value. q = 0 and q = 1 are
// valid and return the minimum and maximum.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	pos := float64(q * float64(len(xs)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v, key, uniform := selectRank(xs, lo)
	if lo == hi {
		return v
	}
	// The next order statistic is v again when more than hi elements order
	// at or before it, and otherwise the least element ordering after it.
	next := v
	if !uniform {
		atOrBefore, nextKey := 0, uint64(math.MaxUint64)
		for _, x := range xs {
			switch k := orderKey(x); {
			case k <= key:
				atOrBefore++
			case k < nextKey:
				next, nextKey = x, k
			}
		}
		if hi < atOrBefore {
			next = v
		}
	}
	frac := pos - float64(lo)
	return float64(v*(1-frac)) + float64(next*frac)
}

// orderKey maps x to a key whose unsigned order is sort.Float64s's order:
// every NaN lowest, then −Inf through +Inf, with −0 just below +0. A
// negative value has all its bits flipped, any other its sign bit set.
func orderKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// selectRank returns the element of rank k (0-based) in orderKey order, its
// key, and whether every element shares that key. A first pass finds the
// least and greatest keys: when they are equal every element is, and
// otherwise the bits above their highest difference are common to all.
// Each further pass counts, among the elements whose keys carry the high
// bits fixed so far, how many carry each value of the next 11-bit digit,
// and fixes the digit that holds rank k; it stops as soon as the remaining
// elements share one key.
func selectRank(xs []float64, k int) (float64, uint64, bool) {
	least, most := uint64(math.MaxUint64), uint64(0)
	for _, x := range xs {
		key := orderKey(x)
		least, most = min(least, key), max(most, key)
	}
	uniform := least == most
	var counts [1 << 11]int
	for top := bits.Len64(least ^ most); least != most; top = max(top-11, 0) {
		low := max(top-11, 0)
		digit := uint64(1)<<(top-low) - 1
		clear(counts[:])
		prefix := least >> top
		least, most = math.MaxUint64, 0
		for _, x := range xs {
			key := orderKey(x)
			if key>>top != prefix {
				continue
			}
			least, most = min(least, key), max(most, key)
			counts[key>>low&digit]++
		}
		if least == most {
			break
		}
		d := 0
		for ; k >= counts[d]; d++ {
			k -= counts[d]
		}
		least = prefix<<top | uint64(d)<<low
		most = least | (uint64(1)<<low - 1)
	}
	for _, x := range xs {
		if orderKey(x) == least {
			return x, least, uniform
		}
	}
	panic("metrics: selected key not in the input")
}

// Mean returns the arithmetic mean of xs. An empty slice returns NaN: a
// mean over no observations is undefined, and callers that want a neutral
// default must choose it explicitly rather than receive a silent 0.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Agg summarizes one sample of observations: the moments and order
// statistics the sweep aggregator reports per cell. All fields are NaN for
// an empty sample.
type Agg struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// Describe computes the Agg summary of xs.
func Describe(xs []float64) Agg {
	if len(xs) == 0 {
		nan := math.NaN()
		return Agg{N: 0, Mean: nan, Std: nan, Min: nan, Median: nan, Max: nan}
	}
	var s Stream
	for _, x := range xs {
		s.Add(x)
	}
	return Agg{
		N:      len(xs),
		Mean:   s.Mean(),
		Std:    s.Std(),
		Min:    s.Min(),
		Median: Quantile(xs, 0.5),
		Max:    s.Max(),
	}
}
