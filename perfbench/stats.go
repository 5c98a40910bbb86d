package main

import (
	"time"

	"repro/trustnet"
)

// tailQuantile is the highest quantile that still has at least ten samples
// beyond it at sample count n (the benchmark's tail rule). Below 20 samples
// that would not be above the median, so the median stands in.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q < 0.5 {
		return 0.5
	}
	return q
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// latency summarizes a timing sample as its median and its tail under the
// tail rule.
func latency(ds []time.Duration) (p50, tail float64) {
	xs := ms(ds)
	return trustnet.Quantile(xs, 0.5), trustnet.Quantile(xs, tailQuantile(len(xs)))
}

func medianDuration(ds []time.Duration) float64 {
	return trustnet.Quantile(ms(ds), 0.5)
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
