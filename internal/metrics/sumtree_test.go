package metrics

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// sameNodes fails unless every node of got is bitwise the node of want.
// Leaf returns leaf i's current value, staged or flushed.
func (t *SumTree) Leaf(i int) float64 {
	if i < 0 || i >= t.n {
		return 0
	}
	return t.node[t.size+i]
}

func sameNodes(t *testing.T, where string, got, want *SumTree) {
	t.Helper()
	for p := 1; p < len(want.node); p++ {
		if g, w := math.Float64bits(got.node[p]), math.Float64bits(want.node[p]); g != w {
			t.Fatalf("%s: node %d is %x, dense rebuild has %x", where, p, g, w)
		}
	}
}

// TestSumTreeMatchesDenseRebuild is the property the incremental epoch
// aggregates stand on: after ANY sequence of staged batches, each flushed
// once, the tree is node for node the one a full bottom-up rebuild over the
// same leaves produces — for awkward sizes (non powers of two), batches of
// every size in any order, repeated writes of one leaf within a batch,
// adversarially mixed magnitudes, signed zeros and NaN leaves.
func TestSumTreeMatchesDenseRebuild(t *testing.T) {
	rng := sim.NewRNG(99)
	value := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.NaN()
		}
		// Mixed magnitudes make float addition maximally order-sensitive,
		// so a shape mismatch cannot hide.
		v := rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
		if rng.Bool(0.3) {
			v = -v
		}
		return v
	}
	for _, n := range []int{1, 2, 3, 7, 8, 63, 64, 65, 100, 1000, 1023, 4097} {
		inc := NewSumTree(n)
		leaves := make([]float64, n)
		for batch := 0; batch < 200; batch++ {
			k := rng.Intn(n + 1)
			if batch%50 == 0 {
				k = 3 * n // every leaf, most of them several times
			}
			for s := 0; s < k; s++ {
				i := rng.Intn(n)
				v := value()
				leaves[i] = v
				inc.Stage(i, v)
			}
			if rng.Bool(0.2) {
				inc.Flush() // a second flush with nothing staged is a no-op
			}
			inc.Flush()
			ref := NewSumTree(n)
			ref.Fill(leaves)
			sameNodes(t, fmt.Sprintf("n=%d batch=%d", n, batch), inc, ref)
		}
	}
}

func TestSumTreeBasics(t *testing.T) {
	tr := NewSumTree(3)
	if got := tr.Sum(); got != 0 {
		t.Fatalf("empty sum = %v", got)
	}
	tr.FillUniform(0.5)
	if got := tr.Sum(); got != 1.5 {
		t.Fatalf("uniform sum = %v, want 1.5", got)
	}
	if got := tr.Mean(); got != 0.5 {
		t.Fatalf("mean = %v, want 0.5", got)
	}
	tr.Stage(1, 0.25)
	if got := tr.Leaf(1); got != 0.25 {
		t.Fatalf("staged leaf = %v", got)
	}
	if got := tr.Sum(); got != 1.5 {
		t.Fatalf("sum before flush = %v, want the flushed 1.5", got)
	}
	tr.Flush()
	if got, want := tr.Sum(), 0.5+0.25+0.5; got != want {
		t.Fatalf("sum after flush = %v, want %v", got, want)
	}
	// Out-of-range stages are ignored, not panics.
	tr.Stage(-1, 9)
	tr.Stage(3, 9)
	tr.Flush()
	if got := tr.Leaf(5); got != 0 {
		t.Fatalf("out-of-range leaf = %v", got)
	}
	// Fill drops anything staged.
	tr.Stage(0, 7)
	tr.Fill([]float64{1, 2, 3})
	tr.Flush()
	if got := tr.Sum(); got != 6 {
		t.Fatalf("sum after fill = %v, want 6", got)
	}
	one := NewSumTree(1)
	one.Stage(0, 4)
	one.Flush()
	if got := one.Sum(); got != 4 {
		t.Fatalf("one-leaf sum = %v, want 4", got)
	}
	empty := NewSumTree(0)
	empty.Flush()
	if got := empty.Sum(); got != 0 {
		t.Fatalf("zero-size sum = %v", got)
	}
	if got := empty.Mean(); !math.IsNaN(got) {
		t.Fatalf("zero-size mean = %v, want NaN", got)
	}
}

// BenchmarkSumTreeFlush prices one staged batch over 100k leaves, 10% and
// 100% of them staged, against flushing after every leaf (the path walk a
// per-leaf update pays). Allocation-free.
func BenchmarkSumTreeFlush(b *testing.B) {
	const n = 100000
	for _, share := range []int{10, 100} {
		rng := sim.NewRNG(7)
		ids := make([]int, n*share/100)
		for i := range ids {
			ids[i] = rng.Intn(n)
		}
		tr := NewSumTree(n)
		b.Run(fmt.Sprintf("staged=%d%%/batch", share), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					tr.Stage(id, float64(i+id))
				}
				tr.Flush()
			}
		})
		b.Run(fmt.Sprintf("staged=%d%%/per-leaf", share), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					tr.Stage(id, float64(i+id))
					tr.Flush()
				}
			}
		})
	}
}
