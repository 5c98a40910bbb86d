package metrics

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// sameNodes fails unless every node of got is bitwise the node of want.
func sameNodes(t *testing.T, where string, got, want *SumTree) {
	t.Helper()
	for p := 1; p < len(want.node); p++ {
		if g, w := math.Float64bits(got.node[p]), math.Float64bits(want.node[p]); g != w {
			t.Fatalf("%s: node %d is %x, dense rebuild has %x", where, p, g, w)
		}
	}
}

// TestSumTreeMatchesDenseRebuild is the property the incremental epoch
// aggregates stand on: after ANY sequence of owner writes, each marked and
// flushed once per batch, the tree is node for node the one a full
// bottom-up rebuild over the same leaves produces — for awkward sizes (non
// powers of two, where the padding starts right after the last leaf),
// batches of every size in any order, repeated writes and marks of one leaf
// within a batch, marks of unchanged leaves, adversarially mixed
// magnitudes, signed zeros and NaN leaves.
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
		leaves := make([]float64, n)
		inc := NewSumTree(n, func(i int) float64 { return leaves[i] })
		for batch := 0; batch < 200; batch++ {
			k := rng.Intn(n + 1)
			if batch%50 == 0 {
				k = 3 * n // every leaf, most of them several times
			}
			for s := 0; s < k; s++ {
				i := rng.Intn(n)
				switch rng.Intn(8) {
				case 0: // the padding edge: the last leaf
					i = n - 1
				case 1: // a mark without a write
					inc.Mark(i)
					continue
				}
				leaves[i] = value()
				inc.Mark(i)
			}
			if rng.Bool(0.2) {
				inc.Flush() // a second flush with nothing marked is a no-op
			}
			inc.Flush()
			ref := NewSumTree(n, func(i int) float64 { return leaves[i] })
			sameNodes(t, fmt.Sprintf("n=%d batch=%d", n, batch), inc, ref)
		}
	}
}

func TestSumTreeBasics(t *testing.T) {
	leaves := make([]float64, 3)
	leaf := func(i int) float64 { return leaves[i] }
	tr := NewSumTree(3, leaf)
	if got := tr.Sum(); got != 0 {
		t.Fatalf("empty sum = %v", got)
	}
	for i := range leaves {
		leaves[i] = 0.5
	}
	tr.Fill()
	if got := tr.Sum(); got != 1.5 {
		t.Fatalf("uniform sum = %v, want 1.5", got)
	}
	if got := tr.Mean(); got != 0.5 {
		t.Fatalf("mean = %v, want 0.5", got)
	}
	leaves[1] = 0.25
	tr.Mark(1)
	if got := tr.Sum(); got != 1.5 {
		t.Fatalf("sum before flush = %v, want the flushed 1.5", got)
	}
	tr.Flush()
	if got, want := tr.Sum(), 0.5+0.25+0.5; got != want {
		t.Fatalf("sum after flush = %v, want %v", got, want)
	}
	// Out-of-range marks are ignored, not panics.
	tr.Mark(-1)
	tr.Mark(3)
	tr.Flush()
	// Fill drops anything marked.
	copy(leaves, []float64{1, 2, 3})
	tr.Mark(0)
	tr.Fill()
	tr.Flush()
	if got := tr.Sum(); got != 6 {
		t.Fatalf("sum after fill = %v, want 6", got)
	}
	one := []float64{math.Copysign(0, -1)}
	oneTree := NewSumTree(1, func(i int) float64 { return one[i] })
	if got := oneTree.Sum(); !math.Signbit(got) {
		t.Fatalf("one-leaf sum = %v, want the leaf's -0", got)
	}
	one[0] = 4
	oneTree.Mark(0)
	oneTree.Flush()
	if got := oneTree.Sum(); got != 4 {
		t.Fatalf("one-leaf sum = %v, want 4", got)
	}
	empty := NewSumTree(0, func(int) float64 { panic("no leaf to read") })
	empty.Mark(0)
	empty.Flush()
	if got := empty.Sum(); got != 0 {
		t.Fatalf("zero-size sum = %v", got)
	}
	if got := empty.Mean(); !math.IsNaN(got) {
		t.Fatalf("zero-size mean = %v, want NaN", got)
	}
}

// TestSumTreeSize pins what a tree keeps: its internal nodes, not a copy of
// the owner's leaves.
func TestSumTreeSize(t *testing.T) {
	for _, tc := range []struct{ n, nodes int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {100000, 131072}} {
		if got := len(NewSumTree(tc.n, func(int) float64 { return 1 }).node); got != tc.nodes {
			t.Fatalf("a %d-leaf tree keeps %d nodes, want %d", tc.n, got, tc.nodes)
		}
	}
}

// BenchmarkSumTreeFlush prices one marked batch over 100k leaves, 10% and
// 100% of them marked, against flushing after every leaf (the path walk a
// per-leaf update pays). Allocation-free.
func BenchmarkSumTreeFlush(b *testing.B) {
	const n = 100000
	for _, share := range []int{10, 100} {
		rng := sim.NewRNG(7)
		ids := make([]int, n*share/100)
		for i := range ids {
			ids[i] = rng.Intn(n)
		}
		leaves := make([]float64, n)
		tr := NewSumTree(n, func(i int) float64 { return leaves[i] })
		b.Run(fmt.Sprintf("marked=%d%%/batch", share), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					leaves[id] = float64(i + id)
					tr.Mark(id)
				}
				tr.Flush()
			}
		})
		b.Run(fmt.Sprintf("marked=%d%%/per-leaf", share), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					leaves[id] = float64(i + id)
					tr.Mark(id)
					tr.Flush()
				}
			}
		})
	}
}
