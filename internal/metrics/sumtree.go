package metrics

import (
	"math"
	"math/bits"
)

// SumTree is a fixed-shape summation tree over n float64 leaves: a complete
// binary tree (leaves padded to the next power of two with zeros) whose
// internal nodes each hold the sum of their two children. Because the tree's
// SHAPE is fixed at construction, the root is a fully parenthesized sum with
// a fixed association order — so the root after any sequence of updates is
// bit-for-bit identical to recomputing the whole tree bottom-up over the
// same leaves. That is the property incremental epoch aggregates need:
// maintaining a mean from a dirty set must not drift, by even one ulp, from
// the dense recomputation a resumed or dense-reference run performs.
//
// Updates are staged: Stage writes a leaf and marks its parent stale, and
// Flush then sweeps the levels bottom-up, re-evaluating every stale node
// once as node[p] = node[2p] + node[2p+1] and marking its parent in turn.
// A batch of k leaves thus costs at most one evaluation per node on their
// paths, not k·log n.
//
// Why the bits match: when Flush evaluates a node, both its children are
// final (every stale node below it was evaluated first), and a node that
// is not stale has no changed leaf below it, so it still holds the sum of
// its children. After a Flush, then, every internal node is the sum of its
// current children. Two trees with equal leaves that both satisfy that
// invariant are equal node for node by induction on height — regardless of
// the order, grouping, repetition or batching of the Stage calls that
// produced them. A left-to-right running sum has no such fixed shape, which
// is exactly why incremental maintenance of one cannot reproduce its bits.
//
// Stage is O(1), Flush is O(evaluated nodes + span/64) where span is the
// distance between the lowest and highest staged leaf, and Sum and Mean are
// O(1). Sum and Mean read the root as of the last Flush or Fill. The
// zero-size tree (n == 0) is valid and sums to 0.
type SumTree struct {
	n    int
	size int // leaf span: smallest power of two >= max(n, 1)
	node []float64
	// stale has bit p set while internal node p awaits re-evaluation. All
	// staged parents lie on the lowest internal level, between lo and hi
	// (lo > hi when nothing is staged).
	stale  []uint64
	lo, hi int
}

// NewSumTree builds a tree of n zero leaves.
func NewSumTree(n int) *SumTree {
	if n < 0 {
		n = 0
	}
	size := 1
	for size < n {
		size *= 2
	}
	return &SumTree{n: n, size: size, node: make([]float64, 2*size), stale: make([]uint64, (size+63)/64), lo: size}
}

// Stage writes leaf i and marks the sums above it stale until the next
// Flush. Writing a leaf's current bit pattern (value and sign bit both
// equal) is a no-op, and so is an index out of range.
func (t *SumTree) Stage(i int, v float64) {
	if i < 0 || i >= t.n {
		return
	}
	p := t.size + i
	if old := t.node[p]; old == v && math.Signbit(old) == math.Signbit(v) {
		return
	}
	t.node[p] = v
	if p == 1 { // a one-leaf tree: the leaf is the root
		return
	}
	p >>= 1
	t.stale[p>>6] |= 1 << (p & 63)
	t.lo, t.hi = min(t.lo, p), max(t.hi, p)
}

// Flush re-evaluates every stale node, level by level from the leaves up,
// so that each internal node again holds the sum of its children.
func (t *SumTree) Flush() {
	for lo, hi := t.lo, t.hi; lo <= hi && lo >= 1; lo, hi = lo>>1, hi>>1 {
		for w := lo >> 6; w <= hi>>6; w++ {
			// Words at and above the seventh level hold one level each;
			// the first word holds the top six, so mask to [lo, hi].
			mask := ^uint64(0)
			if w == lo>>6 {
				mask &= ^uint64(0) << (lo & 63)
			}
			if w == hi>>6 {
				mask &= ^uint64(0) >> (63 - hi&63)
			}
			b := t.stale[w] & mask
			t.stale[w] &^= b
			for ; b != 0; b &= b - 1 {
				p := w<<6 | bits.TrailingZeros64(b)
				t.node[p] = t.node[2*p] + t.node[2*p+1]
				if q := p >> 1; q >= 1 {
					t.stale[q>>6] |= 1 << (q & 63)
				}
			}
		}
	}
	t.lo, t.hi = t.size, 0
}

// Fill overwrites every leaf from vs (len(vs) must be N) and rebuilds every
// internal node bottom-up — the dense recomputation the incremental path is
// pinned against, and the restore path for trees rebuilt from a snapshot.
// It drops anything staged.
func (t *SumTree) Fill(vs []float64) {
	if len(vs) != t.n {
		panic("metrics: SumTree.Fill length mismatch")
	}
	copy(t.node[t.size:t.size+t.n], vs)
	t.rebuild()
}

// FillUniform sets every leaf to v and rebuilds the tree.
func (t *SumTree) FillUniform(v float64) {
	for i := 0; i < t.n; i++ {
		t.node[t.size+i] = v
	}
	t.rebuild()
}

// rebuild zeroes the padding leaves and recomputes every internal node.
func (t *SumTree) rebuild() {
	clear(t.node[t.size+t.n:])
	for p := t.size - 1; p >= 1; p-- {
		t.node[p] = t.node[2*p] + t.node[2*p+1]
	}
	clear(t.stale)
	t.lo, t.hi = t.size, 0
}

// Sum returns the root: the fixed-shape sum of all leaves as of the last
// Flush or Fill.
func (t *SumTree) Sum() float64 { return t.node[1] }

// Mean returns Sum()/N (NaN for an empty tree, matching Mean on an empty
// slice).
func (t *SumTree) Mean() float64 {
	return t.Sum() / float64(t.n)
}
