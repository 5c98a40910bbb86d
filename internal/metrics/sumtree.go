package metrics

import (
	"math/bits"
)

// SumTree is a fixed-shape summation tree over n float64 leaves that its
// owner holds: a complete binary tree (leaves padded to the next power of
// two with zeros) whose internal nodes each hold the sum of their two
// children. The tree stores only those internal nodes; it reads a leaf
// through the owner's accessor when a node above it is evaluated. Because
// the tree's SHAPE is fixed at construction, the root is a fully
// parenthesized sum with a fixed association order — so the root after any
// sequence of updates is bit-for-bit identical to recomputing the whole tree
// bottom-up over the same leaves. That is the property incremental epoch
// aggregates need: maintaining a mean from a dirty set must not drift, by
// even one ulp, from the dense recomputation a resumed or dense-reference run
// performs.
//
// Updates are marked: after writing a leaf, the owner calls Mark, which
// marks the leaf's parent stale, and Flush then sweeps the levels bottom-up,
// re-evaluating every stale node once as node[p] = node[2p] + node[2p+1]
// (the leaves read from the owner) and marking its parent in turn. A batch
// of k leaves thus costs at most one evaluation per node on their paths, not
// k·log n.
//
// Why the bits match: when Flush evaluates a node, both its children are
// final (every stale node below it was evaluated first, and every leaf is
// the owner's current value), and a node that is not stale has no changed
// leaf below it, so it still holds the sum of its children. After a Flush,
// then, every internal node is the sum of its current children. Two trees
// with equal leaves that both satisfy that invariant are equal node for node
// by induction on height — regardless of the order, grouping, repetition or
// batching of the Mark calls that produced them. The one obligation is the
// owner's: every leaf written since the last Flush or Fill is marked before
// the next Flush. Marking an unchanged leaf costs an evaluation and changes
// no bit. A left-to-right running sum has no such fixed shape, which is
// exactly why incremental maintenance of one cannot reproduce its bits.
//
// Mark is O(1), Flush is O(evaluated nodes + span/64) where span is the
// distance between the lowest and highest marked leaf, and Sum and Mean are
// O(1). Sum and Mean read the root as of the last Flush or Fill. The
// zero-size tree (n == 0) is valid and sums to 0.
type SumTree struct {
	n    int
	size int // leaf span: smallest power of two >= max(n, 1)
	leaf func(int) float64
	// node holds internal node p at index p, the root at 1. A one-leaf tree
	// has no internal node: node[1] then holds its leaf as of the last Flush.
	node []float64
	// stale has bit p set while internal node p awaits re-evaluation. All
	// marked parents lie on the lowest internal level, between lo and hi
	// (lo > hi when nothing is marked).
	stale  []uint64
	lo, hi int
}

// NewSumTree builds a tree over the owner's n leaves, leaf(i) for i in
// [0, n), and fills it from their current values. leaf must be a pure read
// of the owner's state.
func NewSumTree(n int, leaf func(int) float64) *SumTree {
	n = max(n, 0)
	size := 1
	for size < n {
		size *= 2
	}
	t := &SumTree{n: n, size: size, leaf: leaf, node: make([]float64, max(size, 2)), stale: make([]uint64, (size+63)/64)}
	t.Fill()
	return t
}

// Mark records that the owner wrote leaf i, marking the sums above it stale
// until the next Flush. An index out of range is a no-op.
func (t *SumTree) Mark(i int) {
	if i < 0 || i >= t.n {
		return
	}
	p := max((t.size+i)>>1, 1) // a one-leaf tree re-reads its leaf into the root
	t.stale[p>>6] |= 1 << (p & 63)
	t.lo, t.hi = min(t.lo, p), max(t.hi, p)
}

// leafAt returns leaf i, or the zero padding past the owner's n leaves.
func (t *SumTree) leafAt(i int) float64 {
	if i < t.n {
		return t.leaf(i)
	}
	return 0
}

// eval returns node p's sum of its children as they stand.
func (t *SumTree) eval(p int) float64 {
	if c := 2 * p; c < t.size {
		return t.node[c] + t.node[c+1]
	}
	if t.size == 1 {
		return t.leafAt(0)
	}
	i := 2*p - t.size
	return t.leafAt(i) + t.leafAt(i+1)
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
				t.node[p] = t.eval(p)
				if q := p >> 1; q >= 1 {
					t.stale[q>>6] |= 1 << (q & 63)
				}
			}
		}
	}
	t.lo, t.hi = t.size, 0
}

// Fill rebuilds every internal node bottom-up from the owner's current
// leaves — the dense recomputation the incremental path is pinned against,
// and the restore path for trees over state rebuilt from a snapshot. It
// drops anything marked.
func (t *SumTree) Fill() {
	for p := max(t.size-1, 1); p >= 1; p-- {
		t.node[p] = t.eval(p)
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
