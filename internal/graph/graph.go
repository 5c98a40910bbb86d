// Package graph implements the directed weighted graph substrate used for
// social networks, trust overlays and feedback graphs throughout the
// reproduction: adjacency storage, classic random-graph generators
// (Erdős–Rényi, Barabási–Albert, Watts–Strogatz) and structural metrics.
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Edge is a weighted directed edge.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a directed weighted multigraph-free graph over nodes 0..N-1.
// Adding an edge that already exists overwrites its weight.
//
// Each node's out- and in-edges are flat slices kept sorted by endpoint, so
// adjacency reads are the stored slices themselves (no per-read sort or
// copy) and point queries binary-search.
type Graph struct {
	n   int
	out [][]Edge // out[u]: u's out-edges, ascending by destination
	in  [][]Edge // in[v]: v's in-edges, ascending by source (Edge.To holds the source)
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	g := &Graph{
		n:   n,
		out: make([][]Edge, n),
		in:  make([][]Edge, n),
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddNode appends a new isolated node and returns its id.
func (g *Graph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.n++
	return g.n - 1
}

func (g *Graph) valid(v int) bool { return v >= 0 && v < g.n }

// search returns the position of endpoint v in es (sorted by To): its index
// when present, else the index it would be inserted at.
func search(es []Edge, v int) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].To < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(es) && es[lo].To == v
}

// upsert sets the weight of endpoint v in es, inserting it in order when
// absent.
func upsert(es []Edge, v int, w float64) []Edge {
	i, ok := search(es, v)
	if ok {
		es[i].Weight = w
		return es
	}
	return slices.Insert(es, i, Edge{To: v, Weight: w})
}

// remove deletes endpoint v from es if present.
func remove(es []Edge, v int) []Edge {
	if i, ok := search(es, v); ok {
		return slices.Delete(es, i, i+1)
	}
	return es
}

// SetEdge adds or updates the directed edge u->v with weight w.
// It returns an error for out-of-range nodes or self-loops.
func (g *Graph) SetEdge(u, v int, w float64) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d rejected", u)
	}
	g.out[u] = upsert(g.out[u], v, w)
	g.in[v] = upsert(g.in[v], u, w)
	return nil
}

// AddEdgeBoth adds edges in both directions with the same weight.
func (g *Graph) AddEdgeBoth(u, v int, w float64) error {
	if err := g.SetEdge(u, v, w); err != nil {
		return err
	}
	return g.SetEdge(v, u, w)
}

// RemoveEdge deletes u->v if present.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.valid(u) || !g.valid(v) {
		return
	}
	g.out[u] = remove(g.out[u], v)
	g.in[v] = remove(g.in[v], u)
}

// HasEdge reports whether u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// Weight returns the weight of u->v and whether the edge exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	if !g.valid(u) {
		return 0, false
	}
	es := g.out[u]
	if i, ok := search(es, v); ok {
		return es[i].Weight, true
	}
	return 0, false
}

// OutDegree returns the out-degree of u (0 if out of range).
func (g *Graph) OutDegree(u int) int {
	if !g.valid(u) {
		return 0
	}
	return len(g.out[u])
}

// InDegree returns the in-degree of u (0 if out of range).
func (g *Graph) InDegree(u int) int {
	if !g.valid(u) {
		return 0
	}
	return len(g.in[u])
}

// Out returns u's out-edges sorted by destination. The slice is the graph's
// own storage (shared; read-only) and valid until the next mutation of u's
// out-edges; its capacity is clipped, so appending to it copies.
func (g *Graph) Out(u int) []Edge {
	if !g.valid(u) {
		return nil
	}
	return slices.Clip(g.out[u])
}

// In returns u's in-edges sorted by source (Edge.To holds the source). The
// slice is the graph's own storage (shared; read-only) and valid until the
// next mutation of u's in-edges; its capacity is clipped, so appending to it
// copies.
func (g *Graph) In(u int) []Edge {
	if !g.valid(u) {
		return nil
	}
	return slices.Clip(g.in[u])
}

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.out {
		total += len(es)
	}
	return total
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := range g.out {
		c.out[u] = slices.Clone(g.out[u])
		c.in[u] = slices.Clone(g.in[u])
	}
	return c
}

// ErdosRenyi generates a directed G(n, p) graph (no self-loops).
func ErdosRenyi(rng *sim.RNG, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(p) {
				_ = g.SetEdge(u, v, 1)
			}
		}
	}
	return g
}

// BarabasiAlbert generates an undirected (symmetric) preferential-attachment
// graph: each new node attaches to m existing nodes with probability
// proportional to their degree. The first m+1 nodes form a clique.
// The result has the heavy-tailed degree distribution typical of social
// networks, which is the graph family the reproduced experiments default to.
func BarabasiAlbert(rng *sim.RNG, n, m int) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	// ends holds both endpoints of every edge in creation order, the later
	// node first. Drawing a uniform entry picks a node with probability
	// proportional to its degree, and it doubles as the edge record the
	// adjacency is built from.
	ends := make([]int32, 0, 2*(m*(m+1)/2+(n-m-1)*m))
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			ends = append(ends, int32(u), int32(v))
		}
	}
	// picked[t] == u marks t as one of u's targets (u > m > 0, so the zero
	// value marks nothing).
	picked := make([]int32, n)
	for u := int32(m + 1); int(u) < n; u++ {
		urn := len(ends) // u's own edges join the urn only once all m are chosen
		for len(ends) < urn+2*m {
			if t := ends[rng.Intn(urn)]; picked[t] != u {
				picked[t] = u
				ends = append(ends, u, t)
			}
		}
	}
	return symmetric(n, ends)
}

// symmetric builds the unit-weight undirected graph over n nodes whose edges
// ends lists as (later, earlier) pairs, in nondecreasing order of the later
// node. All adjacency is filled in one pass into one backing array per
// direction: a node's list is its earlier neighbours (its own edges, sorted
// when they are complete) followed by the later nodes that chose it, which
// arrive ascending.
func symmetric(n int, ends []int32) *Graph {
	off := make([]int, n+1)
	for _, x := range ends {
		off[x+1]++
	}
	for x := 0; x < n; x++ {
		off[x+1] += off[x]
	}
	at := slices.Clone(off[:n])
	out := make([]Edge, len(ends))
	for k := 0; k < len(ends); k += 2 {
		hi, lo := ends[k], ends[k+1]
		out[at[hi]] = Edge{To: int(lo), Weight: 1}
		at[hi]++
		out[at[lo]] = Edge{To: int(hi), Weight: 1}
		at[lo]++
		if k+2 == len(ends) || ends[k+2] != hi {
			slices.SortFunc(out[off[hi]:at[hi]], func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		}
	}
	in := slices.Clone(out)
	g := New(n)
	for x := 0; x < n; x++ {
		lo, hi := off[x], off[x+1]
		g.out[x] = out[lo:hi:hi]
		g.in[x] = in[lo:hi:hi]
	}
	return g
}

// WattsStrogatz generates an undirected small-world graph: a ring lattice
// where each node connects to k nearest neighbors (k rounded down to even),
// then each edge is rewired with probability beta.
func WattsStrogatz(rng *sim.RNG, n, k int, beta float64) *Graph {
	if n < 3 {
		n = 3
	}
	if k < 2 {
		k = 2
	}
	if k >= n {
		k = n - 1
	}
	k -= k % 2
	g := New(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			_ = g.AddEdgeBoth(u, v, 1)
		}
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if !g.HasEdge(u, v) || !rng.Bool(beta) {
				continue
			}
			// Rewire u--v to u--w for a uniformly random non-neighbor w.
			for tries := 0; tries < 32; tries++ {
				w := rng.Intn(n)
				if w == u || g.HasEdge(u, w) {
					continue
				}
				g.RemoveEdge(u, v)
				g.RemoveEdge(v, u)
				_ = g.AddEdgeBoth(u, w, 1)
				break
			}
		}
	}
	return g
}

// Ring generates an undirected ring of n nodes.
func Ring(n int) *Graph {
	if n < 3 {
		n = 3
	}
	g := New(n)
	for u := 0; u < n; u++ {
		_ = g.AddEdgeBoth(u, (u+1)%n, 1)
	}
	return g
}

// Complete generates the complete directed graph on n nodes.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				_ = g.SetEdge(u, v, 1)
			}
		}
	}
	return g
}
