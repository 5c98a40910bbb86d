// Package graph builds the friendship topologies of the reproduction: the
// classic random-graph generators (Erdős–Rényi, Barabási–Albert,
// Watts–Strogatz), each of which writes the immutable int32 adjacency that
// candidate sampling reads.
package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Graph is an immutable unweighted graph over nodes 0..N-1: off[u]..off[u+1]
// is u's range in ids, and each node's list is ascending. The
// Barabási–Albert and Watts–Strogatz topologies are symmetric (every edge is
// stored in both directions); Erdős–Rényi's is directed.
type Graph struct {
	off []int32
	ids []int32
}

// N returns the number of nodes.
func (g *Graph) N() int { return max(len(g.off)-1, 0) }

// Neighbors returns u's out-neighbours, ascending (nil if u is out of
// range). The slice is the graph's own storage (shared; read-only); its
// capacity is clipped, so appending to it copies.
func (g *Graph) Neighbors(u int) []int32 {
	if u < 0 || u >= g.N() {
		return nil
	}
	lo, hi := g.off[u], g.off[u+1]
	return g.ids[lo:hi:hi]
}

// HasEdge reports whether u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if v < 0 || v >= g.N() {
		return false
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	return ok
}

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int { return len(g.ids) }

// ErdosRenyi generates a directed G(n, p) graph (no self-loops). Its edge
// count is random, so it checks the int32 bound as it appends.
func ErdosRenyi(rng *sim.RNG, n int, p float64) (*Graph, error) {
	if n > math.MaxInt32 {
		return nil, tooLarge("erdos-renyi", n)
	}
	n = max(n, 0)
	g := &Graph{off: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(p) {
				if len(g.ids) == math.MaxInt32 {
					return nil, tooLarge("erdos-renyi", n)
				}
				g.ids = append(g.ids, int32(v))
			}
		}
		g.off[u+1] = int32(len(g.ids))
	}
	return g, nil
}

// tooLarge is the error of a generator whose graph does not fit the int32
// index: neither its node count nor its directed edge count may exceed
// math.MaxInt32. BarabasiAlbert and WattsStrogatz know the count up front
// and return it before allocating.
func tooLarge(name string, n int) error {
	return fmt.Errorf("graph: %s graph over %d nodes does not fit the int32 index", name, n)
}

// BarabasiAlbert generates an undirected (symmetric) preferential-attachment
// graph: each new node attaches to m existing nodes with probability
// proportional to their degree. The first m+1 nodes form a clique.
// The result has the heavy-tailed degree distribution typical of social
// networks, which is the graph family the reproduced experiments default to.
// It returns an error when BarabasiAlbertEdges(n, m) exceeds
// math.MaxInt32.
func BarabasiAlbert(rng *sim.RNG, n, m int) (*Graph, error) {
	n, m = baShape(n, m)
	edges := BarabasiAlbertEdges(n, m)
	if edges > math.MaxInt32 {
		return nil, tooLarge("barabasi-albert", n)
	}
	// ends holds both endpoints of every edge in creation order, the later
	// node first. Drawing a uniform entry picks a node with probability
	// proportional to its degree, and it doubles as the edge record the
	// adjacency is built from.
	ends := make([]int32, 0, edges)
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
	return symmetric(n, ends), nil
}

// baShape applies BarabasiAlbert's clamps: m >= 1 and n >= m+1.
func baShape(n, m int) (int, int) {
	m = max(m, 1)
	return max(n, m+1), m
}

// BarabasiAlbertEdges returns the directed edge count of a
// BarabasiAlbert(·, n, m) graph, 2·(m(m+1)/2 + (n−m−1)·m) after its clamps,
// or math.MaxInt when n alone exceeds math.MaxInt32 (so the product cannot
// overflow).
func BarabasiAlbertEdges(n, m int) int {
	n, m = baShape(n, m)
	if n > math.MaxInt32 {
		return math.MaxInt
	}
	return 2 * (m*(m+1)/2 + (n-m-1)*m)
}

// symmetric builds the undirected graph over n nodes whose edges ends lists
// as (later, earlier) pairs, in nondecreasing order of the later node. The
// adjacency is filled in one pass: a node's list is its earlier neighbours
// (its own edges, sorted when they are complete) followed by the later
// nodes that chose it, which arrive ascending.
func symmetric(n int, ends []int32) *Graph {
	off := make([]int32, n+1)
	for _, x := range ends {
		off[x+1]++
	}
	for x := 0; x < n; x++ {
		off[x+1] += off[x]
	}
	at := slices.Clone(off[:n])
	ids := make([]int32, len(ends))
	for k := 0; k < len(ends); k += 2 {
		hi, lo := ends[k], ends[k+1]
		ids[at[hi]] = lo
		at[hi]++
		ids[at[lo]] = hi
		at[lo]++
		if k+2 == len(ends) || ends[k+2] != hi {
			slices.Sort(ids[off[hi]:at[hi]])
		}
	}
	return &Graph{off: off, ids: ids}
}

// WattsStrogatz generates an undirected small-world graph: a ring lattice
// where each node connects to k nearest neighbors (k rounded down to even),
// then each edge is rewired with probability beta. It returns an error
// when WattsStrogatzEdges(n, k) exceeds math.MaxInt32.
func WattsStrogatz(rng *sim.RNG, n, k int, beta float64) (*Graph, error) {
	n, k = wsShape(n, k)
	if WattsStrogatzEdges(n, k) > math.MaxInt32 {
		return nil, tooLarge("watts-strogatz", n)
	}
	// adj[u] is u's neighbour list, kept ascending while edges are rewired.
	// The lattice lists share one backing array, each clipped, so a list
	// that grows past k moves out on its own.
	lattice := make([]int32, n*k)
	adj := make([][]int32, n)
	for u := range adj {
		a := lattice[u*k : u*k : (u+1)*k]
		for j := 1; j <= k/2; j++ {
			a = append(a, int32((u+j)%n), int32((u-j+n)%n))
		}
		slices.Sort(a)
		adj[u] = a
	}
	has := func(u, v int) bool {
		_, ok := slices.BinarySearch(adj[u], int32(v))
		return ok
	}
	link := func(u, v int) {
		i, _ := slices.BinarySearch(adj[u], int32(v))
		adj[u] = slices.Insert(adj[u], i, int32(v))
	}
	unlink := func(u, v int) {
		i, _ := slices.BinarySearch(adj[u], int32(v))
		adj[u] = slices.Delete(adj[u], i, i+1)
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if !has(u, v) || !rng.Bool(beta) {
				continue
			}
			// Rewire u--v to u--w for a uniformly random non-neighbor w.
			for tries := 0; tries < 32; tries++ {
				w := rng.Intn(n)
				if w == u || has(u, w) {
					continue
				}
				unlink(u, v)
				unlink(v, u)
				link(u, w)
				link(w, u)
				break
			}
		}
	}
	return flatten(adj, n*k), nil
}

// flatten builds the graph whose node u has the ascending list adj[u];
// edges is the total length of the lists.
func flatten(adj [][]int32, edges int) *Graph {
	g := &Graph{off: make([]int32, len(adj)+1), ids: make([]int32, 0, edges)}
	for u, a := range adj {
		g.ids = append(g.ids, a...)
		g.off[u+1] = int32(len(g.ids))
	}
	return g
}

// wsShape applies WattsStrogatz's clamps: n >= 3, and k in [2, n-1],
// rounded down to even.
func wsShape(n, k int) (int, int) {
	n = max(n, 3)
	k = min(max(k, 2), n-1)
	return n, k - k%2
}

// WattsStrogatzEdges returns the directed edge count of a
// WattsStrogatz(·, n, k, ·) graph, n·k after its clamps (rewiring keeps the
// count), or math.MaxInt when n alone exceeds math.MaxInt32.
func WattsStrogatzEdges(n, k int) int {
	n, k = wsShape(n, k)
	if n > math.MaxInt32 {
		return math.MaxInt
	}
	return n * k
}
