package graph

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refGraph is a map-based adjacency store, the differential oracle for the
// generators: per-node neighbour sets, sorted afresh on every read.
type refGraph struct {
	n   int
	out []map[int]bool
}

func newRefGraph(n int) *refGraph {
	g := &refGraph{n: n, out: make([]map[int]bool, n)}
	for u := range g.out {
		g.out[u] = map[int]bool{}
	}
	return g
}

func (g *refGraph) link(u, v int)         { g.out[u][v], g.out[v][u] = true, true }
func (g *refGraph) unlink(u, v int)       { delete(g.out[u], v); delete(g.out[v], u) }
func (g *refGraph) has(u, v int) bool     { return g.out[u][v] }
func (g *refGraph) neighbors(u int) []int { return slices.Sorted(maps.Keys(g.out[u])) }

// The reference generators draw from rng in the order the generators'
// definitions state, over the map store.

func refErdosRenyi(rng *sim.RNG, n int, p float64) *refGraph {
	g := newRefGraph(max(n, 0))
	for u := 0; u < g.n; u++ {
		for v := 0; v < g.n; v++ {
			if u != v && rng.Bool(p) {
				g.out[u][v] = true
			}
		}
	}
	return g
}

func refBarabasiAlbert(rng *sim.RNG, n, m int) *refGraph {
	m = max(m, 1)
	n = max(n, m+1)
	g := newRefGraph(n)
	var urn []int // both endpoints of every edge, in creation order
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			g.link(u, v)
			urn = append(urn, u, v)
		}
	}
	for u := m + 1; u < n; u++ {
		size := len(urn)
		for chosen := 0; chosen < m; {
			if t := urn[rng.Intn(size)]; !g.has(u, t) {
				g.link(u, t)
				urn = append(urn, u, t)
				chosen++
			}
		}
	}
	return g
}

func refWattsStrogatz(rng *sim.RNG, n, k int, beta float64) *refGraph {
	n = max(n, 3)
	k = min(max(k, 2), n-1)
	k -= k % 2
	g := newRefGraph(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			g.link(u, (u+j)%n)
		}
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if !g.has(u, v) || !rng.Bool(beta) {
				continue
			}
			for tries := 0; tries < 32; tries++ {
				w := rng.Intn(n)
				if w == u || g.has(u, w) {
					continue
				}
				g.unlink(u, v)
				g.link(u, w)
				break
			}
		}
	}
	return g
}

// checkAgainst compares every read of g with the oracle, over the valid
// node range plus out-of-range probes.
func checkAgainst(t *testing.T, name string, g *Graph, ref *refGraph) {
	t.Helper()
	if g.N() != ref.n {
		t.Fatalf("%s: N = %d, want %d", name, g.N(), ref.n)
	}
	edges := 0
	for u := -1; u <= ref.n; u++ {
		if u < 0 || u == ref.n {
			if g.Neighbors(u) != nil {
				t.Fatalf("%s: out-of-range node %d has neighbours", name, u)
			}
		} else {
			want := ref.neighbors(u)
			got := make([]int, 0, len(want))
			for _, v := range g.Neighbors(u) {
				got = append(got, int(v))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, u, got, want)
			}
			edges += len(want)
		}
		for v := -1; v <= ref.n; v++ {
			want := u >= 0 && u < ref.n && ref.has(u, v)
			if g.HasEdge(u, v) != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", name, u, v, !want, want)
			}
		}
	}
	if g.NumEdges() != edges {
		t.Fatalf("%s: NumEdges = %d, want %d", name, g.NumEdges(), edges)
	}
}

// TestGraphMatchesMapOracle runs each generator against its map-based
// reference over several seeds and shapes, clamped ones included (n below
// m+1, odd or oversized k, n below 3, negative n): the int32 adjacency must
// hold exactly the reference's edges, read through every accessor.
func TestGraphMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, nm := range [][2]int{{60, 1}, {60, 3}, {3, 5}, {25, 24}} {
			name := fmt.Sprintf("BA seed %d n=%d m=%d", seed, nm[0], nm[1])
			checkAgainst(t, name, must(BarabasiAlbert(sim.NewRNG(seed), nm[0], nm[1])),
				refBarabasiAlbert(sim.NewRNG(seed), nm[0], nm[1]))
		}
		for _, nk := range [][2]int{{60, 4}, {60, 7}, {2, 2}, {9, 12}} {
			for _, beta := range []float64{0, 0.3, 1} {
				name := fmt.Sprintf("WS seed %d n=%d k=%d beta=%v", seed, nk[0], nk[1], beta)
				checkAgainst(t, name, must(WattsStrogatz(sim.NewRNG(seed), nk[0], nk[1], beta)),
					refWattsStrogatz(sim.NewRNG(seed), nk[0], nk[1], beta))
			}
		}
		for _, n := range []int{40, 1, 0, -2} {
			name := fmt.Sprintf("ER seed %d n=%d", seed, n)
			checkAgainst(t, name, must(ErdosRenyi(sim.NewRNG(seed), n, 0.1)), refErdosRenyi(sim.NewRNG(seed), n, 0.1))
		}
	}
}

// edgeDigest hashes a graph's full adjacency in node order. The weight
// field is the unit weight's bits, written as a constant: the digests were
// recorded when every edge carried a float64 weight of 1.
func edgeDigest(g *Graph) string {
	h := fnv.New64a()
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			fmt.Fprintf(h, "%d>%d:3ff0000000000000;", u, v)
		}
	}
	return fmt.Sprintf("%d/%x", g.NumEdges(), h.Sum64())
}

// TestGeneratorEdgeSetsPinned pins the generators' edge sets for fixed
// seeds. The digests were recorded with the map-based store, so they prove
// the int32 adjacency consumes identical random draws and yields identical
// graphs. The 20k-node BA case (recorded with the per-edge sorted-insert
// builder) reaches hub degrees in the hundreds, so it pins the one-pass
// adjacency fill where a hub's list is long. Each graph must also be well
// formed: offsets from 0 to NumEdges, every list strictly ascending, in
// range and free of self-loops.
func TestGeneratorEdgeSetsPinned(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Graph
		want string
	}{
		{"BA", func() *Graph { return must(BarabasiAlbert(sim.NewRNG(11), 500, 3)) }, "2988/7f3f6e57682475cd"},
		{"BA hubs", func() *Graph { return must(BarabasiAlbert(sim.NewRNG(11), 20000, 4)) }, "159980/9ebf364e9ed34261"},
		{"WS", func() *Graph { return must(WattsStrogatz(sim.NewRNG(12), 300, 6, 0.2)) }, "1800/c09211a8ae640ef1"},
		{"ER", func() *Graph { return must(ErdosRenyi(sim.NewRNG(13), 120, 0.05)) }, "696/3dbc83f8d8237bb3"},
	}
	for _, tc := range cases {
		g := tc.gen()
		if got := edgeDigest(g); got != tc.want {
			t.Errorf("%s edge digest = %s, want %s", tc.name, got, tc.want)
		}
		if u, ok := wellFormed(g); !ok {
			t.Errorf("%s: adjacency malformed at node %d", tc.name, u)
		}
	}
}

// wellFormed reports whether g's offsets run from 0 to NumEdges without
// decreasing and every list is strictly ascending, in range and free of
// self-loops; on failure it returns the first offending node.
func wellFormed(g *Graph) (int, bool) {
	if g.off[0] != 0 || int(g.off[g.N()]) != g.NumEdges() {
		return -1, false
	}
	for u := 0; u < g.N(); u++ {
		if g.off[u] > g.off[u+1] {
			return u, false
		}
		nb := g.Neighbors(u)
		for i, v := range nb {
			if v < 0 || int(v) >= g.N() || int(v) == u || (i > 0 && nb[i-1] >= v) {
				return u, false
			}
		}
	}
	return -1, true
}

// TestNeighborsAllocFree pins the adjacency read at zero allocations: it
// returns the stored range.
func TestNeighborsAllocFree(t *testing.T) {
	g := must(BarabasiAlbert(sim.NewRNG(3), 200, 3))
	var sink []int32
	if a := testing.AllocsPerRun(100, func() { sink = g.Neighbors(7) }); a != 0 {
		t.Fatalf("Neighbors allocates %v per call", a)
	}
	_ = sink
}
