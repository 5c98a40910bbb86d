package graph

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// build flattens hand-written adjacency lists (each ascending) into a graph.
func build(adj ...[]int32) *Graph {
	edges := 0
	for _, a := range adj {
		edges += len(a)
	}
	return flatten(adj, edges)
}

// must unwraps a generator's result; the tests' graphs all fit the int32
// index.
func must(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// The structural measures below serve the generator property tests only.

// bfs returns hop distances from src along out-edges; unreachable nodes get
// -1.
func bfs(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// components returns the weakly connected component id of every node and
// the number of components, by union-find over every edge.
func components(g *Graph) (ids []int, count int) {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			parent[find(int(v))] = find(u)
		}
	}
	ids = make([]int, g.N())
	label := map[int]int{}
	for u := range ids {
		r := find(u)
		if _, ok := label[r]; !ok {
			label[r] = len(label)
		}
		ids[u] = label[r]
	}
	return ids, len(label)
}

// clustering returns the mean local clustering coefficient, treating the
// graph as undirected (an edge in either direction counts).
func clustering(g *Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	nbrs := make([][]int32, g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			nbrs[u] = append(nbrs[u], v)
			nbrs[v] = append(nbrs[v], int32(u))
		}
	}
	und := func(a, b int32) bool { return g.HasEdge(int(a), int(b)) || g.HasEdge(int(b), int(a)) }
	total := 0.0
	for _, ns := range nbrs {
		slices.Sort(ns)
		ns = slices.Compact(ns)
		k := len(ns)
		if k < 2 {
			continue
		}
		links := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if und(ns[i], ns[j]) {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(k*(k-1))
	}
	return total / float64(g.N())
}

// averagePathLength returns the mean finite BFS distance over all ordered
// pairs; it returns 0 when no pair is reachable.
func averagePathLength(g *Graph) float64 {
	sum, count := 0.0, 0
	for s := 0; s < g.N(); s++ {
		for _, d := range bfs(g, s) {
			if d > 0 {
				sum += float64(d)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := build([]int32{1, 2}, nil, nil, []int32{0})
	if g.N() != 4 || g.NumEdges() != 3 {
		t.Fatalf("N = %d, NumEdges = %d", g.N(), g.NumEdges())
	}
	if nb := g.Neighbors(0); !slices.Equal(nb, []int32{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	if len(g.Neighbors(1)) != 0 || len(g.Neighbors(3)) != 1 {
		t.Fatalf("degrees: %d, %d", len(g.Neighbors(1)), len(g.Neighbors(3)))
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(3, 0) || g.HasEdge(2, 0) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge disagrees with the lists")
	}
	for _, uv := range [][2]int{{-1, 0}, {4, 0}, {0, -1}, {0, 4}, {0, 1 << 32}} {
		if g.HasEdge(uv[0], uv[1]) {
			t.Fatalf("out-of-range HasEdge%v = true", uv)
		}
	}
	if g.Neighbors(-1) != nil || g.Neighbors(4) != nil {
		t.Fatal("out-of-range Neighbors not nil")
	}
	// Appending to a returned list copies; it cannot overwrite the next one.
	_ = append(g.Neighbors(0), 9)
	if g.Neighbors(3)[0] != 0 {
		t.Fatal("appending to Neighbors(0) overwrote node 3's list")
	}
	var zero Graph
	if zero.N() != 0 || zero.NumEdges() != 0 || zero.Neighbors(0) != nil || zero.HasEdge(0, 0) {
		t.Fatal("zero Graph is not empty")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := sim.NewRNG(1)
	n, p := 100, 0.1
	g := must(ErdosRenyi(rng, n, p))
	expected := float64(n*(n-1)) * p
	got := float64(g.NumEdges())
	if got < expected*0.85 || got > expected*1.15 {
		t.Fatalf("ER edges = %v, want ~%v", got, expected)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := sim.NewRNG(2)
	if g := must(ErdosRenyi(rng, 10, 0)); g.NumEdges() != 0 {
		t.Fatal("p=0 not empty")
	}
	if g := must(ErdosRenyi(rng, 10, 1)); g.NumEdges() != 90 {
		t.Fatalf("p=1 not complete: %d", g.NumEdges())
	}
	if g := must(ErdosRenyi(rng, -3, 1)); g.N() != 0 || g.NumEdges() != 0 {
		t.Fatalf("negative n: N = %d, NumEdges = %d", g.N(), g.NumEdges())
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	rng := sim.NewRNG(3)
	n, m := 500, 3
	g := must(BarabasiAlbert(rng, n, m))
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	// Connectivity.
	_, comps := components(g)
	if comps != 1 {
		t.Fatalf("BA graph has %d components, want 1", comps)
	}
	// Heavy tail: max degree far above m.
	maxDeg := 0
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, len(g.Neighbors(u)))
	}
	if maxDeg < 5*m {
		t.Fatalf("max degree %d does not look heavy-tailed (m=%d)", maxDeg, m)
	}
	// Every late node has degree >= m.
	for u := m + 1; u < n; u++ {
		if d := len(g.Neighbors(u)); d < m {
			t.Fatalf("node %d has degree %d < m", u, d)
		}
	}
}

func TestBarabasiAlbertSymmetric(t *testing.T) {
	rng := sim.NewRNG(4)
	g := must(BarabasiAlbert(rng, 100, 2))
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(int(v), u) {
				t.Fatalf("asymmetric edge %d->%d", u, v)
			}
		}
	}
}

func TestWattsStrogatzStructure(t *testing.T) {
	rng := sim.NewRNG(5)
	g := must(WattsStrogatz(rng, 200, 6, 0.1))
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	_, comps := components(g)
	if comps != 1 {
		t.Fatalf("WS graph disconnected: %d components", comps)
	}
	// Small-world: high clustering vs an ER graph of the same density, and
	// paths far shorter than the unrewired lattice's.
	cc := clustering(g)
	er := must(ErdosRenyi(rng, 200, float64(g.NumEdges())/float64(200*199)))
	ccER := clustering(er)
	if cc <= ccER {
		t.Fatalf("WS clustering %v not above ER %v", cc, ccER)
	}
	apl, lattice := averagePathLength(g), averagePathLength(must(WattsStrogatz(rng, 200, 6, 0)))
	if apl > lattice/2 {
		t.Fatalf("WS path length %v not well below the lattice's %v", apl, lattice)
	}
}

func TestWattsStrogatzNoRewire(t *testing.T) {
	rng := sim.NewRNG(6)
	g := must(WattsStrogatz(rng, 10, 4, 0))
	// Pure lattice: every node has degree exactly 4.
	for u := 0; u < 10; u++ {
		if d := len(g.Neighbors(u)); d != 4 {
			t.Fatalf("lattice degree of %d = %d, want 4", u, d)
		}
	}
}

// TestRingAndComplete checks the generators' degenerate shapes: an
// unrewired Watts–Strogatz lattice with k=2 is the ring, and Erdős–Rényi
// with p=1 is the complete directed graph.
func TestRingAndComplete(t *testing.T) {
	r := must(WattsStrogatz(sim.NewRNG(7), 5, 2, 0))
	for u := 0; u < 5; u++ {
		want := []int32{int32((u + 1) % 5), int32((u + 4) % 5)}
		slices.Sort(want)
		if !slices.Equal(r.Neighbors(u), want) {
			t.Fatalf("ring neighbours of %d = %v, want %v", u, r.Neighbors(u), want)
		}
	}
	c := must(ErdosRenyi(sim.NewRNG(8), 4, 1))
	if c.NumEdges() != 12 {
		t.Fatalf("complete edges = %d", c.NumEdges())
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if c.HasEdge(u, v) != (u != v) {
				t.Fatalf("complete HasEdge(%d,%d) = %v", u, v, c.HasEdge(u, v))
			}
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := must(WattsStrogatz(sim.NewRNG(9), 6, 2, 0)) // the 6-ring
	d := bfs(g, 0)
	want := []int{0, 1, 2, 3, 2, 1}
	if !slices.Equal(d, want) {
		t.Fatalf("BFS dist = %v, want %v", d, want)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := build([]int32{1}, nil, nil)
	d := bfs(g, 0)
	if d[2] != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d[2])
	}
	// Directed: node 1 cannot reach 0.
	d1 := bfs(g, 1)
	if d1[0] != -1 {
		t.Fatal("BFS ignored direction")
	}
	dBad := bfs(g, 99)
	for _, v := range dBad {
		if v != -1 {
			t.Fatal("invalid source produced distances")
		}
	}
}

func TestComponents(t *testing.T) {
	g := build([]int32{1}, nil, []int32{3}, nil, nil)
	ids, count := components(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if ids[0] != ids[1] || ids[2] != ids[3] || ids[0] == ids[2] || ids[4] == ids[0] {
		t.Fatalf("component ids = %v", ids)
	}
}

func TestComponentsWeaklyConnected(t *testing.T) {
	// A directed chain is weakly connected even though not strongly.
	g := build([]int32{1}, nil, []int32{1})
	_, count := components(g)
	if count != 1 {
		t.Fatalf("weak components = %d, want 1", count)
	}
}

func TestClusteringTriangle(t *testing.T) {
	g := build([]int32{1, 2}, []int32{0, 2}, []int32{0, 1})
	if cc := clustering(g); cc != 1 {
		t.Fatalf("triangle clustering = %v, want 1", cc)
	}
}

func TestClusteringPath(t *testing.T) {
	g := build([]int32{1}, []int32{0, 2}, []int32{1})
	if cc := clustering(g); cc != 0 {
		t.Fatalf("path clustering = %v, want 0", cc)
	}
}

func TestAveragePathLength(t *testing.T) {
	g := must(WattsStrogatz(sim.NewRNG(10), 10, 2, 0)) // the 10-ring
	apl := averagePathLength(g)
	// Ring of 10: distances 1,1,2,2,3,3,4,4,5 mean = 25/9.
	want := 25.0 / 9.0
	if apl < want-1e-9 || apl > want+1e-9 {
		t.Fatalf("APL = %v, want %v", apl, want)
	}
	if averagePathLength(build(nil)) != 0 {
		t.Fatal("singleton APL != 0")
	}
}

// TestEdgeCounts checks the closed-form edge counts against the generators
// and the int32 bound: an oversize graph is an error returned before any
// allocation (the BA case would otherwise ask for a 19.5 GB urn).
func TestEdgeCounts(t *testing.T) {
	if got, want := BarabasiAlbertEdges(500, 3), must(BarabasiAlbert(sim.NewRNG(1), 500, 3)).NumEdges(); got != want {
		t.Fatalf("BarabasiAlbertEdges = %d, generator made %d", got, want)
	}
	if got, want := BarabasiAlbertEdges(2, 5), must(BarabasiAlbert(sim.NewRNG(1), 2, 5)).NumEdges(); got != want {
		t.Fatalf("clamped BarabasiAlbertEdges = %d, generator made %d", got, want)
	}
	for _, nk := range [][2]int{{300, 6}, {10, 5}, {4, 9}, {1, 1}} {
		if got, want := WattsStrogatzEdges(nk[0], nk[1]), must(WattsStrogatz(sim.NewRNG(1), nk[0], nk[1], 0.3)).NumEdges(); got != want {
			t.Fatalf("WattsStrogatzEdges%v = %d, generator made %d", nk, got, want)
		}
	}
	if got := BarabasiAlbertEdges(70000, 65000); got <= math.MaxInt32 {
		t.Fatalf("BarabasiAlbertEdges(70000, 65000) = %d, want above MaxInt32", got)
	}
	if BarabasiAlbertEdges(math.MaxInt32+1, 1) != math.MaxInt || WattsStrogatzEdges(math.MaxInt, math.MaxInt) != math.MaxInt {
		t.Fatal("oversize node counts must saturate")
	}
	for name, gen := range map[string]func() (*Graph, error){
		"barabasi-albert": func() (*Graph, error) { return BarabasiAlbert(sim.NewRNG(1), 70000, 65000) },
		"watts-strogatz":  func() (*Graph, error) { return WattsStrogatz(sim.NewRNG(1), 1<<20, 1<<12, 0) },
		"erdos-renyi":     func() (*Graph, error) { return ErdosRenyi(sim.NewRNG(1), math.MaxInt32+1, 0) },
	} {
		if g, err := gen(); g != nil || err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: oversize graph gave %v, %v", name, g, err)
		}
	}
}
