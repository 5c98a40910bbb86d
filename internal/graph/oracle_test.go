package graph

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refGraph is the map-based adjacency store the flat sorted slices
// replaced, kept as the differential oracle: per-node endpoint→weight maps,
// sorted afresh on every adjacency read.
type refGraph struct {
	n   int
	out []map[int]float64
	in  []map[int]float64
}

func newRefGraph(n int) *refGraph {
	return &refGraph{n: n, out: make([]map[int]float64, n), in: make([]map[int]float64, n)}
}

func (g *refGraph) valid(v int) bool { return v >= 0 && v < g.n }

func (g *refGraph) SetEdge(u, v int, w float64) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("out of range")
	}
	if u == v {
		return fmt.Errorf("self-loop")
	}
	if g.out[u] == nil {
		g.out[u] = make(map[int]float64)
	}
	if g.in[v] == nil {
		g.in[v] = make(map[int]float64)
	}
	g.out[u][v] = w
	g.in[v][u] = w
	return nil
}

func (g *refGraph) AddEdgeBoth(u, v int, w float64) error {
	if err := g.SetEdge(u, v, w); err != nil {
		return err
	}
	return g.SetEdge(v, u, w)
}

func (g *refGraph) RemoveEdge(u, v int) {
	if !g.valid(u) || !g.valid(v) {
		return
	}
	delete(g.out[u], v)
	delete(g.in[v], u)
}

func (g *refGraph) Weight(u, v int) (float64, bool) {
	if !g.valid(u) {
		return 0, false
	}
	w, ok := g.out[u][v]
	return w, ok
}

func (g *refGraph) edges(m map[int]float64) []Edge {
	es := make([]Edge, 0, len(m))
	for v, w := range m {
		es = append(es, Edge{To: v, Weight: w})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	return es
}

func (g *refGraph) Clone() *refGraph {
	c := newRefGraph(g.n)
	for u, m := range g.out {
		for v, w := range m {
			_ = c.SetEdge(u, v, w)
		}
	}
	return c
}

// sameEdges compares edge lists bitwise; nil and empty are equal.
func sameEdges(a, b []Edge) bool {
	return slices.EqualFunc(a, b, func(x, y Edge) bool {
		return x.To == y.To && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

// checkAgainst compares every read of g with the oracle, over the valid
// node range plus out-of-range probes.
func checkAgainst(t *testing.T, step int, g *Graph, ref *refGraph) {
	t.Helper()
	edges := 0
	for u := -1; u <= ref.n; u++ {
		if u >= 0 && u < ref.n {
			if want := ref.edges(ref.out[u]); !sameEdges(g.Out(u), want) {
				t.Fatalf("step %d: Out(%d) = %v, want %v", step, u, g.Out(u), want)
			}
			if want := ref.edges(ref.in[u]); !sameEdges(g.In(u), want) {
				t.Fatalf("step %d: In(%d) = %v, want %v", step, u, g.In(u), want)
			}
			if g.OutDegree(u) != len(ref.out[u]) || g.InDegree(u) != len(ref.in[u]) {
				t.Fatalf("step %d: degrees of %d = %d/%d, want %d/%d", step, u,
					g.OutDegree(u), g.InDegree(u), len(ref.out[u]), len(ref.in[u]))
			}
			edges += len(ref.out[u])
		} else if g.Out(u) != nil || g.In(u) != nil || g.OutDegree(u) != 0 || g.InDegree(u) != 0 {
			t.Fatalf("step %d: out-of-range node %d has adjacency", step, u)
		}
		for v := -1; v <= ref.n; v++ {
			w, ok := g.Weight(u, v)
			rw, rok := ref.Weight(u, v)
			if ok != rok || math.Float64bits(w) != math.Float64bits(rw) || g.HasEdge(u, v) != rok {
				t.Fatalf("step %d: Weight(%d,%d) = %v,%v want %v,%v", step, u, v, w, ok, rw, rok)
			}
		}
	}
	if g.NumEdges() != edges {
		t.Fatalf("step %d: NumEdges = %d, want %d", step, g.NumEdges(), edges)
	}
}

// TestGraphMatchesMapOracle drives random SetEdge / AddEdgeBoth /
// RemoveEdge sequences (weight overwrites, invalid endpoints, self-loops,
// removals of absent edges) through the flat store and the map oracle and
// compares every read after every step, plus Clone independence.
func TestGraphMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		const n = 9
		g, ref := New(n), newRefGraph(n)
		var clone *Graph
		var refClone *refGraph
		node := func() int { return rng.Intn(n+2) - 1 } // includes -1 and n
		for step := 0; step < 600; step++ {
			u, v := node(), node()
			w := float64(rng.Intn(4)) / 2
			switch op := rng.Intn(10); {
			case op < 5:
				if err, rerr := g.SetEdge(u, v, w), ref.SetEdge(u, v, w); (err == nil) != (rerr == nil) {
					t.Fatalf("seed %d step %d: SetEdge(%d,%d) err %v, oracle %v", seed, step, u, v, err, rerr)
				}
			case op < 7:
				if err, rerr := g.AddEdgeBoth(u, v, w), ref.AddEdgeBoth(u, v, w); (err == nil) != (rerr == nil) {
					t.Fatalf("seed %d step %d: AddEdgeBoth(%d,%d) err %v, oracle %v", seed, step, u, v, err, rerr)
				}
			default:
				g.RemoveEdge(u, v)
				ref.RemoveEdge(u, v)
			}
			checkAgainst(t, step, g, ref)
			if step == 300 {
				clone, refClone = g.Clone(), ref.Clone()
			}
		}
		// The clone kept the state at step 300 while the original moved on,
		// and mutating it now leaves the original untouched.
		checkAgainst(t, -1, clone, refClone)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					_ = clone.SetEdge(u, v, 9)
				}
			}
		}
		checkAgainst(t, -2, g, ref)
	}
}

// edgeDigest hashes a graph's full adjacency (Out lists in node order).
func edgeDigest(g *Graph) string {
	h := fnv.New64a()
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(u) {
			fmt.Fprintf(h, "%d>%d:%x;", u, e.To, math.Float64bits(e.Weight))
		}
	}
	return fmt.Sprintf("%d/%x", g.NumEdges(), h.Sum64())
}

// TestGeneratorEdgeSetsPinned pins the generators' edge sets for fixed
// seeds. The digests were recorded with the map-based store, so they prove
// the flat store consumes identical random draws and yields identical
// graphs. The 20k-node BA case (recorded with the per-edge sorted-insert
// builder) reaches hub degrees in the hundreds, so it pins the one-pass
// adjacency fill where a hub's list is long. The digest covers only
// out-edges, so each graph's In lists must also mirror its Out lists.
func TestGeneratorEdgeSetsPinned(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Graph
		want string
	}{
		{"BA", func() *Graph { return BarabasiAlbert(sim.NewRNG(11), 500, 3) }, "2988/7f3f6e57682475cd"},
		{"BA hubs", func() *Graph { return BarabasiAlbert(sim.NewRNG(11), 20000, 4) }, "159980/9ebf364e9ed34261"},
		{"WS", func() *Graph { return WattsStrogatz(sim.NewRNG(12), 300, 6, 0.2) }, "1800/c09211a8ae640ef1"},
		{"ER", func() *Graph { return ErdosRenyi(sim.NewRNG(13), 120, 0.05) }, "696/3dbc83f8d8237bb3"},
	}
	for _, tc := range cases {
		g := tc.gen()
		if got := edgeDigest(g); got != tc.want {
			t.Errorf("%s edge digest = %s, want %s", tc.name, got, tc.want)
		}
		if u, ok := inMirrorsOut(g); !ok {
			t.Errorf("%s: In lists do not mirror Out lists at node %d", tc.name, u)
		}
	}
}

// inMirrorsOut reports whether every edge u->v with weight w appears in
// In(v) as (u, w), and the in-degrees sum to the edge count; on failure it
// returns the first node whose out-edges are not mirrored.
func inMirrorsOut(g *Graph) (int, bool) {
	in := 0
	for u := 0; u < g.N(); u++ {
		in += g.InDegree(u)
		for _, e := range g.Out(u) {
			es := g.In(e.To)
			i, ok := search(es, u)
			if !ok || math.Float64bits(es[i].Weight) != math.Float64bits(e.Weight) {
				return u, false
			}
		}
	}
	return -1, in == g.NumEdges()
}

// TestOutInAllocFree pins the adjacency reads at zero allocations: they
// return the stored slices.
func TestOutInAllocFree(t *testing.T) {
	g := BarabasiAlbert(sim.NewRNG(3), 200, 3)
	var sink []Edge
	if a := testing.AllocsPerRun(100, func() { sink = g.Out(7); sink = g.In(7) }); a != 0 {
		t.Fatalf("Out/In allocate %v per call", a)
	}
	_ = sink
}
