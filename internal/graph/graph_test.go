package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSetEdgeBasics(t *testing.T) {
	g := New(3)
	if err := g.SetEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("edge missing")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed edge appeared reversed")
	}
	w, ok := g.Weight(0, 1)
	if !ok || w != 2.5 {
		t.Fatalf("Weight = %v, %v", w, ok)
	}
	// Overwrite.
	if err := g.SetEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if w, _ := g.Weight(0, 1); w != 7 {
		t.Fatalf("overwrite failed: %v", w)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

func TestSetEdgeRejectsInvalid(t *testing.T) {
	g := New(2)
	if err := g.SetEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.SetEdge(0, 5, 1); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := g.SetEdge(-1, 0, 1); err == nil {
		t.Fatal("negative node accepted")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	_ = g.SetEdge(0, 1, 1)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("edge survived removal")
	}
	if g.InDegree(1) != 0 {
		t.Fatal("in-index not cleaned")
	}
	g.RemoveEdge(0, 99) // must not panic
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := New(4)
	_ = g.SetEdge(0, 1, 1)
	_ = g.SetEdge(0, 2, 1)
	_ = g.SetEdge(3, 0, 1)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Fatalf("degrees: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	out := g.Out(0)
	if len(out) != 2 || out[0].To != 1 || out[1].To != 2 {
		t.Fatalf("Out = %v (must be sorted)", out)
	}
	in := g.In(0)
	if len(in) != 1 || in[0].To != 3 {
		t.Fatalf("In = %v", in)
	}
}

func TestAddNode(t *testing.T) {
	g := New(2)
	id := g.AddNode()
	if id != 2 || g.N() != 3 {
		t.Fatalf("AddNode id=%d N=%d", id, g.N())
	}
	if err := g.SetEdge(0, id, 1); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	_ = g.SetEdge(0, 1, 2)
	c := g.Clone()
	_ = c.SetEdge(1, 2, 5)
	if g.HasEdge(1, 2) {
		t.Fatal("clone mutated original")
	}
	if w, _ := c.Weight(0, 1); w != 2 {
		t.Fatal("clone lost edge")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := sim.NewRNG(1)
	n, p := 100, 0.1
	g := ErdosRenyi(rng, n, p)
	expected := float64(n*(n-1)) * p
	got := float64(g.NumEdges())
	if got < expected*0.85 || got > expected*1.15 {
		t.Fatalf("ER edges = %v, want ~%v", got, expected)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := sim.NewRNG(2)
	if g := ErdosRenyi(rng, 10, 0); g.NumEdges() != 0 {
		t.Fatal("p=0 not empty")
	}
	if g := ErdosRenyi(rng, 10, 1); g.NumEdges() != 90 {
		t.Fatalf("p=1 not complete: %d", g.NumEdges())
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	rng := sim.NewRNG(3)
	n, m := 500, 3
	g := BarabasiAlbert(rng, n, m)
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	// Connectivity.
	_, comps := Components(g)
	if comps != 1 {
		t.Fatalf("BA graph has %d components, want 1", comps)
	}
	// Heavy tail: max degree far above m.
	maxDeg := 0
	for u := 0; u < n; u++ {
		if d := g.OutDegree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 5*m {
		t.Fatalf("max degree %d does not look heavy-tailed (m=%d)", maxDeg, m)
	}
	// Every late node has degree >= m.
	for u := m + 1; u < n; u++ {
		if g.OutDegree(u) < m {
			t.Fatalf("node %d has degree %d < m", u, g.OutDegree(u))
		}
	}
}

func TestBarabasiAlbertSymmetric(t *testing.T) {
	rng := sim.NewRNG(4)
	g := BarabasiAlbert(rng, 100, 2)
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Out(u) {
			if !g.HasEdge(e.To, u) {
				t.Fatalf("asymmetric edge %d->%d", u, e.To)
			}
		}
	}
}

func TestWattsStrogatzStructure(t *testing.T) {
	rng := sim.NewRNG(5)
	g := WattsStrogatz(rng, 200, 6, 0.1)
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	_, comps := Components(g)
	if comps != 1 {
		t.Fatalf("WS graph disconnected: %d components", comps)
	}
	// Small-world: high clustering vs an ER graph of the same density.
	cc := ClusteringCoefficient(g)
	er := ErdosRenyi(rng, 200, float64(g.NumEdges())/float64(200*199))
	ccER := ClusteringCoefficient(er)
	if cc <= ccER {
		t.Fatalf("WS clustering %v not above ER %v", cc, ccER)
	}
}

func TestWattsStrogatzNoRewire(t *testing.T) {
	rng := sim.NewRNG(6)
	g := WattsStrogatz(rng, 10, 4, 0)
	// Pure lattice: every node has degree exactly 4.
	for u := 0; u < 10; u++ {
		if g.OutDegree(u) != 4 {
			t.Fatalf("lattice degree of %d = %d, want 4", u, g.OutDegree(u))
		}
	}
}

func TestRingAndComplete(t *testing.T) {
	r := Ring(5)
	for u := 0; u < 5; u++ {
		if r.OutDegree(u) != 2 {
			t.Fatalf("ring degree %d", r.OutDegree(u))
		}
	}
	c := Complete(4)
	if c.NumEdges() != 12 {
		t.Fatalf("complete edges = %d", c.NumEdges())
	}
}

func TestBFSDistances(t *testing.T) {
	g := Ring(6)
	d := BFS(g, 0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, d[i], v)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	_ = g.SetEdge(0, 1, 1)
	d := BFS(g, 0)
	if d[2] != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d[2])
	}
	// Directed: node 1 cannot reach 0.
	d1 := BFS(g, 1)
	if d1[0] != -1 {
		t.Fatal("BFS ignored direction")
	}
	dBad := BFS(g, 99)
	for _, v := range dBad {
		if v != -1 {
			t.Fatal("invalid source produced distances")
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	_ = g.SetEdge(0, 1, 1)
	_ = g.SetEdge(2, 3, 1)
	ids, count := Components(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if ids[0] != ids[1] || ids[2] != ids[3] || ids[0] == ids[2] || ids[4] == ids[0] {
		t.Fatalf("component ids = %v", ids)
	}
}

func TestComponentsWeaklyConnected(t *testing.T) {
	// A directed chain is weakly connected even though not strongly.
	g := New(3)
	_ = g.SetEdge(0, 1, 1)
	_ = g.SetEdge(2, 1, 1)
	_, count := Components(g)
	if count != 1 {
		t.Fatalf("weak components = %d, want 1", count)
	}
}

func TestClusteringTriangle(t *testing.T) {
	g := New(3)
	_ = g.AddEdgeBoth(0, 1, 1)
	_ = g.AddEdgeBoth(1, 2, 1)
	_ = g.AddEdgeBoth(0, 2, 1)
	if cc := ClusteringCoefficient(g); cc != 1 {
		t.Fatalf("triangle clustering = %v, want 1", cc)
	}
}

func TestClusteringPath(t *testing.T) {
	g := New(3)
	_ = g.AddEdgeBoth(0, 1, 1)
	_ = g.AddEdgeBoth(1, 2, 1)
	if cc := ClusteringCoefficient(g); cc != 0 {
		t.Fatalf("path clustering = %v, want 0", cc)
	}
}

func TestAveragePathLength(t *testing.T) {
	g := Ring(10)
	apl := AveragePathLength(g, 0)
	// Ring of 10: distances 1,1,2,2,3,3,4,4,5 mean = 25/9.
	want := 25.0 / 9.0
	if apl < want-1e-9 || apl > want+1e-9 {
		t.Fatalf("APL = %v, want %v", apl, want)
	}
	if AveragePathLength(New(1), 0) != 0 {
		t.Fatal("singleton APL != 0")
	}
}

func TestTopByInDegree(t *testing.T) {
	g := New(4)
	_ = g.SetEdge(0, 3, 1)
	_ = g.SetEdge(1, 3, 1)
	_ = g.SetEdge(2, 3, 1)
	_ = g.SetEdge(0, 2, 1)
	top := TopByInDegree(g, 2)
	if len(top) != 2 || top[0] != 3 || top[1] != 2 {
		t.Fatalf("TopByInDegree = %v", top)
	}
	if got := TopByInDegree(g, 99); len(got) != 4 {
		t.Fatalf("clamp failed: %v", got)
	}
	if got := TopByInDegree(g, -1); len(got) != 0 {
		t.Fatalf("negative m: %v", got)
	}
}

func TestGraphInvariantInOutConsistency(t *testing.T) {
	f := func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		g := ErdosRenyi(rng, 30, 0.15)
		// in/out indices must mirror each other.
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Out(u) {
				found := false
				for _, ie := range g.In(e.To) {
					if ie.To == u && ie.Weight == e.Weight {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		inCount := 0
		for u := 0; u < g.N(); u++ {
			inCount += g.InDegree(u)
		}
		return inCount == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeDistribution(t *testing.T) {
	g := Ring(5)
	dist := DegreeDistribution(g)
	if dist[2] != 5 || len(dist) != 1 {
		t.Fatalf("ring degree distribution = %v", dist)
	}
}
