package social

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// empty returns the friendship graph over n users without edges.
func empty(n int) *graph.Graph {
	g, err := graph.ErdosRenyi(sim.NewRNG(1), n, 0)
	if err != nil {
		panic(err)
	}
	return g
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestUserLookup: the network has one user per graph node, and looking up
// a user outside the population finds no friends.
func TestUserLookup(t *testing.T) {
	net, err := NewNetwork(empty(3))
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 3 {
		t.Fatalf("N = %d", net.N())
	}
	if net.FriendsOf(-1) != nil || net.FriendsOf(3) != nil {
		t.Fatal("out-of-range user lookup not nil")
	}
}

func TestTxIDsUnique(t *testing.T) {
	net, err := NewNetwork(empty(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id := net.NextTxID()
		if seen[id] {
			t.Fatalf("duplicate tx id %d", id)
		}
		seen[id] = true
	}
	// The counter is the network's whole mutable state: a restored network
	// continues the sequence.
	back, err := NewNetwork(empty(2))
	if err != nil {
		t.Fatal(err)
	}
	back.SetState(net.State())
	if got, want := back.NextTxID(), net.NextTxID(); got != want {
		t.Fatalf("restored counter issued %d, want %d", got, want)
	}
}

// TestFriendsOfIndexesGraph checks the friend lists against the graph they
// come from, for every generator the workload uses: each user's friends are
// exactly the ids v with an edge u->v, ascending, and appending to the
// returned slice cannot write into the next user's list.
func TestFriendsOfIndexesGraph(t *testing.T) {
	const n = 300
	for _, tc := range []struct {
		name string
		gen  func() (*graph.Graph, error)
	}{
		{"BA", func() (*graph.Graph, error) { return graph.BarabasiAlbert(sim.NewRNG(21), n, 4) }},
		{"WS", func() (*graph.Graph, error) { return graph.WattsStrogatz(sim.NewRNG(22), n, 6, 0.2) }},
		{"ER", func() (*graph.Graph, error) { return graph.ErdosRenyi(sim.NewRNG(23), n, 4.0/(n-1)) }},
	} {
		name := tc.name
		g, err := tc.gen()
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			got := net.FriendsOf(u)
			var want []int32
			for v := 0; v < n; v++ {
				if g.HasEdge(u, v) {
					want = append(want, int32(v))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: FriendsOf(%d) = %v, want %v", name, u, got, want)
			}
			if !slices.IsSorted(got) {
				t.Fatalf("%s: FriendsOf(%d) = %v not ascending", name, u, got)
			}
			if u+1 < n && len(net.FriendsOf(u+1)) > 0 {
				next := net.FriendsOf(u + 1)[0]
				_ = append(got, -1)
				if net.FriendsOf(u + 1)[0] != next {
					t.Fatalf("%s: appending to FriendsOf(%d) overwrote user %d's friends", name, u, u+1)
				}
			}
		}
		if net.FriendsOf(-1) != nil || net.FriendsOf(n) != nil {
			t.Fatalf("%s: out-of-range FriendsOf not nil", name)
		}
	}
}

func TestProfileAttribute(t *testing.T) {
	// The standard profile covers all sensitivity classes.
	p := StandardProfile(4)
	classes := map[Sensitivity]bool{}
	for _, a := range p.Attributes {
		classes[a.Sensitivity] = true
	}
	for _, s := range []Sensitivity{Public, Low, Medium, High} {
		if !classes[s] {
			t.Fatalf("standard profile missing sensitivity %v", s)
		}
	}
}
