package social

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
)

func honestUsers(n int) []*User {
	users := make([]*User, n)
	for i := range users {
		users[i] = &User{
			ID:             i,
			Profile:        StandardProfile(i),
			Behavior:       adversary.MustNew(adversary.Honest, adversary.Config{}),
			BaseDisclosure: 1,
		}
	}
	return users
}

func TestNewNetworkValidation(t *testing.T) {
	users := honestUsers(3)
	if _, err := NewNetwork(users, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewNetwork(users, graph.New(2)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	users[1].ID = 7
	if _, err := NewNetwork(users, graph.New(3)); err == nil {
		t.Fatal("mis-indexed user accepted")
	}
	users[1].ID = 1
	users[2] = nil
	if _, err := NewNetwork(users, graph.New(3)); err == nil {
		t.Fatal("nil user accepted")
	}
}

func TestUserLookup(t *testing.T) {
	net, err := NewNetwork(honestUsers(3), graph.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 3 {
		t.Fatalf("N = %d", net.N())
	}
	if net.User(1) == nil || net.User(1).ID != 1 {
		t.Fatal("User(1) lookup failed")
	}
	if net.User(-1) != nil || net.User(3) != nil {
		t.Fatal("out-of-range user lookup not nil")
	}
}

func TestTxIDsUnique(t *testing.T) {
	net, err := NewNetwork(honestUsers(2), graph.New(2))
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
	back, err := NewNetwork(honestUsers(2), graph.New(2))
	if err != nil {
		t.Fatal(err)
	}
	back.SetState(net.State())
	if got, want := back.NextTxID(), net.NextTxID(); got != want {
		t.Fatalf("restored counter issued %d, want %d", got, want)
	}
}

func TestProfileAttribute(t *testing.T) {
	p := StandardProfile(4)
	a, ok := p.Attribute("email")
	if !ok || a.Sensitivity != Medium {
		t.Fatalf("email attribute = %+v, %v", a, ok)
	}
	if _, ok := p.Attribute("nonexistent"); ok {
		t.Fatal("phantom attribute")
	}
	// Standard profile covers all sensitivity classes.
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

func TestStringers(t *testing.T) {
	if Public.String() != "public" || High.String() != "high" {
		t.Fatal("sensitivity names")
	}
	if Sensitivity(9).String() == "" {
		t.Fatal("unknown enum empty name")
	}
}
