package powertrust

import (
	"testing"
)

func TestPowerTrustTrustworthyFraction(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TrustworthyFraction(); got != 1 {
		t.Fatalf("empty fraction = %v", got)
	}
	// Peer 1 well rated by two raters; peer 2 badly; peer 3 mixed with
	// mean below 0.5.
	feed(t, m, 0, 1, 0.9, 2)
	feed(t, m, 4, 1, 0.8, 1)
	feed(t, m, 0, 2, 0.1, 3)
	feed(t, m, 0, 3, 0.8, 1)
	feed(t, m, 4, 3, 0.1, 2)
	got := m.TrustworthyFraction()
	want := 1.0 / 3.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("fraction = %v, want %v", got, want)
	}
}

func TestElectionUsesScoresAfterFirstCompute(t *testing.T) {
	m, err := New(Config{N: 6, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap: peer 1 has the highest weighted in-degree.
	feed(t, m, 0, 1, 0.9, 5)
	feed(t, m, 2, 1, 0.9, 5)
	feed(t, m, 0, 3, 0.4, 1)
	m.Compute()
	if pn := m.PowerNodes(); len(pn) != 1 || pn[0] != 1 {
		t.Fatalf("bootstrap power nodes = %v, want [1]", pn)
	}
	// Scores now exist; the next election ranks by reputation.
	feed(t, m, 4, 5, 0.95, 8)
	feed(t, m, 0, 5, 0.95, 8)
	feed(t, m, 2, 5, 0.95, 8)
	m.Compute()
	pn := m.PowerNodes()
	if len(pn) != 1 {
		t.Fatalf("power nodes = %v", pn)
	}
	// The elected node must be one of the highly-scored peers (1 or 5).
	if pn[0] != 1 && pn[0] != 5 {
		t.Fatalf("elected %d, want a reputable peer", pn[0])
	}
}
