package eigentrust

import (
	"testing"
)

func TestWhitewashDoesNotLaunderEigenTrust(t *testing.T) {
	m, err := New(Config{N: 10, Pretrusted: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Everyone rates peer 0 badly; good peers rate each other well.
	for rater := 1; rater < 10; rater++ {
		feed(t, m, rater, 0, 0.05, 3)
		feed(t, m, rater, (rater%9)+1, 0.9, 2)
	}
	m.Compute()
	before := m.Score(0)
	if before > 0.1 {
		t.Fatalf("badly-rated peer score = %v, want near 0", before)
	}
	m.Whitewash(0)
	m.Compute()
	after := m.Score(0)
	if after > before+0.1 {
		t.Fatalf("whitewash laundered EigenTrust score: %v -> %v", before, after)
	}
}

func TestWhitewashClearsOutgoingOpinions(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	hasOutgoing := func() bool {
		cols, _ := m.LocalTrust().AppendRow(0, nil, nil)
		return len(cols) > 0
	}
	feed(t, m, 0, 1, 0.9, 3)
	if !hasOutgoing() {
		t.Fatal("setup: no outgoing trust")
	}
	m.Whitewash(0)
	if hasOutgoing() {
		t.Fatal("whitewashed peer kept outgoing opinions")
	}
}

func TestTrustworthyFraction(t *testing.T) {
	m, err := New(Config{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TrustworthyFraction(); got != 1 {
		t.Fatalf("empty mechanism fraction = %v", got)
	}
	// Peers 1,2 rated well; 3,4 rated badly.
	for _, good := range []int{1, 2} {
		feed(t, m, 0, good, 0.9, 2)
	}
	for _, bad := range []int{3, 4} {
		feed(t, m, 0, bad, 0.1, 2)
	}
	if got := m.TrustworthyFraction(); got != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
}
