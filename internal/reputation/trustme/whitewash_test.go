package trustme

import (
	"testing"

	"repro/internal/reputation"
)

func TestWhitewashLaundersTrustMe(t *testing.T) {
	m, err := New(Config{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	tx := uint64(1)
	for rater := 1; rater < 10; rater++ {
		if err := m.Submit(reputation.Report{TxID: tx, Rater: rater, Ratee: 0, Value: 0.05}); err != nil {
			t.Fatal(err)
		}
		tx++
	}
	m.Compute()
	before := m.Score(0)
	if before > 0.1 {
		t.Fatalf("badly-rated score = %v", before)
	}
	m.Whitewash(0)
	m.Compute()
	if got := m.Score(0); got != 0.5 {
		t.Fatalf("whitewashed score = %v, want neutral 0.5", got)
	}
	m.Whitewash(-1) // must not panic
	m.Whitewash(99)
}

func TestTrustMeTrustworthyFraction(t *testing.T) {
	m, err := New(Config{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TrustworthyFraction(); got != 1 {
		t.Fatalf("empty fraction = %v", got)
	}
	reports := []struct {
		ratee int
		value float64
	}{
		{1, 0.9}, {2, 0.8}, {3, 0.1},
	}
	tx := uint64(1)
	for _, r := range reports {
		if err := m.Submit(reputation.Report{TxID: tx, Rater: 0, Ratee: r.ratee, Value: r.value}); err != nil {
			t.Fatal(err)
		}
		tx++
	}
	got := m.TrustworthyFraction()
	want := 2.0 / 3.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("fraction = %v, want %v", got, want)
	}
}
