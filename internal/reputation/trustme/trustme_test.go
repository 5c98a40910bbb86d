package trustme

import (
	"errors"
	"math"
	"testing"

	"repro/internal/reputation"
	"repro/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestScoreAveragesRatings(t *testing.T) {
	m, err := New(Config{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	ratings := []float64{0.8, 0.6, 1.0}
	for i, v := range ratings {
		if err := m.Submit(reputation.Report{TxID: uint64(i + 1), Rater: i + 1, Ratee: 0, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Compute() != 1 {
		t.Fatal("Compute rounds != 1")
	}
	if got := m.Score(0); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("Score = %v, want 0.8", got)
	}
}

func TestUnratedPeerIsNeutral(t *testing.T) {
	m, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Compute()
	if got := m.Score(2); got != 0.5 {
		t.Fatalf("unrated score = %v, want 0.5", got)
	}
}

func TestCertificateMismatchRejected(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Establish tx 7 between peers 1 -> 2.
	if _, err := m.BeginTransaction(7, 1, 2); err != nil {
		t.Fatal(err)
	}
	// Peer 3 tries to file a report under the same transaction.
	err = m.Submit(reputation.Report{TxID: 7, Rater: 3, Ratee: 2, Value: 0})
	if !errors.Is(err, ErrCertMismatch) {
		t.Fatalf("forged report err = %v, want ErrCertMismatch", err)
	}
	if m.Rejected != 1 {
		t.Fatalf("Rejected = %d", m.Rejected)
	}
	// The legitimate parties can still report.
	if err := m.Submit(reputation.Report{TxID: 7, Rater: 1, Ratee: 2, Value: 0.9}); err != nil {
		t.Fatal(err)
	}
}

// TestCertificateLifetime: a certificate lives from BeginTransaction until
// its report is filed. A pending one survives a state round trip and still
// binds its parties; filing consumes it, so the store holds only pending
// transactions.
func TestCertificateLifetime(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginTransaction(7, 1, 2); err != nil {
		t.Fatal(err)
	}
	blob, err := m.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}
	if err := restored.Submit(reputation.Report{TxID: 7, Rater: 3, Ratee: 2, Value: 0}); !errors.Is(err, ErrCertMismatch) {
		t.Fatalf("forged report on a restored certificate: err = %v, want ErrCertMismatch", err)
	}
	if err := restored.Submit(reputation.Report{TxID: 7, Rater: 1, Ratee: 2, Value: 0.9}); err != nil {
		t.Fatal(err)
	}
	if len(restored.certs) != 0 {
		t.Fatalf("%d certificates held after the only report was filed, want 0", len(restored.certs))
	}
}

func TestBeginTransactionIdempotent(t *testing.T) {
	m, err := New(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := m.BeginTransaction(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.BeginTransaction(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.TxID != c2.TxID || string(c1.MAC) != string(c2.MAC) {
		t.Fatal("re-begin produced a different certificate")
	}
	if _, err := m.BeginTransaction(2, 0, 99); err == nil {
		t.Fatal("out-of-range party accepted")
	}
}

func TestWindowBoundsHistory(t *testing.T) {
	m, err := New(Config{N: 3, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 10 bad ratings then 4 good ones: only the last 4 count.
	tx := uint64(1)
	for i := 0; i < 10; i++ {
		if err := m.Submit(reputation.Report{TxID: tx, Rater: 1, Ratee: 0, Value: 0.0}); err != nil {
			t.Fatal(err)
		}
		tx++
	}
	for i := 0; i < 4; i++ {
		if err := m.Submit(reputation.Report{TxID: tx, Rater: 1, Ratee: 0, Value: 1.0}); err != nil {
			t.Fatal(err)
		}
		tx++
	}
	m.Compute()
	if got := m.Score(0); got != 1 {
		t.Fatalf("windowed score = %v, want 1", got)
	}
}

func TestMessagesCounted(t *testing.T) {
	m, err := New(Config{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Messages
	if err := m.Submit(reputation.Report{TxID: 5, Rater: 1, Ratee: 2, Value: 0.7}); err != nil {
		t.Fatal(err)
	}
	if m.Messages <= before {
		t.Fatal("message cost not charged")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := New(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{TxID: 1, Rater: 0, Ratee: 0}); err == nil {
		t.Fatal("self-rating accepted")
	}
	if err := m.Submit(reputation.Report{TxID: 1, Rater: 0, Ratee: 9}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestScoresSurviveTHAFailure(t *testing.T) {
	m, err := New(Config{N: 30, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := m.Submit(reputation.Report{TxID: uint64(i), Rater: i, Ratee: 0, Value: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	// THAs fail one at a time, the ring repairing after each, until one is
	// left: every replica of peer 0's score fails on the way.
	for addr := 0; addr < 29; addr++ {
		m.Ring().Leave(addr)
		m.Ring().Stabilize()
	}
	m.Compute()
	if got := m.Score(0); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("score after THA failures = %v, want 0.9", got)
	}
}

func TestCompositeWorkload(t *testing.T) {
	// 20 peers: 15 good (rated ~0.9), 5 bad (rated ~0.1). Scores must
	// separate the classes.
	m, err := New(Config{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	tx := uint64(1)
	for k := 0; k < 800; k++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if i == j {
			continue
		}
		v := 0.85 + rng.Float64()*0.1
		if j >= 15 {
			v = 0.05 + rng.Float64()*0.1
		}
		if err := m.Submit(reputation.Report{TxID: tx, Rater: i, Ratee: j, Value: v}); err != nil {
			t.Fatal(err)
		}
		tx++
	}
	m.Compute()
	s := m.ScoresView()
	for i := 0; i < 15; i++ {
		for j := 15; j < 20; j++ {
			if s[i] <= s[j] {
				t.Fatalf("good peer %d (%v) not above bad peer %d (%v)", i, s[i], j, s[j])
			}
		}
	}
}

// TestSubmitRejectsNaN pins that a NaN rating is an error, not a value:
// appended to the ratee's THA history, it would make every later mean of
// that history NaN.
func TestSubmitRejectsNaN(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{TxID: 1, Rater: 2, Ratee: 1, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{TxID: 2, Rater: 0, Ratee: 1, Value: math.NaN()}); err == nil {
		t.Fatal("NaN rating accepted by Submit")
	}
	m.Compute()
	if got := m.Score(1); got != 0.8 {
		t.Fatalf("score of peer 1 = %v after a NaN rating, want 0.8", got)
	}
	if got := m.TrustworthyFraction(); got != 1 {
		t.Fatalf("trustworthy fraction = %v, want 1", got)
	}
}
