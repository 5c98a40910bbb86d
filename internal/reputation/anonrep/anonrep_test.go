package anonrep

import (
	"math"
	"testing"

	"repro/internal/reputation"
	"repro/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Config{N: 5, Granularity: 2}); err == nil {
		t.Fatal("granularity > 1 accepted")
	}
	if _, err := New(Config{N: 5, Noise: -1}); err == nil {
		t.Fatal("negative noise accepted")
	}
}

func TestScoresAggregateUnderPseudonym(t *testing.T) {
	m, err := New(Config{N: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m.Submit(reputation.Report{Rater: 1, Ratee: 0, Value: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	m.Compute()
	if got := m.Score(0); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("score = %v, want 0.9", got)
	}
	if m.Score(2) != 0.5 {
		t.Fatal("unrated peer not neutral")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := New(Config{N: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 0}); err == nil {
		t.Fatal("self-rating accepted")
	}
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 9}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestEpochRotatesPseudonymsAndCarriesReputation(t *testing.T) {
	m, err := New(Config{N: 4, Seed: 2, Noise: 0, Granularity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := m.Submit(reputation.Report{Rater: 1, Ratee: 0, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	m.Compute()
	before := m.Score(0)
	nym := m.Pseudonym(0)
	m.NextEpoch()
	if m.Pseudonym(0) == nym {
		t.Fatal("pseudonym did not rotate")
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d", m.Epoch())
	}
	m.Compute()
	after := m.Score(0)
	// Noise-free carry: the new account's base equals the quantized old
	// score.
	if math.Abs(after-m.quantize(before)) > 1e-9 {
		t.Fatalf("carried score %v vs quantized old %v", after, m.quantize(before))
	}
}

func TestNoiseFreeFineGrainedIsFullyLinkable(t *testing.T) {
	m, err := New(Config{N: 20, Seed: 3, Noise: 0, Granularity: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// Give every peer a distinct score.
	rng := sim.NewRNG(4)
	for p := 0; p < 20; p++ {
		v := 0.05 + 0.045*float64(p)
		for k := 0; k < 5; k++ {
			rater := rng.Intn(20)
			if rater == p {
				continue
			}
			_ = m.Submit(reputation.Report{Rater: rater, Ratee: p, Value: v})
		}
	}
	m.NextEpoch()
	if adv := m.LinkabilityAdvantage(); adv < 0.9 {
		t.Fatalf("noise-free fine-grained linkability = %v, want ~1", adv)
	}
}

func TestCoarseLevelsReduceLinkability(t *testing.T) {
	build := func(gran, noise float64) float64 {
		m, err := New(Config{N: 40, Seed: 5, Noise: noise, Granularity: gran})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(6)
		for p := 0; p < 40; p++ {
			v := rng.Float64()
			for k := 0; k < 5; k++ {
				rater := rng.Intn(40)
				if rater == p {
					continue
				}
				_ = m.Submit(reputation.Report{Rater: rater, Ratee: p, Value: v})
			}
		}
		m.NextEpoch()
		return m.LinkabilityAdvantage()
	}
	fine := build(0.001, 0)
	coarse := build(0.5, 0.1)
	if coarse >= fine {
		t.Fatalf("coarse+noisy linkability %v not below fine %v", coarse, fine)
	}
	if coarse > 0.5 {
		t.Fatalf("coarse+noisy linkability = %v, want anonymity-set effect", coarse)
	}
}

func TestLinkabilityZeroBeforeEpochChange(t *testing.T) {
	m, err := New(Config{N: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.LinkabilityAdvantage() != 0 {
		t.Fatal("advantage nonzero before any epoch change")
	}
}

func TestTrustworthyFraction(t *testing.T) {
	m, err := New(Config{N: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrustworthyFraction() != 1 {
		t.Fatal("empty mechanism fraction != 1")
	}
	for i := 0; i < 5; i++ {
		_ = m.Submit(reputation.Report{Rater: 0, Ratee: 1, Value: 0.9})
		_ = m.Submit(reputation.Report{Rater: 0, Ratee: 2, Value: 0.1})
	}
	got := m.TrustworthyFraction()
	// Peer 1 trustworthy, peer 2 not; peers 0,3 unrated.
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("fraction = %v, want 0.5", got)
	}
}

func TestScoreBoundsAndClamping(t *testing.T) {
	m, err := New(Config{N: 3, Seed: 9, Noise: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Submit(reputation.Report{Rater: 0, Ratee: 1, Value: 5})  // clamped to 1
	_ = m.Submit(reputation.Report{Rater: 0, Ratee: 2, Value: -5}) // clamped to 0
	for e := 0; e < 10; e++ {
		m.NextEpoch()
	}
	m.Compute()
	for p := 0; p < 3; p++ {
		if s := m.Score(p); s < 0 || s > 1 {
			t.Fatalf("score %v out of range after noisy epochs", s)
		}
	}
	if m.Score(-1) != 0 || m.Score(9) != 0 {
		t.Fatal("out-of-range score != 0")
	}
	if m.Pseudonym(-1) != "" {
		t.Fatal("out-of-range pseudonym not empty")
	}
}

func TestWorksAsWorkloadMechanism(t *testing.T) {
	// Interface sanity: anonrep slots into the generic machinery.
	var mech reputation.Mechanism
	m, err := New(Config{N: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	mech = m
	if mech.Name() != "anonrep" {
		t.Fatal("name")
	}
	if err := mech.Submit(reputation.Report{Rater: 0, Ratee: 1, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	if mech.Compute() != 1 {
		t.Fatal("compute rounds")
	}
	if mech.Compute() != 0 {
		t.Fatal("clean compute re-ran")
	}
}

// TestSubmitRejectsNaN pins that a NaN rating is an error, not a value:
// clamping lets NaN through into the account sum, and the ratee's score
// would stay NaN, carried across every later pseudonym change.
func TestSubmitRejectsNaN(t *testing.T) {
	m, err := New(Config{N: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{Rater: 2, Ratee: 1, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 1, Value: math.NaN()}); err == nil {
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
