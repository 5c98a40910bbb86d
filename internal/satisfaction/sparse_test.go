package satisfaction

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestSparseConsumerMatchesDense pins the representation equivalence the
// scaling layer relies on: a sparse uniform-default consumer and a dense
// consumer initialized to the same value run the identical EMA arithmetic,
// so every observable — preferences, adequacy, satisfaction — is
// bit-for-bit equal under any interleaving of operations.
func TestSparseConsumerMatchesDense(t *testing.T) {
	const n = 40
	prefs := make([]float64, n)
	for i := range prefs {
		prefs[i] = 0.5
	}
	dense, err := newPrefConsumer(prefs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := newConsumer(n, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(31)
	for step := 0; step < 500; step++ {
		switch rng.Intn(4) {
		case 0:
			p, q := rng.Intn(n), rng.Float64()
			dense.UpdatePreference(p, q)
			sparse.UpdatePreference(p, q)
		case 1:
			cands := rng.Sample(n, 1+rng.Intn(8))
			chosen := cands[rng.Intn(len(cands))]
			if dense.Observe(chosen, cands) != sparse.Observe(chosen, cands) {
				t.Fatalf("step %d: Observe diverged", step)
			}
		case 2:
			cands := rng.Sample(n, 1+rng.Intn(8))
			chosen, q := cands[rng.Intn(len(cands))], rng.Float64()
			if dense.ObserveQuality(chosen, cands, q) != sparse.ObserveQuality(chosen, cands, q) {
				t.Fatalf("step %d: ObserveQuality diverged", step)
			}
		case 3:
			dense.ObserveFailure()
			sparse.ObserveFailure()
		}
		if dense.Satisfaction() != sparse.Satisfaction() {
			t.Fatalf("step %d: satisfaction %v != %v", step, dense.Satisfaction(), sparse.Satisfaction())
		}
	}
	for p := 0; p < n; p++ {
		if dense.Preference(p) != sparse.Preference(p) {
			t.Fatalf("preference[%d]: dense %v != sparse %v", p, dense.Preference(p), sparse.Preference(p))
		}
	}
	if dense.Observations() != sparse.Observations() {
		t.Fatal("observation counts diverged")
	}
}

// TestSparseProviderMatchesDense mirrors the consumer equivalence for the
// provider side (whose willingness is never mutated, so the sparse form
// needs no overrides at all).
func TestSparseProviderMatchesDense(t *testing.T) {
	const n = 30
	will := make([]float64, n)
	for i := range will {
		will[i] = 0.8
	}
	dense, err := newPrefProvider(will, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := newProvider(n, 0.8, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(17)
	for step := 0; step < 300; step++ {
		c := rng.Intn(n)
		if dense.Observe(c) != sparse.Observe(c) {
			t.Fatalf("step %d: Observe diverged", step)
		}
		if dense.Satisfaction() != sparse.Satisfaction() {
			t.Fatalf("step %d: satisfaction diverged", step)
		}
	}
	for c := 0; c < n; c++ {
		if dense.Willingness(c) != sparse.Willingness(c) {
			t.Fatalf("willingness[%d] diverged", c)
		}
	}
}

func TestSparseConstructorValidation(t *testing.T) {
	if _, err := newConsumer(0, 0.5, 0.1); err == nil {
		t.Fatal("n=0 consumer accepted")
	}
	if _, err := newConsumer(5, 0.5, -1); err == nil {
		t.Fatal("negative memory accepted")
	}
	if _, err := newProvider(0, 0.8, 0.1); err == nil {
		t.Fatal("n=0 provider accepted")
	}
	if _, err := newProvider(5, 0.8, 2); err == nil {
		t.Fatal("memory > 1 accepted")
	}
	if _, err := newConsumer(5, 0.5, math.NaN()); err == nil {
		t.Fatal("NaN consumer memory accepted")
	}
	if _, err := newProvider(5, 0.8, math.NaN()); err == nil {
		t.Fatal("NaN provider memory accepted")
	}
	c, err := newConsumer(3, 7, 0.1) // default clamped into [0,1]
	if err != nil {
		t.Fatal(err)
	}
	if c.Preference(1) != 1 {
		t.Fatalf("default preference %v not clamped to 1", c.Preference(1))
	}
}

// TestSparseConsumerStateRoundTrip checks that a sparse consumer's state
// (its overrides) survives a State/SetState cycle bit for bit, and that an
// override for a provider the population does not have is rejected
// instead of silently merged.
func TestSparseConsumerStateRoundTrip(t *testing.T) {
	const n = 20
	c, err := newConsumer(n, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	for k := 0; k < 50; k++ {
		c.UpdatePreference(rng.Intn(n), rng.Float64())
		cands := rng.Sample(n, 3)
		c.Observe(cands[0], cands)
	}
	st := c.State()
	back, err := newConsumer(n, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.SetState(st); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if back.Preference(p) != c.Preference(p) {
			t.Fatalf("preference[%d] diverged after round trip", p)
		}
	}
	if back.Satisfaction() != c.Satisfaction() || back.Observations() != c.Observations() {
		t.Fatal("satisfaction state diverged after round trip")
	}

	// A smaller population has no provider n-1 to hold an override for.
	c.UpdatePreference(n-1, 0.3)
	wrong, err := newConsumer(n-1, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.SetState(c.State()); err == nil {
		t.Fatal("override beyond the population accepted")
	}
}
