package satisfaction

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Preference returns the consumer's current preference for a provider.
func (c *consumer) Preference(provider int) float64 {
	if provider < 0 || provider >= c.pop.N {
		return 0
	}
	if k, ok := c.findOverride(provider); ok {
		return c.overrides[k].Pref
	}
	return c.pop.Pref
}

// Observations returns the number of allocation rounds folded in.
func (c *consumer) Observations() int64 { return c.n }

func TestNewConsumerValidation(t *testing.T) {
	if _, err := newPrefConsumer(nil, 0.1); err == nil {
		t.Fatal("empty prefs accepted")
	}
	if _, err := newPrefConsumer([]float64{0.5}, -1); err == nil {
		t.Fatal("negative memory accepted")
	}
	if _, err := newPrefConsumer([]float64{0.5}, 1.5); err == nil {
		t.Fatal("memory > 1 accepted")
	}
	c, err := newPrefConsumer([]float64{2, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Preference(0) != 1 || c.Preference(1) != 0 {
		t.Fatal("prefs not clamped")
	}
}

func TestAdequacyBestChoice(t *testing.T) {
	c, err := newPrefConsumer([]float64{0.2, 0.8, 0.4}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Adequacy(1, []int{0, 1, 2}); got != 1 {
		t.Fatalf("best-choice adequacy = %v, want 1", got)
	}
	if got := c.Adequacy(2, []int{0, 1, 2}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("half-preferred adequacy = %v, want 0.5", got)
	}
	if got := c.Adequacy(0, []int{0}); got != 1 {
		t.Fatalf("only-candidate adequacy = %v, want 1", got)
	}
}

func TestAdequacyInvalidChoices(t *testing.T) {
	c, err := newPrefConsumer([]float64{0.2, 0.8}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Adequacy(5, []int{0, 1}) != 0 {
		t.Fatal("out-of-range chosen != 0")
	}
	if c.Adequacy(0, []int{1}) != 0 {
		t.Fatal("chosen outside candidate set != 0")
	}
	if c.Adequacy(-1, []int{0}) != 0 {
		t.Fatal("negative chosen != 0")
	}
}

func TestAdequacyIndifferentConsumer(t *testing.T) {
	c, err := newPrefConsumer([]float64{0, 0}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Adequacy(0, []int{0, 1}); got != 1 {
		t.Fatalf("indifferent adequacy = %v, want 1", got)
	}
}

func TestSatisfactionEMA(t *testing.T) {
	c, err := newPrefConsumer([]float64{1, 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Satisfaction() != 0.5 {
		t.Fatal("no-history satisfaction != 0.5")
	}
	c.Observe(0, []int{0, 1}) // adequacy 1; first observation seeds EMA
	if c.Satisfaction() != 1 {
		t.Fatalf("sat = %v, want 1", c.Satisfaction())
	}
	c.ObserveFailure() // adequacy 0
	if got := c.Satisfaction(); got != 0.5 {
		t.Fatalf("sat = %v, want 0.5", got)
	}
	if c.Observations() != 2 {
		t.Fatalf("observations = %d", c.Observations())
	}
}

func TestLongRunConvergence(t *testing.T) {
	// Consistently receiving the preferred provider drives satisfaction
	// toward 1; consistently failing drives it toward 0.
	c, err := newPrefConsumer([]float64{0.9, 0.1}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Observe(0, []int{0, 1})
	}
	if got := c.Satisfaction(); got < 0.99 {
		t.Fatalf("long-run satisfied consumer = %v", got)
	}
	for i := 0; i < 200; i++ {
		c.ObserveFailure()
	}
	if got := c.Satisfaction(); got > 0.01 {
		t.Fatalf("long-run failed consumer = %v", got)
	}
}

func TestImposedAllocationOnlyDents(t *testing.T) {
	// The paper: a provider can stay satisfied even if the system sometimes
	// imposes requests it does not intend to treat.
	p, err := newPrefProvider([]float64{1.0, 0.0}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p.Observe(0) // wanted consumer
	}
	p.Observe(1) // one imposed request
	if got := p.Satisfaction(); got < 0.85 {
		t.Fatalf("one imposed request dropped satisfaction to %v", got)
	}
	// But a flood of imposed requests erodes it.
	for i := 0; i < 100; i++ {
		p.Observe(1)
	}
	if got := p.Satisfaction(); got > 0.05 {
		t.Fatalf("imposed-flood satisfaction = %v", got)
	}
}

func TestPreferenceLearning(t *testing.T) {
	c, err := newPrefConsumer([]float64{0.5, 0.5}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.UpdatePreference(0, 1.0) // provider 0 delivers perfectly
		c.UpdatePreference(1, 0.0) // provider 1 always fails
	}
	if c.Preference(0) < 0.95 || c.Preference(1) > 0.05 {
		t.Fatalf("prefs after learning = %v / %v", c.Preference(0), c.Preference(1))
	}
	c.UpdatePreference(9, 1) // out of range: no-op
	if c.Preference(9) != 0 {
		t.Fatal("phantom preference")
	}
}

func TestProviderValidation(t *testing.T) {
	if _, err := newProvider(0, 0.7, 0.1); err == nil {
		t.Fatal("empty willingness accepted")
	}
	if _, err := newProvider(1, 0.7, 2); err == nil {
		t.Fatal("memory > 1 accepted")
	}
	p, err := newProvider(1, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Satisfaction() != 0.5 {
		t.Fatal("fresh provider not neutral")
	}
	if p.Willingness(5) != 0 {
		t.Fatal("out-of-range willingness != 0")
	}
}

func TestSatisfactionAlwaysInUnitInterval(t *testing.T) {
	f := func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		nProv := 2 + rng.Intn(5)
		prefs := make([]float64, nProv)
		for i := range prefs {
			prefs[i] = rng.Float64()
		}
		c, err := newPrefConsumer(prefs, 0.1+rng.Float64()*0.9)
		if err != nil {
			return false
		}
		for step := 0; step < 50; step++ {
			if rng.Bool(0.2) {
				c.ObserveFailure()
			} else {
				cands := rng.Sample(nProv, 1+rng.Intn(nProv))
				c.Observe(cands[rng.Intn(len(cands))], cands)
			}
			c.UpdatePreference(rng.Intn(nProv), rng.Float64())
			if s := c.Satisfaction(); s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneBetterAllocationsBetterSatisfaction(t *testing.T) {
	// Property: a consumer always given its top candidate ends at least as
	// satisfied as one always given its worst candidate.
	prefs := []float64{0.9, 0.5, 0.1}
	top, err := newPrefConsumer(prefs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := newPrefConsumer(prefs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cands := []int{0, 1, 2}
	for i := 0; i < 60; i++ {
		top.Observe(0, cands)
		worst.Observe(2, cands)
	}
	if top.Satisfaction() <= worst.Satisfaction() {
		t.Fatalf("top %v <= worst %v", top.Satisfaction(), worst.Satisfaction())
	}
}
