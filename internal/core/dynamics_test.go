package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/reputation/eigentrust"
	"repro/internal/workload"
)

// Epoch runs one coupling epoch and returns its stats.
func (d *Dynamics) Epoch() (EpochStats, error) {
	return d.EpochCtx(context.Background())
}

// Run executes n epochs.
func (d *Dynamics) Run(n int) ([]EpochStats, error) {
	for i := 0; i < n; i++ {
		if _, err := d.Epoch(); err != nil {
			return nil, err
		}
	}
	return d.History(), nil
}

func dynConfig(coupled bool, malicious float64) DynamicsConfig {
	return DynamicsConfig{
		Workload: workload.Config{
			Seed:     42,
			NumPeers: 40,
			Mix: adversary.Mix{Fractions: map[adversary.Class]float64{
				adversary.Honest:    1 - malicious,
				adversary.Malicious: malicious,
			}},
			Disclosure:     0.8,
			RecomputeEvery: 2,
		},
		Coupled:     coupled,
		EpochRounds: 8,
	}
}

func newDyn(t *testing.T, coupled bool, malicious float64) *Dynamics {
	t.Helper()
	mech, err := eigentrust.New(eigentrust.Config{N: 40, Pretrusted: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamics(dynConfig(coupled, malicious), mech)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDynamicsRunsAndRecords(t *testing.T) {
	d := newDyn(t, true, 0.3)
	hist, err := d.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 5 {
		t.Fatalf("history length = %d", len(hist))
	}
	for i, e := range hist {
		if e.Epoch != i {
			t.Fatalf("epoch numbering: %+v", e)
		}
		for _, v := range []float64{e.Trust, e.Satisfaction, e.Reputation, e.Privacy, e.Disclosure, e.Honesty} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("epoch %d has out-of-range value: %+v", i, e)
			}
		}
	}
}

func TestCouplingMovesDisclosureWithTrust(t *testing.T) {
	d := newDyn(t, true, 0.2)
	hist, err := d.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	last := hist[len(hist)-1]
	// Healthy system: trust settles above neutral, disclosure stays high,
	// honesty rises above the base.
	if last.Trust < 0.5 {
		t.Fatalf("healthy system trust = %v", last.Trust)
	}
	if last.Honesty <= 0.3 {
		t.Fatalf("honesty did not rise with trust: %v", last.Honesty)
	}
}

func TestDecoupledKeepsBaseline(t *testing.T) {
	d := newDyn(t, false, 0.2)
	hist, err := d.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hist {
		if math.Abs(e.Disclosure-0.8) > 1e-9 {
			t.Fatalf("decoupled disclosure drifted: %+v", e)
		}
	}
}

func TestCoupledDivergesFromDecoupled(t *testing.T) {
	c := newDyn(t, true, 0.3)
	u := newDyn(t, false, 0.3)
	hc, err := c.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	hu, err := u.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	// The coupled run must actually move its coupling variables.
	moved := false
	for i := range hc {
		if math.Abs(hc[i].Disclosure-hu[i].Disclosure) > 0.01 ||
			math.Abs(hc[i].Honesty-hu[i].Honesty) > 0.01 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("coupling had no observable effect")
	}
}

func TestMajorityUntrustworthyRegime(t *testing.T) {
	// §3's fourth claim: an efficient mechanism facing a 70%-malicious
	// population yields LOW system trust while contribution continues.
	d := newDyn(t, true, 0.7)
	hist, err := d.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	last := hist[len(hist)-1]
	healthy := newDyn(t, true, 0.1)
	hHealthy, err := healthy.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if last.Trust >= hHealthy[len(hHealthy)-1].Trust {
		t.Fatalf("70%%-malicious trust %v not below 10%%-malicious trust %v",
			last.Trust, hHealthy[len(hHealthy)-1].Trust)
	}
	// Contribution continues: disclosure has not collapsed to zero.
	if last.Disclosure < 0.05 {
		t.Fatalf("contribution collapsed: %v", last.Disclosure)
	}
}

func TestTrustModelAccessors(t *testing.T) {
	d := newDyn(t, true, 0.3)
	if _, err := d.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(d.TrustModel().trust) != 40 {
		t.Fatal("trust model size")
	}
	if d.Engine() == nil {
		t.Fatal("engine accessor nil")
	}
	h := d.History()
	h[0].Trust = -99
	if d.History()[0].Trust == -99 {
		t.Fatal("History exposed internal slice")
	}
}

func TestIteratedMapConvergesMonotonically(t *testing.T) {
	cfg := MapConfig{Reputation: 0.8, Privacy: 0.8}
	low, err := RunIteratedMap(0.1, 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunIteratedMap(0.95, 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both converge to the same fixed point.
	if math.Abs(low[len(low)-1]-high[len(high)-1]) > 0.01 {
		t.Fatalf("fixed points differ: %v vs %v", low[len(low)-1], high[len(high)-1])
	}
	// Trajectories are monotone (no oscillation): the loop is a positive
	// feedback with damping.
	for i := 2; i < len(low); i++ {
		if low[i] < low[i-1]-1e-9 {
			t.Fatalf("low trajectory not monotone up at %d", i)
		}
		if high[i] > high[i-1]+1e-9 {
			t.Fatalf("high trajectory not monotone down at %d", i)
		}
	}
	// Starting from more trust keeps you (weakly) above along the way —
	// "the more she trusts, the more she is satisfied" and vice versa.
	for i := range low {
		if low[i] > high[i]+1e-9 {
			t.Fatalf("trajectory ordering violated at %d", i)
		}
	}
}

func TestIteratedMapBetterFacetsHigherFixedPoint(t *testing.T) {
	good, err := RunIteratedMap(0.5, 80, MapConfig{Reputation: 0.9, Privacy: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := RunIteratedMap(0.5, 80, MapConfig{Reputation: 0.3, Privacy: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if good[len(good)-1] <= bad[len(bad)-1] {
		t.Fatalf("better facets did not raise the fixed point: %v vs %v",
			good[len(good)-1], bad[len(bad)-1])
	}
}

func TestIteratedMapValidation(t *testing.T) {
	if _, err := RunIteratedMap(-0.5, 10, MapConfig{Reputation: 0.5, Privacy: 0.5}); err == nil {
		t.Fatal("negative t0 accepted")
	}
	if _, err := RunIteratedMap(1.5, 10, MapConfig{Reputation: 0.5, Privacy: 0.5}); err == nil {
		t.Fatal("t0 > 1 accepted")
	}
	if _, err := RunIteratedMap(math.NaN(), 10, MapConfig{Reputation: 0.5, Privacy: 0.5}); err == nil || !strings.Contains(err.Error(), "initial trust") {
		t.Fatalf("NaN t0: err = %v, want an initial-trust range error", err)
	}
}

// TestBaseSettersRejectNaN: the run-time base setters refuse a NaN, which
// fails every comparison, and leave the dynamics unchanged.
func TestBaseSettersRejectNaN(t *testing.T) {
	d := newDyn(t, true, 0.3)
	if err := d.SetBaseDisclosure(math.NaN()); err == nil {
		t.Error("NaN base disclosure accepted")
	}
	if err := d.SetBaseHonesty(math.NaN()); err == nil {
		t.Error("NaN base honesty accepted")
	}
	if d.baseDisclosure != 0.8 || math.IsNaN(d.cfg.BaseHonesty) || math.IsNaN(d.eng.Disclosure(0)) {
		t.Fatalf("a refused setter changed the dynamics: base disclosure %v, base honesty %v", d.baseDisclosure, d.cfg.BaseHonesty)
	}
}

// fractionMechanism is an EigenTrust mechanism whose trustworthy fraction
// can be forced, so a test can push the reputation facet out of [0,1].
type fractionMechanism struct {
	*eigentrust.Mechanism
	force float64 // 0: report the mechanism's own fraction
}

func (m *fractionMechanism) TrustworthyFraction() float64 {
	if m.force != 0 {
		return m.force
	}
	return m.Mechanism.TrustworthyFraction()
}

// TestFailedEpochKeepsRepFacetOnHistory pins the invariant restore relies
// on: the reputation facet the next epoch compares against is the last
// history entry's, also after an epoch whose trust update failed and so
// recorded nothing. A state captured then restores to the same dynamics.
func TestFailedEpochKeepsRepFacetOnHistory(t *testing.T) {
	build := func() (*Dynamics, *fractionMechanism) {
		et, err := eigentrust.New(eigentrust.Config{N: 40, Pretrusted: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		mech := &fractionMechanism{Mechanism: et}
		d, err := NewDynamics(dynConfig(true, 0.3), mech)
		if err != nil {
			t.Fatal(err)
		}
		return d, mech
	}
	d, mech := build()
	if _, err := d.Run(2); err != nil {
		t.Fatal(err)
	}
	mech.force = 7 // a facet of several units: no trust update accepts it
	if _, err := d.Epoch(); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
		t.Fatalf("epoch with a reputation facet above 1 = %v, want a facet error", err)
	}
	last := d.history[len(d.history)-1].Reputation
	if len(d.history) != 2 || math.Float64bits(d.prevRepFacet) != math.Float64bits(last) {
		t.Fatalf("after the failed epoch: %d history entries, rep facet %v, want 2 and %v", len(d.history), d.prevRepFacet, last)
	}
	st, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := build()
	if err := twin.Restore(st); err != nil {
		t.Fatal(err)
	}
	if twin.EpochIndex() != 2 || math.Float64bits(twin.prevRepFacet) != math.Float64bits(last) {
		t.Fatalf("restored epoch %d, rep facet %v, want 2 and %v", twin.EpochIndex(), twin.prevRepFacet, last)
	}
}
