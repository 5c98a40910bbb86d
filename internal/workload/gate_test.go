package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/reputation"
	"repro/internal/reputation/anonrep"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/reputation/trustme"
)

func TestTrustGateValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumPeers: 10, TrustGate: 1}, newEigen(t, 10)); err == nil {
		t.Fatal("gate=1 accepted")
	}
	if _, err := NewEngine(Config{NumPeers: 10, TrustGate: -0.1}, newEigen(t, 10)); err == nil {
		t.Fatal("negative gate accepted")
	}
	// The run-time setters refuse what construction refuses, NaN included.
	e, err := NewEngine(Config{NumPeers: 10, TrustGate: 0.2}, newEigen(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetTrustGate(math.NaN()); err == nil || e.cfg.TrustGate != 0.2 {
		t.Errorf("SetTrustGate(NaN) = %v, gate now %v", err, e.cfg.TrustGate)
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), -1} {
		if err := e.SetLedgerScale(scale); err == nil || e.LedgerScale() != DefaultExposureScale {
			t.Errorf("SetLedgerScale(%v) = %v, scale now %v", scale, err, e.LedgerScale())
			e.ledgerScale = DefaultExposureScale
		}
	}
}

func TestTrustGateCausesFailures(t *testing.T) {
	open, err := NewEngine(Config{Seed: 31, NumPeers: 40, Mix: mixMalicious(0.3), RecomputeEvery: 2}, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NewEngine(Config{Seed: 31, NumPeers: 40, Mix: mixMalicious(0.3),
		RecomputeEvery: 2, TrustGate: 0.9}, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	open.Run(30)
	strict.Run(30)
	if open.GateFailures != 0 {
		t.Fatalf("ungated engine recorded %d gate failures", open.GateFailures)
	}
	if strict.GateFailures == 0 {
		t.Fatal("strict gate never failed an allocation")
	}
	// Failed allocations depress consumer satisfaction.
	if strict.Summarize().ConsumerSat >= open.Summarize().ConsumerSat {
		t.Fatalf("strict gate did not lower satisfaction: %v vs %v",
			strict.Summarize().ConsumerSat, open.Summarize().ConsumerSat)
	}
}

func TestLedgerAccountsFlows(t *testing.T) {
	m := newCounting(t, 20)
	eng, err := NewEngine(Config{Seed: 33, NumPeers: 20, RecomputeEvery: 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10)
	// Both flow kinds are counted: a profile disclosure per served
	// interaction and a feedback disclosure per shared report.
	cum := eng.CumulativeStats()
	profile, feedback := int64(cum.Interactions-cum.Refused), eng.Gatherer().Gathered
	if profile == 0 || feedback == 0 {
		t.Fatalf("flows: profile=%d feedback=%d", profile, feedback)
	}
	if got := eng.Disclosures(); got != profile+feedback {
		t.Fatalf("Disclosures = %d, want %d profile + %d feedback disclosures", got, profile, feedback)
	}
	// Every engine flow is consented, so each facet is the exposure term
	// alone: it lies in (0,1) once the user disclosed anything, and equals
	// the formula at full respect.
	for u := 0; u < 20; u++ {
		p := eng.PrivacyFacetOf(u)
		if p <= 0 || p >= 1 {
			t.Fatalf("user %d privacy facet = %v, want (0,1)", u, p)
		}
		if want := privacyFacetFormula(eng, u, m.reports[u]); math.Float64bits(p) != math.Float64bits(want) {
			t.Fatalf("user %d privacy facet = %v, formula at full respect %v", u, p, want)
		}
	}
}

func TestZeroDisclosureNoFeedbackFlows(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 37, NumPeers: 20}, newEigen(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		eng.SetDisclosure(u, 0)
	}
	eng.Run(10)
	cum := eng.CumulativeStats()
	if got, want := eng.Disclosures(), int64(cum.Interactions-cum.Refused); got != want || eng.Gatherer().Gathered != 0 {
		t.Fatalf("Disclosures = %d with %d shared reports, want only the %d profile disclosures",
			got, eng.Gatherer().Gathered, want)
	}
	for u := 0; u < 20; u++ {
		if f := eng.feedback[u]; f != 0 {
			t.Fatalf("user %d shared no report but has feedback exposure %v", u, f)
		}
	}
}

// TestTrustGateFollowsScores checks the cached trust gate for every
// mechanism: after each event that can move the scores or the gate level,
// the next round must gate at a fresh metrics.Quantile of the scores it
// reads. The events are the engine's own recompute, a Compute called
// directly on the mechanism the engine exposes (as trustnet's
// Engine.Mechanism lets any caller do), a whitewash followed by a direct
// Compute, a restore of an earlier state, and SetTrustGate. For every
// mechanism but the constant baseline the score events must move the gate
// at least once, so a gate left stale would show.
func TestTrustGateFollowsScores(t *testing.T) {
	const n = 60
	mechs := map[string]func() (reputation.Mechanism, error){
		"eigentrust": func() (reputation.Mechanism, error) { return eigentrust.New(eigentrust.Config{N: n}) },
		"powertrust": func() (reputation.Mechanism, error) { return powertrust.New(powertrust.Config{N: n}) },
		"trustme":    func() (reputation.Mechanism, error) { return trustme.New(trustme.Config{N: n}) },
		"anonrep":    func() (reputation.Mechanism, error) { return anonrep.New(anonrep.Config{N: n, Seed: 3}) },
		"none":       func() (reputation.Mechanism, error) { return reputation.NewNone(n), nil },
	}
	for name, build := range mechs {
		t.Run(name, func(t *testing.T) {
			mech, err := build()
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(Config{Seed: 41, NumPeers: n, Mix: mixMalicious(0.3), RecomputeEvery: 2, TrustGate: 0.3}, mech)
			if err != nil {
				t.Fatal(err)
			}
			moved := false
			last := math.NaN()
			// next runs one round and checks the gate it used against a
			// fresh quantile of the scores it read.
			next := func(event string) {
				t.Helper()
				want := metrics.Quantile(slices.Clone(mech.ScoresView()), e.cfg.TrustGate)
				e.Round()
				if math.Float64bits(e.gate) != math.Float64bits(want) {
					t.Fatalf("after %s: round gated at %v, fresh quantile %v", event, e.gate, want)
				}
				if !math.IsNaN(last) && want != last {
					moved = true
				}
				last = want
			}
			next("the first round")
			next("an engine recompute") // RecomputeEvery 2: the scores moved
			saved, err := e.State()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				next("a round")
				mech.Compute()
				next("a direct Compute")
			}
			if ww, ok := mech.(reputation.Whitewasher); ok {
				for u := 0; u < n; u += 7 {
					ww.Whitewash(u)
				}
				e.NoteMutation()
				next("a whitewash")
				mech.Compute()
				next("a whitewash and a direct Compute")
			}
			if err := e.Restore(saved); err != nil {
				t.Fatal(err)
			}
			next("a restore")
			if name != "none" && !moved {
				t.Fatal("no event moved the gate, so a stale gate would not show")
			}
			if err := e.SetTrustGate(0.6); err != nil {
				t.Fatal(err)
			}
			next("SetTrustGate")
			if err := e.SetTrustGate(0.3); err != nil {
				t.Fatal(err)
			}
			next("SetTrustGate back")
		})
	}
}
