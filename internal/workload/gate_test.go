package workload

import (
	"testing"

	"repro/internal/privacy"
)

func TestTrustGateValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumPeers: 10, TrustGate: 1}, newEigen(t, 10)); err == nil {
		t.Fatal("gate=1 accepted")
	}
	if _, err := NewEngine(Config{NumPeers: 10, TrustGate: -0.1}, newEigen(t, 10)); err == nil {
		t.Fatal("negative gate accepted")
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

// sharedTotal sums the reports every peer disclosed to the mechanism.
func sharedTotal(eng *Engine, n int) int64 {
	var total int64
	for u := 0; u < n; u++ {
		total += eng.Gatherer().SharedBy(u)
	}
	return total
}

func TestAttachLedgerAccountsFlows(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 33, NumPeers: 20, RecomputeEvery: 2}, newEigen(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	ledger := privacy.NewLedger()
	eng.AttachLedger(ledger, 50)
	eng.Run(10)
	// Both flow kinds are recorded: a profile disclosure per served
	// interaction and a feedback disclosure per shared report.
	cum := eng.CumulativeStats()
	profile, feedback := int64(cum.Interactions-cum.Refused), sharedTotal(eng, 20)
	if profile == 0 || feedback == 0 {
		t.Fatalf("flows: profile=%d feedback=%d", profile, feedback)
	}
	if got := int64(ledger.Len()); got != profile+feedback {
		t.Fatalf("ledger Len = %d, want %d profile + %d feedback disclosures", got, profile, feedback)
	}
	// Every engine flow is consented.
	for u := 0; u < 20; u++ {
		if r := ledger.RespectRate(u); r != 1 {
			t.Fatalf("user %d respect rate = %v: engine recorded an unconsented flow", u, r)
		}
	}
	// Privacy facets reflect the accounting.
	for u, p := range eng.PrivacyFacets() {
		if p <= 0 || p >= 1 {
			t.Fatalf("user %d privacy facet = %v, want (0,1)", u, p)
		}
	}
}

func TestPrivacyFacetsWithoutLedger(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 35, NumPeers: 10}, newEigen(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(5)
	for _, p := range eng.PrivacyFacets() {
		if p != 1 {
			t.Fatalf("facet = %v without ledger", p)
		}
	}
}

func TestZeroDisclosureNoFeedbackFlows(t *testing.T) {
	eng, err := NewEngine(Config{Seed: 37, NumPeers: 20}, newEigen(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	ledger := privacy.NewLedger()
	eng.AttachLedger(ledger, 50)
	eng.SetDisclosure(make([]float64, 20))
	eng.Run(10)
	cum := eng.CumulativeStats()
	if got, want := ledger.Len(), cum.Interactions-cum.Refused; got != want || sharedTotal(eng, 20) != 0 {
		t.Fatalf("ledger Len = %d with %d shared reports, want only the %d profile disclosures",
			got, sharedTotal(eng, 20), want)
	}
}
