package privacy

import (
	"math"
	"testing"

	"repro/internal/social"
)

func TestLedgerRecordAndQuery(t *testing.T) {
	svc, _ := newTestService(t)
	if err := svc.Publish(0, "a", []byte("x"), social.High, allowAll()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Publish(1, "b", []byte("y"), social.Low, allowAll()); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		if _, _, err := svc.Request(r, "a", Read, SocialUse, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Leak("b", 0); err != nil {
		t.Fatal(err)
	}
	if len(svc.Events()) != 3 {
		t.Fatalf("trail = %d", len(svc.Events()))
	}
	if got := len(svc.EventsFor(0)); got != 2 {
		t.Fatalf("EventsFor(0) = %d", got)
	}
	if got := len(svc.Violations()); got != 1 {
		t.Fatalf("Violations = %d", got)
	}
}

func TestExposureGrowsWithRecipientsAndSensitivity(t *testing.T) {
	svc, _ := newTestService(t)
	// Owner 0: high-sensitivity item to 3 recipients.
	for r := 1; r <= 3; r++ {
		svc.record(Disclosure{Owner: 0, Item: "med", Sensitivity: social.High, Recipient: r, Consented: true})
	}
	// Owner 1: low-sensitivity item to the same 3 recipients.
	for r := 1; r <= 3; r++ {
		svc.record(Disclosure{Owner: 1, Item: "hobby", Sensitivity: social.Low, Recipient: r, Consented: true})
	}
	if svc.Exposure(0) <= svc.Exposure(1) {
		t.Fatalf("high-sensitivity exposure %v not above low %v", svc.Exposure(0), svc.Exposure(1))
	}
	// More recipients => more exposure.
	before := svc.Exposure(0)
	svc.record(Disclosure{Owner: 0, Item: "med", Sensitivity: social.High, Recipient: 9, Consented: true})
	if svc.Exposure(0) <= before {
		t.Fatal("exposure did not grow with a new recipient")
	}
	// Repeat disclosure to the same recipient adds nothing.
	mid := svc.Exposure(0)
	svc.record(Disclosure{Owner: 0, Item: "med", Sensitivity: social.High, Recipient: 9, Consented: true})
	if svc.Exposure(0) != mid {
		t.Fatal("duplicate recipient inflated exposure")
	}
}

func TestExposureZeroCases(t *testing.T) {
	svc, _ := newTestService(t)
	if svc.Exposure(5) != 0 {
		t.Fatal("fresh owner exposure != 0")
	}
	// Public data never costs exposure.
	svc.record(Disclosure{Owner: 0, Item: "nick", Sensitivity: social.Public, Recipient: 1, Consented: true})
	if svc.Exposure(0) != 0 {
		t.Fatal("public disclosure cost exposure")
	}
}

// TestNormalizedExposureBounds checks the normalization Facet applies,
// x/(x+scale), read as one minus the facet at full respect.
func TestNormalizedExposureBounds(t *testing.T) {
	svc, _ := newTestService(t)
	for r := 1; r <= 100; r++ {
		svc.record(Disclosure{Owner: 0, Item: "x", Sensitivity: social.High, Recipient: r, Consented: true})
	}
	normalized := func(owner int, scale float64) float64 { return 1 - Facet(1, svc.Exposure(owner), scale) }
	ne := normalized(0, 2)
	if ne <= 0 || ne >= 1 {
		t.Fatalf("normalized exposure = %v, want (0,1)", ne)
	}
	if normalized(9, 2) != 0 {
		t.Fatal("fresh owner normalized exposure != 0")
	}
	// Degenerate scale is clamped.
	if v := normalized(0, -5); v <= 0 || v >= 1 {
		t.Fatalf("clamped-scale exposure = %v", v)
	}
	if normalized(0, -5) != normalized(0, 1) {
		t.Fatal("a scale below 1 is not clamped to 1")
	}
}

func TestRespectRate(t *testing.T) {
	svc, _ := newTestService(t)
	if svc.RespectRate(0) != 1 {
		t.Fatal("no-history respect rate != 1")
	}
	svc.record(Disclosure{Owner: 0, Item: "a", Recipient: 1, Consented: true})
	svc.record(Disclosure{Owner: 0, Item: "a", Recipient: 2, Consented: true})
	svc.record(Disclosure{Owner: 0, Item: "a", Recipient: 3, Consented: false})
	if got := svc.RespectRate(0); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("respect rate = %v", got)
	}
}

func TestPrivacyFacetCombines(t *testing.T) {
	svc, _ := newTestService(t)
	// Perfect privacy: nothing disclosed.
	if got := svc.PrivacyFacet(0, 4); got != 1 {
		t.Fatalf("untouched user facet = %v, want 1", got)
	}
	// Disclosures lower it.
	for r := 1; r <= 5; r++ {
		svc.record(Disclosure{Owner: 0, Item: "x", Sensitivity: social.High, Recipient: r, Consented: true})
	}
	mid := svc.PrivacyFacet(0, 4)
	if mid >= 1 || mid <= 0 {
		t.Fatalf("facet after disclosures = %v", mid)
	}
	// A violation lowers it further.
	svc.record(Disclosure{Owner: 0, Item: "x", Sensitivity: social.High, Recipient: 99, Consented: false})
	if after := svc.PrivacyFacet(0, 4); after >= mid {
		t.Fatalf("violation did not lower facet: %v >= %v", after, mid)
	}
}
