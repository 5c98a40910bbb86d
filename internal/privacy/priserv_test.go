package privacy

import (
	"errors"
	"testing"

	"repro/internal/dht"
	"repro/internal/sim"
	"repro/internal/social"
)

func newTestService(t *testing.T) (*Service, *Ledger, *sim.Sim) {
	t.Helper()
	ring := dht.NewRing(3)
	for i := 0; i < 16; i++ {
		if err := ring.Join(i); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize()
	ledger := NewLedger()
	s := sim.New()
	svc, err := NewService(ring, ledger, s)
	if err != nil {
		t.Fatal(err)
	}
	return svc, ledger, s
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(nil, NewLedger(), sim.New()); err == nil {
		t.Fatal("nil ring accepted")
	}
	if _, err := NewService(dht.NewRing(1), nil, sim.New()); err == nil {
		t.Fatal("nil ledger accepted")
	}
	if _, err := NewService(dht.NewRing(1), NewLedger(), nil); err == nil {
		t.Fatal("nil sim accepted")
	}
}

func TestPublishRequestGrant(t *testing.T) {
	svc, ledger, _ := newTestService(t)
	pol := allowAll()
	if err := svc.Publish(0, "u0/email", []byte("a@b.c"), social.Medium, pol); err != nil {
		t.Fatal(err)
	}
	data, dec, err := svc.Request(1, "u0/email", Read, SocialUse, 0.9, true)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed || string(data) != "a@b.c" {
		t.Fatalf("grant: dec=%+v data=%q", dec, data)
	}
	if svc.Grants != 1 {
		t.Fatalf("Grants = %d", svc.Grants)
	}
	if ledger.Len() != 1 || len(svc.Events()) != 1 {
		t.Fatal("grant not ledgered")
	}
	e := svc.Events()[0]
	if e.Owner != 0 || e.Recipient != 1 || !e.Consented || e.Purpose != SocialUse {
		t.Fatalf("trail event = %+v", e)
	}
}

func TestRequestDenied(t *testing.T) {
	svc, ledger, _ := newTestService(t)
	pol := DefaultPolicy(social.High) // friends-only, trust >= 0.8
	if err := svc.Publish(0, "u0/medical", []byte("x"), social.High, pol); err != nil {
		t.Fatal(err)
	}
	_, dec, err := svc.Request(1, "u0/medical", Read, SocialUse, 0.9, false)
	if !errors.Is(err, ErrDenied) || dec.Reason != DenyNotFriend {
		t.Fatalf("non-friend: err=%v dec=%+v", err, dec)
	}
	_, dec, err = svc.Request(1, "u0/medical", Read, SocialUse, 0.3, true)
	if !errors.Is(err, ErrDenied) || dec.Reason != DenyInsufficientTrust {
		t.Fatalf("low trust: err=%v dec=%+v", err, dec)
	}
	_, dec, err = svc.Request(1, "u0/medical", Read, CommercialUse, 0.9, true)
	if !errors.Is(err, ErrDenied) || dec.Reason != DenyPurpose {
		t.Fatalf("bad purpose: err=%v dec=%+v", err, dec)
	}
	if ledger.Len() != 0 {
		t.Fatal("denied requests must not be ledgered as disclosures")
	}
	if svc.Denials[DenyNotFriend] != 1 || svc.Denials[DenyInsufficientTrust] != 1 || svc.Denials[DenyPurpose] != 1 {
		t.Fatalf("denial counters = %v", svc.Denials)
	}
}

func TestQuotaEnforcedAcrossRequests(t *testing.T) {
	svc, _, _ := newTestService(t)
	pol := allowAll()
	pol.Conditions.MaxAccessesPerRequester = 2
	if err := svc.Publish(0, "k", []byte("v"), social.Low, pol); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Request(1, "k", Read, SocialUse, 1, true); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	_, dec, err := svc.Request(1, "k", Read, SocialUse, 1, true)
	if !errors.Is(err, ErrDenied) || dec.Reason != DenyQuotaExceeded {
		t.Fatalf("third access: err=%v dec=%+v", err, dec)
	}
	// A different requester still has quota.
	if _, _, err := svc.Request(2, "k", Read, SocialUse, 1, true); err != nil {
		t.Fatalf("other requester: %v", err)
	}
}

func TestUnknownKey(t *testing.T) {
	svc, _, _ := newTestService(t)
	if _, _, err := svc.Request(1, "ghost", Read, SocialUse, 1, true); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoublePublishRejected(t *testing.T) {
	svc, _, _ := newTestService(t)
	if err := svc.Publish(0, "k", []byte("v"), social.Low, allowAll()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Publish(1, "k", []byte("w"), social.Low, allowAll()); err == nil {
		t.Fatal("double publish accepted")
	}
}

func TestWithdraw(t *testing.T) {
	svc, _, _ := newTestService(t)
	if err := svc.Publish(0, "k", []byte("v"), social.Low, allowAll()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Withdraw(1, "k"); err == nil {
		t.Fatal("non-owner withdraw accepted")
	}
	if err := svc.Withdraw(0, "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Request(1, "k", Read, SocialUse, 1, true); !errors.Is(err, ErrUnknownKey) {
		t.Fatal("withdrawn key still served")
	}
	if _, ok := svc.PolicyOf("k"); ok {
		t.Fatal("withdrawn key policy still visible")
	}
	// Republish after withdraw is allowed.
	if err := svc.Publish(0, "k", []byte("v2"), social.Low, allowAll()); err != nil {
		t.Fatalf("republish: %v", err)
	}
}

func TestRetentionExpiry(t *testing.T) {
	svc, _, s := newTestService(t)
	pol := allowAll()
	pol.Retention = 100
	if err := svc.Publish(0, "k", []byte("v"), social.Medium, pol); err != nil {
		t.Fatal(err)
	}
	if _, dec, err := svc.Request(1, "k", Read, SocialUse, 1, true); err != nil || dec.ExpiresAt != 100 {
		t.Fatalf("grant: err=%v dec=%+v", err, dec)
	}
	if svc.LiveCopies("k") != 1 {
		t.Fatal("granted copy not tracked")
	}
	s.Run(50)
	if svc.OverdueCopies(s.Now()) != 0 || svc.LiveCopies("k") != 1 {
		t.Fatal("copy wrongly expired early")
	}
	s.Run(150)
	if svc.LiveCopies("k") != 0 {
		t.Fatal("copy not deleted at retention time")
	}
	if svc.OverdueCopies(s.Now()) != 0 {
		t.Fatal("overdue copies after expiry processing")
	}
}

func TestNotifyOwnerObligation(t *testing.T) {
	svc, _, _ := newTestService(t)
	pol := allowAll()
	pol.Obligations = []Obligation{NotifyOwner}
	if err := svc.Publish(0, "k", []byte("v"), social.Medium, pol); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Request(1, "k", Read, SocialUse, 1, true); err != nil {
		t.Fatal(err)
	}
	ns := svc.Notifications()
	if len(ns) != 1 || ns[0].Owner != 0 || ns[0].Requester != 1 || ns[0].Key != "k" {
		t.Fatalf("notifications = %+v", ns)
	}
}

func TestLeakIsLedgeredUnconsented(t *testing.T) {
	svc, ledger, _ := newTestService(t)
	if err := svc.Publish(0, "k", []byte("v"), social.High, allowAll()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Leak("k", 7); err != nil {
		t.Fatal(err)
	}
	v := svc.Violations()
	if len(v) != 1 || v[0].Recipient != 7 || v[0].Consented {
		t.Fatalf("violations = %+v", v)
	}
	if ledger.Len() != 1 || ledger.RespectRate(0) != 0 {
		t.Fatalf("ledger: Len %d, respect rate %v after one leak", ledger.Len(), ledger.RespectRate(0))
	}
	if err := svc.Leak("ghost", 7); err == nil {
		t.Fatal("leak of unknown key accepted")
	}
}

func TestVerifyIntegrity(t *testing.T) {
	svc, _, _ := newTestService(t)
	for i := 0; i < 10; i++ {
		if err := svc.Publish(i, keyFor(i), []byte{byte(i)}, social.Low, allowAll()); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func keyFor(i int) string { return "user/" + string(rune('a'+i)) }
