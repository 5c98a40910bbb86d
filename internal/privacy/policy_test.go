package privacy

import (
	"testing"

	"repro/internal/social"
)

func allowAll() Policy {
	return Policy{
		Operations: map[Operation]bool{Read: true, Share: true, Aggregate: true, Write: true},
		Purposes: map[Purpose]bool{
			SocialUse: true, ReputationUse: true, ResearchUse: true,
			CommercialUse: true, MaintenanceUse: true,
		},
	}
}

func TestOwnerAlwaysAllowed(t *testing.T) {
	p := Policy{} // deny-everything policy
	d := p.Evaluate(Request{Requester: 3, Owner: 3, Operation: Write, Purpose: CommercialUse}, 0)
	if !d.Allowed {
		t.Fatal("owner denied access to own data")
	}
}

func TestAuthorizedUsersClause(t *testing.T) {
	p := allowAll()
	p.AuthorizedUsers = map[int]bool{1: true}
	if d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Read, Purpose: SocialUse}, 0); !d.Allowed {
		t.Fatalf("authorized user denied: %v", d.Reason)
	}
	d := p.Evaluate(Request{Requester: 2, Owner: 0, Operation: Read, Purpose: SocialUse}, 0)
	if d.Allowed || d.Reason != DenyUnauthorizedUser {
		t.Fatalf("unauthorized user: %+v", d)
	}
}

func TestOperationClause(t *testing.T) {
	p := allowAll()
	p.Operations = map[Operation]bool{Read: true}
	d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Write, Purpose: SocialUse}, 0)
	if d.Allowed || d.Reason != DenyOperation {
		t.Fatalf("disallowed operation: %+v", d)
	}
}

func TestPurposeClause(t *testing.T) {
	p := allowAll()
	p.Purposes = map[Purpose]bool{SocialUse: true}
	d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Read, Purpose: CommercialUse}, 0)
	if d.Allowed || d.Reason != DenyPurpose {
		t.Fatalf("disallowed purpose: %+v", d)
	}
}

func TestFriendsOnlyClause(t *testing.T) {
	p := allowAll()
	p.Conditions.FriendsOnly = true
	d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Read, Purpose: SocialUse, IsFriend: false}, 0)
	if d.Allowed || d.Reason != DenyNotFriend {
		t.Fatalf("non-friend: %+v", d)
	}
	if d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Read, Purpose: SocialUse, IsFriend: true}, 0); !d.Allowed {
		t.Fatalf("friend denied: %v", d.Reason)
	}
}

func TestQuotaClause(t *testing.T) {
	p := allowAll()
	p.Conditions.MaxAccessesPerRequester = 2
	req := Request{Requester: 1, Owner: 0, Operation: Read, Purpose: SocialUse}
	req.PriorAccesses = 1
	if d := p.Evaluate(req, 0); !d.Allowed {
		t.Fatalf("under-quota denied: %v", d.Reason)
	}
	req.PriorAccesses = 2
	d := p.Evaluate(req, 0)
	if d.Allowed || d.Reason != DenyQuotaExceeded {
		t.Fatalf("over-quota: %+v", d)
	}
}

func TestMinTrustClause(t *testing.T) {
	p := allowAll()
	p.MinTrustLevel = 0.6
	d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Read, Purpose: SocialUse, RequesterTrust: 0.5}, 0)
	if d.Allowed || d.Reason != DenyInsufficientTrust {
		t.Fatalf("low-trust requester: %+v", d)
	}
	if d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Read, Purpose: SocialUse, RequesterTrust: 0.6}, 0); !d.Allowed {
		t.Fatalf("sufficient trust denied: %v", d.Reason)
	}
}

func TestRetentionAndObligations(t *testing.T) {
	p := allowAll()
	p.Retention = 100
	p.Obligations = []Obligation{NotifyOwner, NoForward}
	d := p.Evaluate(Request{Requester: 1, Owner: 0, Operation: Read, Purpose: SocialUse}, 50)
	if !d.Allowed {
		t.Fatalf("denied: %v", d.Reason)
	}
	if d.ExpiresAt != 150 {
		t.Fatalf("ExpiresAt = %d, want 150", d.ExpiresAt)
	}
	if len(d.Obligations) != 2 {
		t.Fatalf("obligations = %v", d.Obligations)
	}
	// Mutating the returned obligations must not corrupt the policy.
	d.Obligations[0] = DeleteAfterUse
	d2 := p.Evaluate(Request{Requester: 2, Owner: 0, Operation: Read, Purpose: SocialUse}, 0)
	if d2.Obligations[0] != NotifyOwner {
		t.Fatal("Decision aliased policy obligations")
	}
}

func TestDefaultPoliciesTightenWithSensitivity(t *testing.T) {
	pub := DefaultPolicy(social.Public)
	low := DefaultPolicy(social.Low)
	med := DefaultPolicy(social.Medium)
	high := DefaultPolicy(social.High)

	if pub.MinTrustLevel >= low.MinTrustLevel || low.MinTrustLevel >= med.MinTrustLevel ||
		med.MinTrustLevel >= high.MinTrustLevel {
		t.Fatal("trust bars not monotone in sensitivity")
	}
	if len(pub.Purposes) <= len(high.Purposes) {
		t.Fatal("purpose sets not narrowing")
	}
	if !med.Conditions.FriendsOnly || !high.Conditions.FriendsOnly {
		t.Fatal("medium/high not friends-only")
	}
	if high.Retention == 0 || med.Retention == 0 {
		t.Fatal("sensitive data without retention limit")
	}
	if high.Retention >= med.Retention {
		t.Fatal("high retention not shorter than medium")
	}
	// Public data is free to aggregate (reputation can use it).
	if !pub.Operations[Aggregate] {
		t.Fatal("public data not aggregatable")
	}
}

func TestSensitivityWeightMonotone(t *testing.T) {
	w := []float64{
		SensitivityWeight(social.Public),
		SensitivityWeight(social.Low),
		SensitivityWeight(social.Medium),
		SensitivityWeight(social.High),
	}
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Fatalf("weights not strictly increasing: %v", w)
		}
	}
	if SensitivityWeight(social.Sensitivity(99)) != 1 {
		t.Fatal("unknown sensitivity should be treated as maximally sensitive")
	}
}

func TestStringers(t *testing.T) {
	if DenyInsufficientTrust.String() != "insufficient-trust" || DenyNone.String() != "allowed" {
		t.Fatal("reason names")
	}
	if DenyReason(9).String() == "" {
		t.Fatal("unknown enum empty name")
	}
}
