package privacy

import (
	"testing"

	"repro/internal/social"
)

// Principles lists all eight in order.
func Principles() []Principle {
	return []Principle{
		CollectionLimitation, PurposeSpecification, UseLimitation, DataQuality,
		SecuritySafeguards, Openness, IndividualParticipation, Accountability,
	}
}

func runCleanWorkload(t *testing.T) *Service {
	t.Helper()
	svc, s := newTestService(t)
	pol := allowAll()
	pol.Retention = 50
	for i := 0; i < 5; i++ {
		if err := svc.Publish(i, keyFor(i), []byte("data"), social.Medium, pol); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 5; r++ {
		for k := 0; k < 5; k++ {
			if r == k {
				continue
			}
			if _, _, err := svc.Request(r, keyFor(k), Read, SocialUse, 1, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Run(200) // process retention expiries
	return svc
}

func TestAuditCleanSystemPassesAll(t *testing.T) {
	svc := runCleanWorkload(t)
	results := Audit(svc, 200)
	if len(results) != 8 {
		t.Fatalf("audit returned %d principles", len(results))
	}
	seen := map[Principle]bool{}
	for _, r := range results {
		seen[r.Principle] = true
		if !r.Pass {
			t.Fatalf("principle %v failed on clean system: %s", r.Principle, r.Detail)
		}
	}
	for _, p := range Principles() {
		if !seen[p] {
			t.Fatalf("principle %v missing from audit", p)
		}
	}
}

func TestAuditDetectsLeak(t *testing.T) {
	svc := runCleanWorkload(t)
	if err := svc.Leak(keyFor(0), 99); err != nil {
		t.Fatal(err)
	}
	results := Audit(svc, 200)
	byP := map[Principle]AuditResult{}
	for _, r := range results {
		byP[r.Principle] = r
	}
	if byP[CollectionLimitation].Pass {
		t.Fatal("collection limitation passed despite leak")
	}
	// Accountability still passes: the leak IS in the ledger.
	if !byP[Accountability].Pass {
		t.Fatal("accountability failed although leak was ledgered")
	}
}

func TestAuditDetectsOverdueCopies(t *testing.T) {
	svc, _ := newTestService(t)
	pol := allowAll()
	pol.Retention = 10
	if err := svc.Publish(0, "k", []byte("v"), social.Medium, pol); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Request(1, "k", Read, SocialUse, 1, true); err != nil {
		t.Fatal(err)
	}
	// Audit at a time past the retention WITHOUT running the simulation:
	// the deletion event never fired, so the copy is overdue.
	results := Audit(svc, 1000)
	for _, r := range results {
		if r.Principle == SecuritySafeguards && r.Pass {
			t.Fatal("security safeguards passed with an overdue copy")
		}
	}
}

func TestAuditDetectsPurposeMisuse(t *testing.T) {
	svc, _ := newTestService(t)
	if err := svc.Publish(0, "k", []byte("v"), social.Low, allowAll()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Request(1, "k", Read, SocialUse, 1, true); err != nil {
		t.Fatal(err)
	}
	// The owner later tightens the policy; the audit now flags the old
	// grant's purpose as outside the current policy (use limitation is
	// checked against the policy of record).
	m := svc.registry["k"]
	m.policy.Purposes = map[Purpose]bool{ReputationUse: true}
	results := Audit(svc, 0)
	for _, r := range results {
		if r.Principle == UseLimitation && r.Pass {
			t.Fatal("use limitation passed despite purpose outside policy")
		}
	}
}

func TestPrincipleStrings(t *testing.T) {
	for _, p := range Principles() {
		if p.String() == "" {
			t.Fatalf("empty name for %d", int(p))
		}
	}
	if Principle(99).String() == "" {
		t.Fatal("unknown principle empty name")
	}
}
