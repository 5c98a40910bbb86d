package privacy

import (
	"fmt"

	"repro/internal/sim"
)

// Principle enumerates the eight OECD privacy principles the paper lists in
// §2.3.
type Principle int

// The OECD guidelines (1980), in the paper's order.
const (
	CollectionLimitation Principle = iota + 1
	PurposeSpecification
	UseLimitation
	DataQuality
	SecuritySafeguards
	Openness
	IndividualParticipation
	Accountability
)

// String returns the principle name.
func (p Principle) String() string {
	switch p {
	case CollectionLimitation:
		return "collection-limitation"
	case PurposeSpecification:
		return "purpose-specification"
	case UseLimitation:
		return "use-limitation"
	case DataQuality:
		return "data-quality"
	case SecuritySafeguards:
		return "security-safeguards"
	case Openness:
		return "openness"
	case IndividualParticipation:
		return "individual-participation"
	case Accountability:
		return "accountability"
	default:
		return fmt.Sprintf("principle(%d)", int(p))
	}
}

// AuditResult is one principle's conformance verdict.
type AuditResult struct {
	Principle Principle
	Pass      bool
	Detail    string
}

// Audit checks the privacy service against each OECD principle and returns
// one result per principle (the E9 conformance matrix).
func Audit(svc *Service, now sim.Time) []AuditResult {
	results := make([]AuditResult, 0, 8)

	// 1. Collection limitation: no data flowed without consent.
	viol := len(svc.Violations())
	results = append(results, AuditResult{
		Principle: CollectionLimitation,
		Pass:      viol == 0,
		Detail:    fmt.Sprintf("%d unconsented disclosures", viol),
	})

	// 2. Purpose specification: every disclosure declared a purpose.
	unspecified := 0
	for _, e := range svc.Events() {
		if e.Purpose == 0 {
			unspecified++
		}
	}
	results = append(results, AuditResult{
		Principle: PurposeSpecification,
		Pass:      unspecified == 0,
		Detail:    fmt.Sprintf("%d disclosures without declared purpose", unspecified),
	})

	// 3. Use limitation: every consented disclosure's purpose was allowed
	// by the item's policy at audit time.
	misuse := 0
	for _, e := range svc.Events() {
		if !e.Consented {
			continue
		}
		pol, ok := svc.PolicyOf(e.Item)
		if !ok {
			continue // item withdrawn since; grant predates withdrawal
		}
		owner, _ := svc.OwnerOf(e.Item)
		if e.Recipient == owner {
			continue // owners always access their own data
		}
		if !pol.Purposes[e.Purpose] {
			misuse++
		}
	}
	results = append(results, AuditResult{
		Principle: UseLimitation,
		Pass:      misuse == 0,
		Detail:    fmt.Sprintf("%d grants outside policy purposes", misuse),
	})

	// 4. Data quality: stored data matches what the owner published.
	dqErr := svc.VerifyIntegrity()
	dqDetail := "all live items match publisher digests"
	if dqErr != nil {
		dqDetail = dqErr.Error()
	}
	results = append(results, AuditResult{
		Principle: DataQuality,
		Pass:      dqErr == nil,
		Detail:    dqDetail,
	})

	// 5. Security safeguards: retention enforced (no overdue copies) and
	// storage sealed (covered by the same integrity pass).
	overdue := svc.OverdueCopies(now)
	results = append(results, AuditResult{
		Principle: SecuritySafeguards,
		Pass:      overdue == 0 && dqErr == nil,
		Detail:    fmt.Sprintf("%d copies past retention", overdue),
	})

	// 6. Openness: every live item's policy is queryable.
	unreadable := 0
	for _, k := range svc.Keys() {
		if _, ok := svc.PolicyOf(k); !ok {
			unreadable++
		}
	}
	results = append(results, AuditResult{
		Principle: Openness,
		Pass:      unreadable == 0,
		Detail:    fmt.Sprintf("%d live items with unreadable policies", unreadable),
	})

	// 7. Individual participation: every owner with disclosures can
	// enumerate them (EventsFor) and read the facet they add up to. One pass
	// over the trail counts each owner's events; an owner's events are
	// reachable when the owner's record counts exactly as many.
	perOwner := make(map[int]int64)
	for _, e := range svc.Events() {
		perOwner[e.Owner]++
	}
	counted := 0
	for owner, n := range perOwner {
		if a := svc.owners[owner]; a != nil && a.total == n {
			counted += int(n)
		}
	}
	results = append(results, AuditResult{
		Principle: IndividualParticipation,
		Pass:      counted == len(svc.Events()),
		Detail:    fmt.Sprintf("%d/%d events reachable via per-owner query", counted, len(svc.Events())),
	})

	// 8. Accountability: every grant the service made is ledgered.
	consented := int64(0)
	for _, e := range svc.Events() {
		if e.Consented {
			consented++
		}
	}
	results = append(results, AuditResult{
		Principle: Accountability,
		Pass:      consented == svc.Grants,
		Detail:    fmt.Sprintf("%d grants vs %d ledgered consented disclosures", svc.Grants, consented),
	})

	return results
}
