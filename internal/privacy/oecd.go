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

// Principles lists all eight in order.
func Principles() []Principle {
	return []Principle{
		CollectionLimitation, PurposeSpecification, UseLimitation, DataQuality,
		SecuritySafeguards, Openness, IndividualParticipation, Accountability,
	}
}

// AuditResult is one principle's conformance verdict.
type AuditResult struct {
	Principle Principle
	Pass      bool
	Detail    string
}

// Audit checks the privacy service and ledger against each OECD principle
// and returns one result per principle (the E9 conformance matrix). The
// disclosure trail comes from the service; the ledger's count must match it.
func Audit(svc *Service, ledger *Ledger, now sim.Time) []AuditResult {
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
	// enumerate them (EventsFor) — verified structurally: events about an
	// owner are retrievable, and together they are every disclosure the
	// ledger counted.
	counted := 0
	for owner := range ownersOf(svc) {
		counted += len(svc.EventsFor(owner))
	}
	ipPass := counted == ledger.Len()
	results = append(results, AuditResult{
		Principle: IndividualParticipation,
		Pass:      ipPass,
		Detail:    fmt.Sprintf("%d/%d events reachable via per-owner query", counted, ledger.Len()),
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

func ownersOf(svc *Service) map[int]bool {
	owners := make(map[int]bool)
	for _, e := range svc.Events() {
		owners[e.Owner] = true
	}
	return owners
}
