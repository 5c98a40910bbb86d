// Package privacy implements the paper's privacy facet (§2.3): P3P-inspired
// privacy policies ("PPs should consider authorized users, allowed
// operations, access purposes, access conditions, retention time,
// obligations and the minimal trust level necessary to allow data access"),
// a PriServ-style privacy service for publishing and requesting private data
// over the DHT, whose ledger accounts for every piece of shared information,
// and an OECD-guidelines audit.
package privacy

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/social"
)

// Operation is an action a requester may perform on data.
type Operation int

// Operations.
const (
	Read Operation = iota + 1
	Write
	Share
	Aggregate // statistical use, e.g. by the reputation mechanism
)

// Purpose is the declared reason for an access (P3P purpose specification).
type Purpose int

// Purposes.
const (
	SocialUse Purpose = iota + 1
	ReputationUse
	ResearchUse
	CommercialUse
	MaintenanceUse
)

// Obligation is a duty attached to a granted access.
type Obligation int

// Obligations.
const (
	NotifyOwner Obligation = iota + 1
	DeleteAfterUse
	NoForward
)

// Conditions are the access conditions of a policy.
type Conditions struct {
	// FriendsOnly restricts access to the owner's friends.
	FriendsOnly bool
	// MaxAccessesPerRequester caps how many times one requester may access
	// the item (0 = unlimited).
	MaxAccessesPerRequester int
}

// Policy is one data item's privacy policy — exactly the field list of §2.3.
type Policy struct {
	// AuthorizedUsers limits who may access; empty means anyone (subject to
	// the other clauses).
	AuthorizedUsers map[int]bool
	// Operations lists the allowed operations; empty means none.
	Operations map[Operation]bool
	// Purposes lists the acceptable purposes; empty means none.
	Purposes map[Purpose]bool
	// Conditions are additional access conditions.
	Conditions Conditions
	// Retention is how long (in simulation ticks) a granted copy may be
	// retained before mandatory deletion; 0 means no retention limit.
	Retention sim.Time
	// Obligations attach to every grant.
	Obligations []Obligation
	// MinTrustLevel is the minimal requester trust level required (§2.3's
	// "minimal trust level necessary to allow data access").
	MinTrustLevel float64
}

// DenyReason explains a denial.
type DenyReason int

// Denial reasons, aligned with the policy clause that failed.
const (
	DenyNone DenyReason = iota
	DenyUnauthorizedUser
	DenyOperation
	DenyPurpose
	DenyNotFriend
	DenyQuotaExceeded
	DenyInsufficientTrust
)

// String returns the reason name.
func (d DenyReason) String() string {
	switch d {
	case DenyNone:
		return "allowed"
	case DenyUnauthorizedUser:
		return "unauthorized-user"
	case DenyOperation:
		return "operation-not-allowed"
	case DenyPurpose:
		return "purpose-not-allowed"
	case DenyNotFriend:
		return "not-a-friend"
	case DenyQuotaExceeded:
		return "quota-exceeded"
	case DenyInsufficientTrust:
		return "insufficient-trust"
	default:
		return fmt.Sprintf("deny(%d)", int(d))
	}
}

// Request is one access request against a policy.
type Request struct {
	Requester int
	Owner     int
	Operation Operation
	Purpose   Purpose
	// RequesterTrust is the requester's trust level as established by the
	// reputation layer.
	RequesterTrust float64
	// IsFriend reports whether requester is the owner's friend.
	IsFriend bool
	// PriorAccesses is how many times this requester has already accessed
	// the item.
	PriorAccesses int
}

// Decision is the outcome of evaluating a request.
type Decision struct {
	Allowed     bool
	Reason      DenyReason
	Obligations []Obligation
	// ExpiresAt is when the granted copy must be deleted (zero when the
	// policy has no retention limit or the request was denied).
	ExpiresAt sim.Time
}

// Evaluate checks the request against the policy at virtual time now.
// The owner always has full access to their own data (OECD individual
// participation).
func (p Policy) Evaluate(req Request, now sim.Time) Decision {
	if req.Requester == req.Owner {
		return Decision{Allowed: true}
	}
	if len(p.AuthorizedUsers) > 0 && !p.AuthorizedUsers[req.Requester] {
		return Decision{Reason: DenyUnauthorizedUser}
	}
	if !p.Operations[req.Operation] {
		return Decision{Reason: DenyOperation}
	}
	if !p.Purposes[req.Purpose] {
		return Decision{Reason: DenyPurpose}
	}
	if p.Conditions.FriendsOnly && !req.IsFriend {
		return Decision{Reason: DenyNotFriend}
	}
	if q := p.Conditions.MaxAccessesPerRequester; q > 0 && req.PriorAccesses >= q {
		return Decision{Reason: DenyQuotaExceeded}
	}
	if req.RequesterTrust < p.MinTrustLevel {
		return Decision{Reason: DenyInsufficientTrust}
	}
	d := Decision{Allowed: true, Obligations: append([]Obligation(nil), p.Obligations...)}
	if p.Retention > 0 {
		d.ExpiresAt = now + p.Retention
	}
	return d
}

// DefaultPolicy derives a sensible policy from an item's sensitivity class,
// mirroring how the experiments configure user preferences: the more
// sensitive, the narrower the operations/purposes, the higher the trust bar
// and the shorter the retention.
func DefaultPolicy(sens social.Sensitivity) Policy {
	switch sens {
	case social.Public:
		return Policy{
			Operations: map[Operation]bool{Read: true, Share: true, Aggregate: true},
			Purposes: map[Purpose]bool{
				SocialUse: true, ReputationUse: true, ResearchUse: true,
				CommercialUse: true, MaintenanceUse: true,
			},
		}
	case social.Low:
		return Policy{
			Operations:    map[Operation]bool{Read: true, Aggregate: true},
			Purposes:      map[Purpose]bool{SocialUse: true, ReputationUse: true, ResearchUse: true},
			MinTrustLevel: 0.2,
		}
	case social.Medium:
		return Policy{
			Operations:    map[Operation]bool{Read: true, Aggregate: true},
			Purposes:      map[Purpose]bool{SocialUse: true, ReputationUse: true},
			Conditions:    Conditions{FriendsOnly: true},
			MinTrustLevel: 0.5,
			Retention:     1000,
			Obligations:   []Obligation{NoForward},
		}
	default: // High and anything stricter
		return Policy{
			Operations:    map[Operation]bool{Read: true},
			Purposes:      map[Purpose]bool{SocialUse: true},
			Conditions:    Conditions{FriendsOnly: true, MaxAccessesPerRequester: 3},
			MinTrustLevel: 0.8,
			Retention:     200,
			Obligations:   []Obligation{NotifyOwner, DeleteAfterUse, NoForward},
		}
	}
}

// SensitivityWeight converts a sensitivity class into the exposure weight
// used by the disclosure ledger (more sensitive data costs more privacy
// when disclosed).
func SensitivityWeight(s social.Sensitivity) float64 {
	switch s {
	case social.Public:
		return 0
	case social.Low:
		return 0.2
	case social.Medium:
		return 0.5
	case social.High:
		return 1.0
	default:
		return 1.0
	}
}

// ItemExposure is the exposure one disclosed item adds: its sensitivity
// weight × log2(1 + its distinct recipients). The product is rounded on its
// own, so adding it to a running exposure never fuses into one rounding.
func ItemExposure(weight float64, recipients int64) float64 {
	return float64(weight * math.Log2(1+float64(recipients)))
}

// Facet is a user's privacy satisfaction P_u, the paper's "satisfaction in
// terms of privacy guarantees": the respect rate of the user's policies
// times how much information did NOT have to be shared, 1 − x/(x+scale) for
// exposure x. scale is the exposure at which a user counts as half exposed
// (clamped to >= 1). The PriServ service and the workload engine both
// compute their facets with it.
func Facet(respect, exposure, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return respect * (1 - exposure/(exposure+scale))
}
