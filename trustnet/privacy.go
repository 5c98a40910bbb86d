package trustnet

import (
	"repro/internal/privacy"
	"repro/internal/sim"
)

// Sim is the discrete-event simulation clock the privacy service's
// retention expiries run on.
type Sim = sim.Sim

// VirtualTime is a point on the simulation clock.
type VirtualTime = sim.Time

// RNG is the deterministic, splittable random stream used throughout.
type RNG = sim.RNG

// NewSim creates an empty simulation at time zero.
func NewSim() *Sim { return sim.New() }

// NewRNG creates a seeded random stream.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// Ledger accounts for every piece of disclosed information; it backs the
// privacy facet (§2.3).
type Ledger = privacy.Ledger

// Disclosure is one ledgered information flow.
type Disclosure = privacy.Disclosure

// LedgerView reads an engine's disclosure ledger. Only the engine writes
// it: each consumer's preference overrides flag the providers its profile
// reached, and the ledger's profile counts must stay equal to those flags.
type LedgerView struct{ l *privacy.Ledger }

// Len returns the number of recorded disclosures, feedback reports
// included.
func (v LedgerView) Len() int { return v.l.Len() }

// NewLedger creates an empty disclosure ledger.
func NewLedger() *Ledger { return privacy.NewLedger() }

// Policy is one data item's P3P-style privacy policy — exactly the field
// list of §2.3.
type Policy = privacy.Policy

// PolicyConditions are the access conditions of a policy.
type PolicyConditions = privacy.Conditions

// Operation is an action a requester may perform on data.
type Operation = privacy.Operation

// Operations.
const (
	Read      = privacy.Read
	Write     = privacy.Write
	Share     = privacy.Share
	Aggregate = privacy.Aggregate
)

// Purpose is the declared reason for an access.
type Purpose = privacy.Purpose

// Purposes.
const (
	SocialUse      = privacy.SocialUse
	ReputationUse  = privacy.ReputationUse
	ResearchUse    = privacy.ResearchUse
	CommercialUse  = privacy.CommercialUse
	MaintenanceUse = privacy.MaintenanceUse
)

// Obligation is a duty attached to a granted access.
type Obligation = privacy.Obligation

// Obligations.
const (
	NotifyOwner    = privacy.NotifyOwner
	DeleteAfterUse = privacy.DeleteAfterUse
	NoForward      = privacy.NoForward
)

// DenyReason explains a denial, aligned with the policy clause that
// failed.
type DenyReason = privacy.DenyReason

// Decision is the outcome of evaluating a request against a policy.
type Decision = privacy.Decision

// DefaultPolicy derives a sensible policy from an item's sensitivity
// class: the more sensitive, the narrower the operations and purposes, the
// higher the trust bar, the shorter the retention.
func DefaultPolicy(sens Sensitivity) Policy { return privacy.DefaultPolicy(sens) }

// PrivacyService is the PriServ-style service: owners publish private data
// with a policy; requesters must present operation, purpose and a
// sufficient trust level; every grant is ledgered and retention is
// enforced by simulation events.
type PrivacyService = privacy.Service

// NewPrivacyService assembles the full privacy stack over a fresh
// DHT: `nodes` storage machines with the given replication factor, a new
// disclosure ledger, and the service wired to the simulation clock.
func NewPrivacyService(nodes, replicas int, s *Sim) (*PrivacyService, *Ledger, error) {
	return privacy.NewStandaloneService(nodes, replicas, s)
}

// AuditResult is one OECD principle's conformance verdict.
type AuditResult = privacy.AuditResult

// AuditPrivacy checks the service and ledger against the OECD guideline
// principles of §2.3.
func AuditPrivacy(svc *PrivacyService, ledger *Ledger, now VirtualTime) []AuditResult {
	return privacy.Audit(svc, ledger, now)
}
