package trustnet

import (
	"repro/internal/privacy"
	"repro/internal/sim"
	"repro/internal/workload"
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

// LedgerView reads an engine's disclosure accounting. Only the engine
// writes it: one disclosure per served interaction (the consumer's profile
// reaching the provider) and one per feedback report shared with the
// mechanism.
type LedgerView struct{ e *workload.Engine }

// Len returns the number of recorded disclosures, feedback reports
// included.
func (v LedgerView) Len() int { return int(v.e.Disclosures()) }

// Policy is one data item's P3P-style privacy policy — exactly the field
// list of §2.3.
type Policy = privacy.Policy

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
// enforced by simulation events. Its per-owner record answers Exposure,
// RespectRate and PrivacyFacet (§2.3).
type PrivacyService = privacy.Service

// NewPrivacyService assembles the full privacy stack over a fresh
// DHT: `nodes` storage machines with the given replication factor and the
// service wired to the simulation clock.
func NewPrivacyService(nodes, replicas int, s *Sim) (*PrivacyService, error) {
	return privacy.NewStandaloneService(nodes, replicas, s)
}

// AuditResult is one OECD principle's conformance verdict.
type AuditResult = privacy.AuditResult

// AuditPrivacy checks the service against the OECD guideline principles of
// §2.3.
func AuditPrivacy(svc *PrivacyService, now VirtualTime) []AuditResult {
	return privacy.Audit(svc, now)
}
