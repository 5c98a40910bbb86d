package trustnet

import (
	"repro/internal/reputation"
	"repro/internal/reputation/anonrep"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/reputation/trustme"
)

// Mechanism is the scoring engine of the reputation facet (Marti &
// Garcia-Molina's "scoring and ranking" block). An engine builds its own
// from the Scenario's MechanismSpec; Engine.Mechanism returns it, and
// NewEigenTrust and NewTrustMe build standalone ones.
type Mechanism = reputation.Mechanism

// Report is one feedback report: rater's rating of ratee for a
// transaction, in [0,1].
type Report = reputation.Report

// Concrete mechanism types, for callers that need the implementation-
// specific surface (TrustMe's message counter, AnonRep's epochs, ...).
type (
	// EigenTrustMechanism is the EigenTrust scoring engine (Kamvar et al.).
	EigenTrustMechanism = eigentrust.Mechanism
	// TrustMeMechanism is the TrustMe scoring engine (Singh & Liu).
	TrustMeMechanism = trustme.Mechanism
	// PowerTrustMechanism is the PowerTrust scoring engine (Zhou & Hwang).
	PowerTrustMechanism = powertrust.Mechanism
	// AnonRepMechanism is the pseudonymous-reputation engine modelling the
	// anonymity/accuracy trade-off of the paper's §2.2 citations.
	AnonRepMechanism = anonrep.Mechanism
)

// Mechanism configurations, for the standalone constructors; an engine
// builds its mechanism from the Scenario's MechanismSpec instead.
type (
	// EigenTrustConfig parameterizes EigenTrust.
	EigenTrustConfig = eigentrust.Config
	// TrustMeConfig parameterizes TrustMe.
	TrustMeConfig = trustme.Config
)

// Standalone constructors, for programs that drive a mechanism directly
// (submit reports, recompute, whitewash) without a workload engine. Here
// cfg.N is required.

// NewEigenTrust builds a standalone EigenTrust mechanism.
func NewEigenTrust(cfg EigenTrustConfig) (*EigenTrustMechanism, error) {
	return eigentrust.New(cfg)
}

// NewTrustMe builds a standalone TrustMe mechanism.
func NewTrustMe(cfg TrustMeConfig) (*TrustMeMechanism, error) {
	return trustme.New(cfg)
}
