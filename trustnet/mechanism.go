package trustnet

import (
	"repro/internal/reputation"
	"repro/internal/reputation/anonrep"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/reputation/trustme"
)

// Mechanism is the pluggable scoring engine of the reputation facet
// (Marti & Garcia-Molina's "scoring and ranking" block). A custom
// mechanism must advance ScoresVersion whenever its ScoresView may have
// changed: the engine recomputes its trust gate only when the version
// moves.
type Mechanism = reputation.Mechanism

// Report is one feedback report: rater's rating of ratee for a
// transaction, in [0,1].
type Report = reputation.Report

// Whitewasher is implemented by mechanisms whose per-peer state can be
// reset to what a fresh identity would present (EigenTrust, TrustMe).
type Whitewasher = reputation.Whitewasher

// Convergence describes one iterative Compute run: iterations performed,
// final L1 residual, and whether the solver warm-started from the previous
// fixed point.
type Convergence = reputation.Convergence

// ConvergenceReporter is implemented by mechanisms whose Compute is an
// iterative solver reporting the diagnostics of its most recent run
// (EigenTrust, PowerTrust).
type ConvergenceReporter = reputation.ConvergenceReporter

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

// Mechanism configurations, for the standalone constructors NewEigenTrust
// and friends; an engine builds its mechanism from the Scenario's
// MechanismSpec instead.
type (
	// EigenTrustConfig parameterizes EigenTrust.
	EigenTrustConfig = eigentrust.Config
	// TrustMeConfig parameterizes TrustMe.
	TrustMeConfig = trustme.Config
	// PowerTrustConfig parameterizes PowerTrust.
	PowerTrustConfig = powertrust.Config
	// AnonRepConfig parameterizes AnonRep.
	AnonRepConfig = anonrep.Config
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

// NewPowerTrust builds a standalone PowerTrust mechanism.
func NewPowerTrust(cfg PowerTrustConfig) (*PowerTrustMechanism, error) {
	return powertrust.New(cfg)
}

// NewPowerTrustPlain builds the standalone PowerTrust ablation without the
// look-ahead walk.
func NewPowerTrustPlain(cfg PowerTrustConfig) (*PowerTrustMechanism, error) {
	return powertrust.NewPlain(cfg)
}

// NewAnonRep builds a standalone pseudonymous-reputation mechanism.
func NewAnonRep(cfg AnonRepConfig) (*AnonRepMechanism, error) {
	return anonrep.New(cfg)
}
