package trustnet

import (
	"fmt"
	"sync/atomic"

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

// MechanismFactory builds a fresh mechanism sized for n peers. Scenario
// runners call the factory once per evaluation, so settings never
// contaminate each other.
type MechanismFactory = reputation.Factory

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

// Mechanism configurations. The N field is overridden by factories with the
// engine's peer count; set it only when constructing standalone mechanisms
// with NewEigenTrust and friends.
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

// EigenTrust returns a factory for the EigenTrust mechanism; cfg.N is
// replaced by the engine's peer count.
func EigenTrust(cfg EigenTrustConfig) MechanismFactory {
	return func(n int) (Mechanism, error) {
		c := cfg // copy: one factory value may be shared across engines
		c.N = n
		return eigentrust.New(c)
	}
}

// TrustMe returns a factory for the TrustMe mechanism; cfg.N is replaced
// by the engine's peer count.
func TrustMe(cfg TrustMeConfig) MechanismFactory {
	return func(n int) (Mechanism, error) {
		c := cfg // copy: one factory value may be shared across engines
		c.N = n
		return trustme.New(c)
	}
}

// PowerTrust returns a factory for the PowerTrust mechanism (look-ahead
// random walk); cfg.N is replaced by the engine's peer count.
func PowerTrust(cfg PowerTrustConfig) MechanismFactory {
	return func(n int) (Mechanism, error) {
		c := cfg // copy: one factory value may be shared across engines
		c.N = n
		return powertrust.New(c)
	}
}

// PowerTrustPlain returns a factory for the PowerTrust ablation without
// the look-ahead walk; cfg.N is replaced by the engine's peer count.
func PowerTrustPlain(cfg PowerTrustConfig) MechanismFactory {
	return func(n int) (Mechanism, error) {
		c := cfg // copy: one factory value may be shared across engines
		c.N = n
		return powertrust.NewPlain(c)
	}
}

// AnonRep returns a factory for the pseudonymous-reputation mechanism;
// cfg.N is replaced by the engine's peer count.
func AnonRep(cfg AnonRepConfig) MechanismFactory {
	return func(n int) (Mechanism, error) {
		c := cfg // copy: one factory value may be shared across engines
		c.N = n
		return anonrep.New(c)
	}
}

// NoReputation returns a factory for the no-reputation baseline: every
// peer scores the same neutral value.
func NoReputation() MechanismFactory {
	return func(n int) (Mechanism, error) {
		return reputation.NewNone(n), nil
	}
}

// UseMechanism wraps an already-constructed mechanism as a factory, for
// callers that need to keep the concrete handle. The mechanism must be
// sized for the engine's peer count; the factory cannot verify that, so
// prefer the config-based factories otherwise.
//
// The factory is single-use: the explorer calls factories once per
// evaluated point and relies on each point getting a fresh, uncontaminated
// mechanism, which a shared instance cannot provide. A second call returns
// an error instead of silently cross-contaminating evaluations.
func UseMechanism(m Mechanism) MechanismFactory {
	var used atomic.Bool
	return func(int) (Mechanism, error) {
		if m == nil {
			return nil, fmt.Errorf("trustnet: nil mechanism")
		}
		if used.Swap(true) {
			return nil, fmt.Errorf(
				"trustnet: UseMechanism factory is single-use (%s already handed out); use a config-based factory for exploration", m.Name())
		}
		return m, nil
	}
}

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
