package core

import "fmt"

// Setting is one point in the settable-configuration space of §4 / Fig. 2:
// how much information participants share (the privacy/reputation
// antagonism's driver), and how strictly privacy policies gate service via
// their minimal-trust clause.
type Setting struct {
	// Disclosure δ ∈ [0,1]: the quantity of shared information.
	Disclosure float64
	// TrustGate σ ∈ [0,1): the strictness of the policies' MinTrustLevel
	// clause (quantile form, see workload.Config.TrustGate).
	TrustGate float64
}

// Point is an evaluated setting.
type Point struct {
	Setting Setting
	// Global holds the measured global facets at this setting.
	Global Facets
	// Trust is the generic metric Φ applied to the global facets.
	Trust float64
}

// Constraints are minimum facet levels an application context imposes (§4:
// "maximize the users' trust towards the system while respecting the
// system/application constrains").
type Constraints struct {
	MinSatisfaction, MinReputation, MinPrivacy float64
}

// ErrInfeasible is returned when no explored setting meets the constraints
// (the trustnet optimizer surfaces it).
var ErrInfeasible = fmt.Errorf("core: no setting satisfies the constraints")
