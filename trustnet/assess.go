package trustnet

import (
	"context"

	"repro/internal/core"
)

// Assessment carries the per-user facets extracted from a running scenario
// plus the shared reputation-power measurement.
type Assessment = core.Assessment

// UserAssessment is one user's view in a batch assessment: her measured
// facets and the combined metric Φ under her weight profile.
type UserAssessment struct {
	User   int
	Facets Facets
	// Trust is the instantaneous combined metric Φ(facets, weights) under
	// the user's effective weight profile — not the inertia-smoothed trust
	// the TrustModel tracks across epochs.
	Trust float64
}

// Assess is the single-shot path: measure the three facets of the scenario
// as it stands (§2.1–2.3 extraction, see the Assessment fields), through
// the same reader the epoch boundary uses. It is a pure read: the scores
// are the mechanism's as of its last Compute — every epoch ends with one —
// and calling it never changes the run.
func (e *Engine) Assess() Assessment {
	return core.Assess(e.WorkloadEngine())
}

// AssessAll is the batch path: one facet measurement (a pure read, as
// Assess), then every user's combined trust, in user order. The context is
// checked before each user and wins over a combine error; among combine
// errors, the lowest user's is returned.
func (e *Engine) AssessAll(ctx context.Context) ([]UserAssessment, error) {
	a := e.Assess()
	tm := e.dyn.TrustModel()
	out := make([]UserAssessment, len(a.PerUser))
	for u, f := range a.PerUser {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trust, err := core.Combine(f, tm.UserWeights(u))
		if err != nil {
			return nil, err
		}
		out[u] = UserAssessment{User: u, Facets: f, Trust: trust}
	}
	return out, nil
}
