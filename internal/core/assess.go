package core

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Assessment carries the per-user facets extracted from a running scenario
// plus the shared reputation-power measurement.
type Assessment struct {
	PerUser []Facets
	// Power is the reputation facet shared by every user (the mechanism is
	// a system-wide artifact): measured power damped by the community
	// conclusion.
	Power float64
	// Tau and Separation are Power's two components: rank consistency with
	// realized behaviour, and good/bad discrimination (AUC).
	Tau        float64
	Separation float64
	// Community is the mechanism's conclusion about the population: the
	// fraction of rated peers it considers trustworthy (1 for mechanisms
	// that draw no such conclusion). §3: "the set of those levels may
	// indicate the trustworthy of the global system".
	Community float64
}

// reputationReading is one measurement of the shared reputation facet.
type reputationReading struct {
	tau        float64
	separation float64 // AUC, or tau mapped to [0,1] when the AUC is undefined
	community  float64
	facet      float64 // power damped by the community conclusion
}

// facetMeter holds the reusable sample of the one facet reader, so the
// epoch boundary measures without allocating once its storage has grown.
type facetMeter struct {
	sample metrics.RankSample
}

// measure reads the shared reputation facet off the engine: the mean of
// (a) rank consistency of the mechanism's scores with realized behaviour
// (Kendall tau mapped to [0,1]) and (b) the probability that a
// well-behaved peer outranks a misbehaved one (AUC; good = realized
// quality >= 0.5), both over the providers that ever served and both read
// off one ordering of them by score, damped by the mechanism's community
// conclusion (§3 claim 4). It only reads: the scores are the mechanism's as
// of its last Compute.
func (m *facetMeter) measure(e *workload.Engine) reputationReading {
	scores := e.Mechanism().ScoresView()
	m.sample.Reset()
	for _, p := range e.ServedProviders() {
		m.sample.Add(scores[p], e.ProviderQuality(p))
	}
	var r reputationReading
	r.tau, r.separation = m.sample.Read()
	tau01 := float64((r.tau + 1) / 2)
	power := tau01
	if math.IsNaN(r.separation) {
		r.separation = tau01
	} else {
		power = (tau01 + r.separation) / 2
	}
	r.community = e.Mechanism().TrustworthyFraction()
	r.facet = power * (0.5 + float64(0.5*r.community))
	return r
}

// Assess extracts all three facets from a workload engine.
//
//   - Satisfaction: the user's long-run satisfaction, averaged over her
//     consumer and provider roles (§2.1).
//   - Reputation: the mechanism's power, measured as the epoch boundary
//     measures it (see facetMeter.measure). Both components are
//     calibration-free: mechanisms report scores on incomparable scales
//     (§4: "consistency with the reality").
//   - Privacy: the privacy facet (policy respect × retained information,
//     §2.3), 1 for a user who disclosed nothing.
//
// Assess is a pure read: it reads the scores as of the mechanism's last
// Compute (every epoch ends with one) and never refreshes the engine's
// facet cache, so calling it does not change the run.
func Assess(e *workload.Engine) Assessment {
	var m facetMeter
	r := m.measure(e)
	per := make([]Facets, e.Network().N())
	for u := range per {
		per[u] = Facets{
			Satisfaction: e.UserSatisfaction(u),
			Reputation:   r.facet,
			Privacy:      e.PrivacyFacetOf(u),
		}
	}
	return Assessment{PerUser: per, Power: r.facet, Tau: r.tau, Separation: r.separation, Community: r.community}
}

// GlobalFacets averages an assessment into a single Facets value. The means
// are folded directly over PerUser — left to right, exactly as metrics.Mean
// folds a slice — instead of materializing two n-sized scratch slices per
// call.
func (a Assessment) GlobalFacets() Facets {
	if len(a.PerUser) == 0 {
		return Facets{Satisfaction: 0.5, Reputation: a.Power, Privacy: 1}
	}
	var s, p float64
	for _, f := range a.PerUser {
		s += f.Satisfaction
		p += f.Privacy
	}
	n := float64(len(a.PerUser))
	return Facets{
		Satisfaction: s / n,
		Reputation:   a.Power,
		Privacy:      p / n,
	}
}
