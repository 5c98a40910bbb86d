package trustnet

import "repro/internal/core"

// Facets holds one user's three facet values, each in [0,1].
type Facets = core.Facets

// Weights weighs the facets in the combined metric Φ.
type Weights = core.Weights

// AppContext is an applicative context (§4); each context weighs the
// facets differently. (Named AppContext so it cannot be confused with
// context.Context, which this package's Run/AssessAll/Explore take.)
type AppContext = core.Context

// Applicative contexts with preset weight profiles.
const (
	// Balanced weighs all facets equally.
	Balanced = core.Balanced
	// PrivacyCritical models, e.g., a health-data social network.
	PrivacyCritical = core.PrivacyCritical
	// PerformanceCritical models, e.g., a file-sharing community.
	PerformanceCritical = core.PerformanceCritical
	// MarketplaceContext models a transaction market.
	MarketplaceContext = core.MarketplaceContext
)

// DefaultWeights balances the three facets equally.
func DefaultWeights() Weights { return core.DefaultWeights() }

// ContextWeights returns the preset weights for an applicative context.
func ContextWeights(c AppContext) Weights { return core.ContextWeights(c) }

// Combine is the generic metric Φ of §4: the weighted geometric mean of
// the facets — a zero on any weighted facet zeroes trust.
func Combine(f Facets, w Weights) (float64, error) { return core.Combine(f, w) }

// MapConfig configures the noise-free trust/satisfaction iterated map used
// to verify §3's first claim.
type MapConfig = core.MapConfig

// RunIteratedMap iterates the two-way trust/satisfaction coupling from t0
// and returns the trust trajectory (first element t0).
func RunIteratedMap(t0 float64, steps int, cfg MapConfig) ([]float64, error) {
	return core.RunIteratedMap(t0, steps, cfg)
}
