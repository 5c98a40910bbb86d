package trustnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/satisfaction"
	"repro/internal/workload"
)

// GraphKind selects the friendship-graph generator for a scenario.
type GraphKind = workload.GraphKind

// Graph kinds.
const (
	BarabasiAlbert = workload.BarabasiAlbert
	WattsStrogatz  = workload.WattsStrogatz
	ErdosRenyi     = workload.ErdosRenyi
)

// Selection selects the response policy of the reputation system.
type Selection = workload.Selection

// Response policies.
const (
	SelectBest         = workload.SelectBest
	SelectProportional = workload.SelectProportional
)

// SatisfactionModel bundles the tunable parameters of the satisfaction
// facet (§2.1).
type SatisfactionModel = satisfaction.Model

// PrivacyPolicy bundles the privacy-facet settings of a scenario (§2.3):
// how much feedback peers disclose, how strictly the policies' minimal
// trust clause gates service, and how ledgered exposure is normalized.
// Unlike the raw config structs, Disclosure is explicit — a zero really
// means "share nothing".
type PrivacyPolicy struct {
	// Disclosure is the base probability δ in [0,1] that a peer shares a
	// feedback report with the reputation layer.
	Disclosure float64 `json:"disclosure"`
	// TrustGate in [0,1) applies the policies' MinTrustLevel clause through
	// reputation: only candidates at or above the TrustGate-quantile of
	// scores may serve. 0 disables gating.
	TrustGate float64 `json:"trust_gate,omitempty"`
	// ExposureScale normalizes ledgered exposure into the privacy facet
	// (default 50 when zero).
	ExposureScale float64 `json:"exposure_scale,omitempty"`
}

// DefaultPrivacyPolicy discloses everything, gates nothing.
func DefaultPrivacyPolicy() PrivacyPolicy {
	return PrivacyPolicy{Disclosure: 1, ExposureScale: workload.DefaultExposureScale}
}

// engineConfig is the resolved scenario an Engine is built from.
type engineConfig struct {
	wl          workload.Config
	weights     core.Weights
	userWeights map[int]core.Weights
	inertia     float64
	coupled     bool
	baseHonesty float64
	epochRounds int
	factory     MechanismFactory
	err         error
}

// Option configures an Engine (or a scenario template for the tradeoff
// explorer).
type Option func(*engineConfig)

func (c *engineConfig) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// resolveOptions applies the options over the defaults and validates the
// eagerly-checkable fields; scenario-level validation happens when the
// workload engine is assembled.
func resolveOptions(opts []Option) (engineConfig, error) {
	cfg := engineConfig{
		wl:      workload.Config{NumPeers: 100},
		weights: core.DefaultWeights(),
	}
	for _, opt := range opts {
		if opt == nil {
			cfg.fail(fmt.Errorf("trustnet: nil option"))
			continue
		}
		opt(&cfg)
	}
	if cfg.err != nil {
		return cfg, cfg.err
	}
	if cfg.factory == nil {
		cfg.factory = EigenTrust(EigenTrustConfig{})
	}
	return cfg, nil
}

// WithPeers sets the population size (default 100, must be > 1).
func WithPeers(n int) Option {
	return func(c *engineConfig) {
		if n <= 1 {
			c.fail(fmt.Errorf("trustnet: peers must be > 1, got %d", n))
			return
		}
		c.wl.NumPeers = n
	}
}

// WithRNGSeed seeds every random stream of the scenario; runs with equal
// seeds and settings are bit-for-bit reproducible.
func WithRNGSeed(seed uint64) Option {
	return func(c *engineConfig) { c.wl.Seed = seed }
}

// WithMix sets the behaviour-class composition of the population (default
// all honest).
func WithMix(m Mix) Option {
	return func(c *engineConfig) { c.wl.Mix = m }
}

// WithGraph selects the friendship topology and its parameter (m for
// Barabási–Albert, k for Watts–Strogatz, expected degree for Erdős–Rényi).
func WithGraph(kind GraphKind, param int) Option {
	return func(c *engineConfig) {
		switch kind {
		case BarabasiAlbert, WattsStrogatz, ErdosRenyi:
		default:
			c.fail(fmt.Errorf("trustnet: unknown graph kind %d", kind))
			return
		}
		if param <= 0 {
			c.fail(fmt.Errorf("trustnet: graph parameter must be positive, got %d", param))
			return
		}
		c.wl.Graph = kind
		c.wl.GraphParam = param
	}
}

// WithReputationMechanism plugs in the scoring engine via a factory; the
// engine sizes it for the configured population. Default: EigenTrust with
// uniform pre-trust.
func WithReputationMechanism(f MechanismFactory) Option {
	return func(c *engineConfig) {
		if f == nil {
			c.fail(fmt.Errorf("trustnet: nil mechanism factory"))
			return
		}
		c.factory = f
	}
}

// WithPrivacyPolicy installs the privacy-facet settings. All fields are
// explicit: a zero Disclosure shares nothing.
func WithPrivacyPolicy(p PrivacyPolicy) Option {
	return func(c *engineConfig) {
		if p.Disclosure < 0 || p.Disclosure > 1 {
			c.fail(fmt.Errorf("trustnet: disclosure %v out of [0,1]", p.Disclosure))
			return
		}
		if p.TrustGate < 0 || p.TrustGate >= 1 {
			c.fail(fmt.Errorf("trustnet: trust gate %v out of [0,1)", p.TrustGate))
			return
		}
		if p.ExposureScale < 0 {
			c.fail(fmt.Errorf("trustnet: negative exposure scale %v", p.ExposureScale))
			return
		}
		// The workload config's zero value means "default 1"; a negative
		// value is its explicit-zero sentinel.
		if p.Disclosure == 0 {
			p.Disclosure = -1
		}
		c.wl.Disclosure = p.Disclosure
		c.wl.TrustGate = p.TrustGate
		c.wl.ExposureScale = p.ExposureScale
	}
}

// WithSatisfactionModel tunes the satisfaction facet (§2.1).
func WithSatisfactionModel(m SatisfactionModel) Option {
	return func(c *engineConfig) {
		m, err := m.Validate()
		if err != nil {
			c.fail(err)
			return
		}
		c.wl.Memory = m.Memory
	}
}

// WithWeights sets the default facet weights of the combined metric Φ.
func WithWeights(w Weights) Option {
	return func(c *engineConfig) {
		if err := w.Validate(); err != nil {
			c.fail(err)
			return
		}
		c.weights = w
	}
}

// WithAppContext applies an applicative context's preset weight profile
// (§4).
func WithAppContext(ctx AppContext) Option {
	return func(c *engineConfig) { c.weights = core.ContextWeights(ctx) }
}

// WithUserWeights installs an individual weight profile for one user,
// overriding the engine default (§3: each user has her own perception).
func WithUserWeights(user int, w Weights) Option {
	return func(c *engineConfig) {
		if user < 0 {
			c.fail(fmt.Errorf("trustnet: negative user %d", user))
			return
		}
		if err := w.Validate(); err != nil {
			c.fail(err)
			return
		}
		if c.userWeights == nil {
			c.userWeights = make(map[int]core.Weights)
		}
		c.userWeights[user] = w
	}
}

// WithCoupling enables (or disables) the §3 feedback loops: trust feeding
// back into disclosure willingness and honest contribution.
func WithCoupling(on bool) Option {
	return func(c *engineConfig) { c.coupled = on }
}

// WithInertia sets the trust-smoothing inertia in [0,1) (default 0.5).
// An explicit zero means memoryless trust.
func WithInertia(inertia float64) Option {
	return func(c *engineConfig) {
		if inertia < 0 || inertia >= 1 {
			c.fail(fmt.Errorf("trustnet: inertia %v out of [0,1)", inertia))
			return
		}
		// The core config's zero value means "default 0.5"; a negative
		// value is its explicit-zero sentinel.
		if inertia == 0 {
			inertia = -1
		}
		c.inertia = inertia
	}
}

// WithBaseHonesty sets h0, the truthful-reporting probability at zero
// trust (default 0.3). An explicit zero means fully trust-driven honesty.
func WithBaseHonesty(h float64) Option {
	return func(c *engineConfig) {
		if h < 0 || h > 1 {
			c.fail(fmt.Errorf("trustnet: base honesty %v out of [0,1]", h))
			return
		}
		// See WithInertia: negative is the core's explicit-zero sentinel.
		if h == 0 {
			h = -1
		}
		c.baseHonesty = h
	}
}

// WithEpochRounds sets how many interaction rounds one coupling epoch
// spans (default 10).
func WithEpochRounds(rounds int) Option {
	return func(c *engineConfig) {
		if rounds <= 0 {
			c.fail(fmt.Errorf("trustnet: epoch rounds must be positive, got %d", rounds))
			return
		}
		c.epochRounds = rounds
	}
}

// WithSelection sets the response policy (default SelectBest).
func WithSelection(s Selection) Option {
	return func(c *engineConfig) {
		switch s {
		case SelectBest, SelectProportional:
		default:
			c.fail(fmt.Errorf("trustnet: unknown selection policy %d", s))
			return
		}
		c.wl.Selection = s
	}
}

// WithInteractionsPerRound sets the number of requests per round (default:
// one per peer).
func WithInteractionsPerRound(n int) Option {
	return func(c *engineConfig) {
		if n <= 0 {
			c.fail(fmt.Errorf("trustnet: interactions per round must be positive, got %d", n))
			return
		}
		c.wl.InteractionsPerRound = n
	}
}

// WithCandidateSize sets how many candidate providers each request
// considers (default 5).
func WithCandidateSize(n int) Option {
	return func(c *engineConfig) {
		if n <= 0 {
			c.fail(fmt.Errorf("trustnet: candidate size must be positive, got %d", n))
			return
		}
		c.wl.CandidateSize = n
	}
}

// WithRecomputeEvery recomputes mechanism scores every k rounds
// (default 5).
func WithRecomputeEvery(k int) Option {
	return func(c *engineConfig) {
		if k <= 0 {
			c.fail(fmt.Errorf("trustnet: recompute interval must be positive, got %d", k))
			return
		}
		c.wl.RecomputeEvery = k
	}
}

// WithActivitySkew sets the Zipf exponent of consumer activity (0 =
// uniform).
func WithActivitySkew(s float64) Option {
	return func(c *engineConfig) {
		if s < 0 {
			c.fail(fmt.Errorf("trustnet: negative activity skew %v", s))
			return
		}
		c.wl.ActivitySkew = s
	}
}

// WithShards sets the number of parallel shards the epoch pipeline scatters
// interaction simulation and facet measurement over (default 1; use
// runtime.GOMAXPROCS(0) to saturate the machine). Shards are a scheduling
// decomposition, not a semantic one: every observable result — epoch
// history, summaries, explorer output — is bit-for-bit identical for every
// shard count under the same seed, so parallelism can be tuned per
// deployment without re-baselining experiments. The mechanism's recompute
// does not use the shards: its power iteration is serial.
func WithShards(k int) Option {
	return func(c *engineConfig) {
		if k < 1 {
			c.fail(fmt.Errorf("trustnet: shard count must be >= 1, got %d", k))
			return
		}
		c.wl.Shards = k
	}
}
