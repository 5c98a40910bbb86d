package trustnet

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"slices"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/reputation"
	"repro/internal/reputation/anonrep"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/reputation/trustme"
	"repro/internal/satisfaction"
	"repro/internal/strictjson"
	"repro/internal/workload"
)

// Scenario is a declarative, fully serializable run specification: the
// population, behaviour mix, friendship graph, reputation mechanism and its
// parameters, privacy policy, §3 coupling shape, epoch shape, and an
// intervention Schedule — everything an Engine needs, as data. A Scenario
// round-trips through JSON, so experiment setups can live in files, be
// diffed in review, and be replayed byte-for-byte (`trustsim -scenario`).
//
// Zero values mean "engine default" throughout (and are omitted from the
// JSON encoding); pointer fields distinguish "unset" from an explicit zero
// (Inertia, BaseHonesty, Privacy.Disclosure). NewEngine is the one way to
// build an Engine.
type Scenario struct {
	// Name identifies the scenario in the Registry and in sweep output.
	Name string `json:"name,omitempty"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`

	// Peers is the population size (default 100).
	Peers int `json:"peers,omitempty"`
	// Seed seeds every random stream; equal seeds and settings reproduce
	// runs bit-for-bit.
	Seed uint64 `json:"seed,omitempty"`
	// Mix is the behaviour-class composition, keyed by class name
	// (default all honest).
	Mix *MixSpec `json:"mix,omitempty"`
	// Graph selects the friendship topology (default Barabási–Albert,
	// param 4).
	Graph *GraphSpec `json:"graph,omitempty"`
	// Mechanism selects and parameterizes the reputation mechanism
	// (default EigenTrust with uniform pre-trust).
	Mechanism MechanismSpec `json:"mechanism,omitempty"`
	// Privacy installs the privacy-facet settings; nil keeps the default
	// (full disclosure, no gate). A present policy is explicit: zero
	// Disclosure really shares nothing.
	Privacy *PrivacyPolicy `json:"privacy,omitempty"`
	// Satisfaction tunes the satisfaction facet (§2.1).
	Satisfaction *SatisfactionModel `json:"satisfaction,omitempty"`

	// Context applies an applicative context's preset weight profile
	// ("balanced", "privacy", "performance", "marketplace"); mutually
	// exclusive with Weights.
	Context string `json:"context,omitempty"`
	// Weights sets the facet weights of the combined metric Φ directly.
	Weights *Weights `json:"weights,omitempty"`
	// UserWeights installs individual weight profiles per user id.
	UserWeights map[int]Weights `json:"user_weights,omitempty"`

	// Coupled enables the §3 feedback loops.
	Coupled bool `json:"coupled,omitempty"`
	// Inertia is the trust-smoothing inertia in [0,1); nil means the
	// default 0.5, an explicit 0 means memoryless trust.
	Inertia *float64 `json:"inertia,omitempty"`
	// BaseHonesty is h0, the truthful-reporting probability at zero
	// trust; nil means the default 0.3, an explicit 0 means fully
	// trust-driven honesty.
	BaseHonesty *float64 `json:"base_honesty,omitempty"`

	// EpochRounds is how many interaction rounds one epoch spans
	// (default 10).
	EpochRounds int `json:"epoch_rounds,omitempty"`
	// Epochs is how many epochs Run (and a Sweep over this scenario)
	// drives.
	Epochs int `json:"epochs,omitempty"`

	// Selection is the response policy: "best" (default) or
	// "proportional".
	Selection string `json:"selection,omitempty"`
	// InteractionsPerRound is the number of requests per round (default:
	// one per peer).
	InteractionsPerRound int `json:"interactions_per_round,omitempty"`
	// CandidateSize is how many candidate providers each request
	// considers (default 5).
	CandidateSize int `json:"candidate_size,omitempty"`
	// RecomputeEvery recomputes mechanism scores every k rounds
	// (default 5).
	RecomputeEvery int `json:"recompute_every,omitempty"`
	// ActivitySkew is the Zipf exponent of consumer activity (0 =
	// uniform).
	ActivitySkew float64 `json:"activity_skew,omitempty"`

	// Shards sets the parallel epoch-shard count; a scheduling knob only,
	// results are identical for every value.
	Shards int `json:"shards,omitempty"`
	// Workers caps the worker pool of sweeps and explorations over this
	// scenario (default GOMAXPROCS); results are identical for every value.
	Workers int `json:"workers,omitempty"`

	// Schedule is the epoch-indexed intervention script Run applies.
	Schedule Schedule `json:"schedule,omitempty"`
}

// MixSpec is the serializable behaviour-class composition: fractions keyed
// by class name ("honest", "malicious", "selfish", "traitor",
// "whitewasher", "slanderer", "colluder").
type MixSpec struct {
	Fractions   map[string]float64 `json:"fractions,omitempty"`
	ForceHonest []int              `json:"force_honest,omitempty"`
}

// toMix resolves the class names into the adversary mix.
func (m MixSpec) toMix() (adversary.Mix, error) {
	out := adversary.Mix{ForceHonest: append([]int(nil), m.ForceHonest...)}
	if len(m.Fractions) > 0 {
		out.Fractions = make(map[Class]float64, len(m.Fractions))
		for name, f := range m.Fractions {
			cls, ok := adversary.ClassNamed(name)
			if !ok {
				return adversary.Mix{}, fmt.Errorf("trustnet: unknown behaviour class %q in mix", name)
			}
			out.Fractions[cls] = f
		}
	}
	return out, nil
}

// MixOf builds the MixSpec for a population with the given adversarial
// fractions; the honest class absorbs the remainder.
func MixOf(fractions map[string]float64, forceHonest ...int) *MixSpec {
	out := &MixSpec{
		Fractions:   map[string]float64{},
		ForceHonest: forceHonest,
	}
	rest := 1.0
	// A float sum depends on its order, and map order is random: fold in
	// name order.
	for _, name := range slices.Sorted(maps.Keys(fractions)) {
		f := fractions[name]
		out.Fractions[name] = f
		rest -= f
	}
	if rest > 0 {
		out.Fractions["honest"] = rest
	}
	return out
}

// GraphSpec is the serializable friendship-topology selection.
type GraphSpec struct {
	// Kind is "barabasi-albert", "watts-strogatz" or "erdos-renyi".
	Kind string `json:"kind"`
	// Param is m for BA, k for WS, expected degree for ER.
	Param int `json:"param"`
}

var graphKinds = map[string]workload.GraphKind{
	"barabasi-albert": workload.BarabasiAlbert,
	"watts-strogatz":  workload.WattsStrogatz,
	"erdos-renyi":     workload.ErdosRenyi,
}

var selections = map[string]workload.Selection{
	"best":         workload.SelectBest,
	"proportional": workload.SelectProportional,
}

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

// SatisfactionModel bundles the tunable parameters of the satisfaction
// facet (§2.1).
type SatisfactionModel = satisfaction.Model

// MechanismSpec is the serializable mechanism selection plus its
// parameters; fields irrelevant to the selected kind are ignored. The zero
// value selects EigenTrust with uniform pre-trust.
type MechanismSpec struct {
	// Kind is "eigentrust" (default), "trustme", "powertrust",
	// "powertrust-plain" (the no-look-ahead ablation), "anonrep" or
	// "none".
	Kind string `json:"kind,omitempty"`

	// Pretrusted lists EigenTrust's pre-trusted peer ids.
	Pretrusted []int `json:"pretrusted,omitempty"`
	// Alpha is the pre-trust / greedy-jump blending weight
	// (EigenTrust, PowerTrust).
	Alpha float64 `json:"alpha,omitempty"`
	// Epsilon is the L1 convergence threshold (EigenTrust, PowerTrust).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxIter bounds the iteration (EigenTrust, PowerTrust).
	MaxIter int `json:"max_iter,omitempty"`
	// PowerNodes is PowerTrust's power-node count M.
	PowerNodes int `json:"power_nodes,omitempty"`
	// Replicas is TrustMe's THA replication factor.
	Replicas int `json:"replicas,omitempty"`
	// Window bounds TrustMe's per-peer rating window.
	Window int `json:"window,omitempty"`
	// Granularity, Noise and PriorStrength parameterize AnonRep's
	// anonymity/accuracy trade-off.
	Granularity   float64 `json:"granularity,omitempty"`
	Noise         float64 `json:"noise,omitempty"`
	PriorStrength float64 `json:"prior_strength,omitempty"`
	// Seed derives AnonRep's own stream; 0 inherits the scenario seed.
	Seed uint64 `json:"seed,omitempty"`
}

// mechanismKinds builds each mechanism kind from its spec for n peers;
// seed seeds the mechanisms that carry their own stream (AnonRep) when the
// spec does not pin one.
var mechanismKinds = map[string]func(m MechanismSpec, n int, seed uint64) (Mechanism, error){
	"eigentrust": func(m MechanismSpec, n int, _ uint64) (Mechanism, error) {
		return eigentrust.New(eigentrust.Config{
			N:          n,
			Pretrusted: append([]int(nil), m.Pretrusted...),
			Alpha:      m.Alpha,
			Epsilon:    m.Epsilon,
			MaxIter:    m.MaxIter,
		})
	},
	"trustme": func(m MechanismSpec, n int, _ uint64) (Mechanism, error) {
		return trustme.New(trustme.Config{N: n, Replicas: m.Replicas, Window: m.Window})
	},
	"powertrust": func(m MechanismSpec, n int, _ uint64) (Mechanism, error) {
		return powertrust.New(m.powerTrust(n))
	},
	"powertrust-plain": func(m MechanismSpec, n int, _ uint64) (Mechanism, error) {
		return powertrust.NewPlain(m.powerTrust(n))
	},
	"anonrep": func(m MechanismSpec, n int, seed uint64) (Mechanism, error) {
		if m.Seed != 0 {
			seed = m.Seed
		}
		return anonrep.New(anonrep.Config{
			N:             n,
			Granularity:   m.Granularity,
			Noise:         m.Noise,
			PriorStrength: m.PriorStrength,
			Seed:          seed,
		})
	},
	"none": func(_ MechanismSpec, n int, _ uint64) (Mechanism, error) {
		return reputation.NewNone(n), nil
	},
}

func (m MechanismSpec) powerTrust(n int) powertrust.Config {
	return powertrust.Config{N: n, M: m.PowerNodes, Alpha: m.Alpha, Epsilon: m.Epsilon, MaxIter: m.MaxIter}
}

// kind resolves the spec's kind name; the empty name is EigenTrust.
func (m MechanismSpec) kind() (string, error) {
	kind := m.Kind
	if kind == "" {
		kind = "eigentrust"
	}
	if _, ok := mechanismKinds[kind]; !ok {
		return "", fmt.Errorf("trustnet: unknown mechanism kind %q", m.Kind)
	}
	return kind, nil
}

// build constructs the spec's mechanism for n peers.
func (m MechanismSpec) build(n int, seed uint64) (Mechanism, error) {
	kind, err := m.kind()
	if err != nil {
		return nil, err
	}
	mech, err := mechanismKinds[kind](m, n, seed)
	if err != nil {
		return nil, fmt.Errorf("trustnet: mechanism: %w", err)
	}
	return mech, nil
}

var appContexts = map[string]AppContext{
	"balanced":    Balanced,
	"privacy":     PrivacyCritical,
	"performance": PerformanceCritical,
	"marketplace": MarketplaceContext,
}

// ParseAppContext resolves an applicative-context name ("balanced",
// "privacy", "performance", "marketplace").
func ParseAppContext(name string) (AppContext, error) {
	ctx, ok := appContexts[name]
	if !ok {
		return 0, fmt.Errorf("trustnet: unknown applicative context %q", name)
	}
	return ctx, nil
}

// NewEngine assembles an engine from the scenario. Each value is checked
// once, by the layer that owns it: the workload config checks the
// population, graph, privacy and round shape, the dynamics config the
// weights, inertia, base honesty and epoch shape, the mechanism its own
// parameters. The scenario checks only what it resolves itself: names, the
// Context/Weights exclusivity, user-weight ids, the graph parameter, Epochs
// and Workers. Epochs and Schedule shape a run, not the engine: Run and the
// Sweep executor apply them.
func (sc Scenario) NewEngine() (*Engine, error) {
	cfg, err := sc.dynamicsConfig()
	if err != nil {
		return nil, err
	}
	// Refuse a bad configuration before the mechanism is sized for it.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("trustnet: %w", err)
	}
	n := cfg.Workload.NumPeers
	users := slices.Sorted(maps.Keys(sc.UserWeights))
	for _, user := range users {
		if user < 0 || user >= n {
			return nil, fmt.Errorf("trustnet: user %d out of range [0,%d)", user, n)
		}
	}
	mech, err := sc.Mechanism.build(n, sc.Seed)
	if err != nil {
		return nil, err
	}
	dyn, err := core.NewDynamics(cfg, mech)
	if err != nil {
		return nil, fmt.Errorf("trustnet: %w", err)
	}
	for _, user := range users {
		if err := dyn.TrustModel().SetUserWeights(user, sc.UserWeights[user]); err != nil {
			return nil, fmt.Errorf("trustnet: %w", err)
		}
	}
	return &Engine{mech: mech, dyn: dyn}, nil
}

// dynamicsConfig resolves the scenario's names and explicit zeros into the
// dynamics config, leaving the range checks to its Validate.
func (sc Scenario) dynamicsConfig() (core.DynamicsConfig, error) {
	cfg := core.DynamicsConfig{
		Workload: workload.Config{
			Seed:                 sc.Seed,
			NumPeers:             sc.Peers,
			InteractionsPerRound: sc.InteractionsPerRound,
			CandidateSize:        sc.CandidateSize,
			RecomputeEvery:       sc.RecomputeEvery,
			ActivitySkew:         sc.ActivitySkew,
			Shards:               sc.Shards,
		},
		EpochRounds: sc.EpochRounds,
		Coupled:     sc.Coupled,
	}
	wl := &cfg.Workload
	if wl.NumPeers == 0 {
		wl.NumPeers = 100
	}
	if sc.Mix != nil {
		m, err := sc.Mix.toMix()
		if err != nil {
			return cfg, err
		}
		wl.Mix = m
	}
	if sc.Graph != nil {
		kind, ok := graphKinds[sc.Graph.Kind]
		if !ok {
			return cfg, fmt.Errorf("trustnet: unknown graph kind %q", sc.Graph.Kind)
		}
		if sc.Graph.Param <= 0 {
			return cfg, fmt.Errorf("trustnet: graph parameter must be positive, got %d", sc.Graph.Param)
		}
		wl.Graph, wl.GraphParam = kind, sc.Graph.Param
	}
	if _, err := sc.Mechanism.kind(); err != nil {
		return cfg, err
	}
	if p := sc.Privacy; p != nil {
		wl.Disclosure = workload.Explicit(p.Disclosure)
		wl.TrustGate = p.TrustGate
		wl.ExposureScale = p.ExposureScale
	}
	if sc.Satisfaction != nil {
		wl.Memory = sc.Satisfaction.Memory
	}
	if sc.Context != "" && sc.Weights != nil {
		return cfg, fmt.Errorf("trustnet: scenario sets both context %q and explicit weights", sc.Context)
	}
	if sc.Context != "" {
		if _, err := ParseAppContext(sc.Context); err != nil {
			return cfg, err
		}
	}
	if sc.Weights != nil {
		// The zero Weights is the dynamics default; explicit weights must
		// be valid in their own right.
		if err := sc.Weights.Validate(); err != nil {
			return cfg, fmt.Errorf("trustnet: %w", err)
		}
	}
	cfg.Weights = sc.weights()
	if sc.Inertia != nil {
		cfg.Inertia = workload.Explicit(*sc.Inertia)
	}
	if sc.BaseHonesty != nil {
		cfg.BaseHonesty = workload.Explicit(*sc.BaseHonesty)
	}
	if sc.Epochs < 0 {
		return cfg, fmt.Errorf("trustnet: scenario epochs must be positive, got %d", sc.Epochs)
	}
	if sc.Selection != "" {
		sel, ok := selections[sc.Selection]
		if !ok {
			return cfg, fmt.Errorf("trustnet: unknown selection policy %q", sc.Selection)
		}
		wl.Selection = sel
	}
	if sc.Workers < 0 {
		return cfg, fmt.Errorf("trustnet: negative worker count %d", sc.Workers)
	}
	return cfg, nil
}

// Run assembles an engine and drives the scenario end to end: Epochs
// coupling epochs with the Schedule applied at its boundaries. It returns
// the engine (for further inspection) and the epoch history.
func (sc Scenario) Run(ctx context.Context) (*Engine, []EpochStats, error) {
	if sc.Epochs <= 0 {
		return nil, nil, fmt.Errorf("trustnet: scenario %q has no epochs to run (set Epochs > 0)", sc.Name)
	}
	eng, err := sc.NewEngine()
	if err != nil {
		return nil, nil, err
	}
	s, err := eng.Session(ctx, WithMaxEpochs(sc.Epochs), WithSchedule(sc.Schedule))
	if err != nil {
		return nil, nil, err
	}
	for _, err := range s.Epochs() {
		if err != nil {
			return eng, eng.History(), err
		}
	}
	return eng, eng.History(), nil
}

// weights resolves the facet weights the scenario combines under: explicit
// Weights, else the Context profile, else the balanced default.
func (sc Scenario) weights() Weights {
	if sc.Weights != nil {
		return *sc.Weights
	}
	if sc.Context != "" {
		if ctx, ok := appContexts[sc.Context]; ok {
			return ContextWeights(ctx)
		}
	}
	return DefaultWeights()
}

// clone deep-copies the scenario so per-run mutation (axis application,
// seed assignment) never leaks between sweep cells.
func (sc Scenario) clone() Scenario {
	out := sc
	if sc.Mix != nil {
		m := MixSpec{ForceHonest: append([]int(nil), sc.Mix.ForceHonest...)}
		if sc.Mix.Fractions != nil {
			m.Fractions = make(map[string]float64, len(sc.Mix.Fractions))
			for k, v := range sc.Mix.Fractions {
				m.Fractions[k] = v
			}
		}
		out.Mix = &m
	}
	if sc.Graph != nil {
		g := *sc.Graph
		out.Graph = &g
	}
	out.Mechanism.Pretrusted = append([]int(nil), sc.Mechanism.Pretrusted...)
	if sc.Privacy != nil {
		p := *sc.Privacy
		out.Privacy = &p
	}
	if sc.Satisfaction != nil {
		s := *sc.Satisfaction
		out.Satisfaction = &s
	}
	if sc.Weights != nil {
		w := *sc.Weights
		out.Weights = &w
	}
	if sc.UserWeights != nil {
		uw := make(map[int]Weights, len(sc.UserWeights))
		for k, v := range sc.UserWeights {
			uw[k] = v
		}
		out.UserWeights = uw
	}
	if sc.Inertia != nil {
		v := *sc.Inertia
		out.Inertia = &v
	}
	if sc.BaseHonesty != nil {
		v := *sc.BaseHonesty
		out.BaseHonesty = &v
	}
	out.Schedule = sc.Schedule.clone()
	return out
}

// ScenarioFromJSON decodes a scenario spec, rejecting unknown fields and
// trailing data so a typo or a second spec in a file fails loudly instead
// of silently running defaults.
func ScenarioFromJSON(data []byte) (Scenario, error) {
	var sc Scenario
	if err := strictjson.Decode(bytes.NewReader(data), &sc); err != nil {
		return Scenario{}, fmt.Errorf("trustnet: decode scenario: %w", err)
	}
	return sc, nil
}

// LoadScenarioFile reads a JSON scenario spec from disk.
func LoadScenarioFile(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("trustnet: load scenario: %w", err)
	}
	sc, err := ScenarioFromJSON(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("trustnet: %s: %w", path, err)
	}
	return sc, nil
}
