package trustnet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"

	"repro/internal/adversary"
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
// where the engine options do (Inertia, BaseHonesty, Privacy.Disclosure).
// Options() compiles the spec to the functional options New consumes, so a
// Scenario and a hand-built option slice produce bit-for-bit identical
// engines.
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
	// Workers caps the worker pool of sweeps over this scenario when the
	// Experiment does not override it (default GOMAXPROCS).
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
func (m MixSpec) toMix() (Mix, error) {
	out := Mix{ForceHonest: append([]int(nil), m.ForceHonest...)}
	if len(m.Fractions) > 0 {
		out.Fractions = make(map[Class]float64, len(m.Fractions))
		for name, f := range m.Fractions {
			cls, ok := adversary.ClassNamed(name)
			if !ok {
				return Mix{}, fmt.Errorf("trustnet: unknown behaviour class %q in mix", name)
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

var graphKinds = map[string]GraphKind{
	"barabasi-albert": BarabasiAlbert,
	"watts-strogatz":  WattsStrogatz,
	"erdos-renyi":     ErdosRenyi,
}

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

// Factory compiles the spec into a mechanism factory. scenarioSeed seeds
// mechanisms that carry their own stream (AnonRep) when the spec does not
// pin one.
func (m MechanismSpec) Factory(scenarioSeed uint64) (MechanismFactory, error) {
	switch m.Kind {
	case "", "eigentrust":
		return EigenTrust(EigenTrustConfig{
			Pretrusted: append([]int(nil), m.Pretrusted...),
			Alpha:      m.Alpha,
			Epsilon:    m.Epsilon,
			MaxIter:    m.MaxIter,
		}), nil
	case "trustme":
		return TrustMe(TrustMeConfig{Replicas: m.Replicas, Window: m.Window}), nil
	case "powertrust":
		return PowerTrust(PowerTrustConfig{
			M: m.PowerNodes, Alpha: m.Alpha, Epsilon: m.Epsilon, MaxIter: m.MaxIter,
		}), nil
	case "powertrust-plain":
		return PowerTrustPlain(PowerTrustConfig{
			M: m.PowerNodes, Alpha: m.Alpha, Epsilon: m.Epsilon, MaxIter: m.MaxIter,
		}), nil
	case "anonrep":
		seed := m.Seed
		if seed == 0 {
			seed = scenarioSeed
		}
		return AnonRep(AnonRepConfig{
			Granularity:   m.Granularity,
			Noise:         m.Noise,
			PriorStrength: m.PriorStrength,
			Seed:          seed,
		}), nil
	case "none":
		return NoReputation(), nil
	default:
		return nil, fmt.Errorf("trustnet: unknown mechanism kind %q", m.Kind)
	}
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

// Options compiles the scenario into the functional options New consumes.
// The compilation is total: every settable knob of the spec maps onto
// exactly one option, so New(sc.Options()...) and the equivalent hand-built
// option slice assemble bit-for-bit identical engines. Epochs and Schedule
// are session-shape, not engine options — Run and the Sweep executor apply
// them.
func (sc Scenario) Options() ([]Option, error) {
	var opts []Option
	if sc.Peers != 0 {
		opts = append(opts, WithPeers(sc.Peers))
	}
	opts = append(opts, WithRNGSeed(sc.Seed))
	if sc.Mix != nil {
		m, err := sc.Mix.toMix()
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithMix(m))
	}
	if sc.Graph != nil {
		kind, ok := graphKinds[sc.Graph.Kind]
		if !ok {
			return nil, fmt.Errorf("trustnet: unknown graph kind %q", sc.Graph.Kind)
		}
		opts = append(opts, WithGraph(kind, sc.Graph.Param))
	}
	factory, err := sc.Mechanism.Factory(sc.Seed)
	if err != nil {
		return nil, err
	}
	opts = append(opts, WithReputationMechanism(factory))
	if sc.Privacy != nil {
		opts = append(opts, WithPrivacyPolicy(*sc.Privacy))
	}
	if sc.Satisfaction != nil {
		opts = append(opts, WithSatisfactionModel(*sc.Satisfaction))
	}
	if sc.Context != "" && sc.Weights != nil {
		return nil, fmt.Errorf("trustnet: scenario sets both context %q and explicit weights", sc.Context)
	}
	if sc.Context != "" {
		ctx, err := ParseAppContext(sc.Context)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithAppContext(ctx))
	}
	if sc.Weights != nil {
		opts = append(opts, WithWeights(*sc.Weights))
	}
	// Sorted for a deterministic option slice; the entries are independent
	// (distinct users), so order never changes semantics.
	users := make([]int, 0, len(sc.UserWeights))
	for user := range sc.UserWeights {
		users = append(users, user)
	}
	sort.Ints(users)
	for _, user := range users {
		opts = append(opts, WithUserWeights(user, sc.UserWeights[user]))
	}
	if sc.Coupled {
		opts = append(opts, WithCoupling(true))
	}
	if sc.Inertia != nil {
		opts = append(opts, WithInertia(*sc.Inertia))
	}
	if sc.BaseHonesty != nil {
		opts = append(opts, WithBaseHonesty(*sc.BaseHonesty))
	}
	if sc.EpochRounds != 0 {
		opts = append(opts, WithEpochRounds(sc.EpochRounds))
	}
	if sc.Epochs < 0 {
		return nil, fmt.Errorf("trustnet: scenario epochs must be positive, got %d", sc.Epochs)
	}
	switch sc.Selection {
	case "":
	case "best":
		opts = append(opts, WithSelection(SelectBest))
	case "proportional":
		opts = append(opts, WithSelection(SelectProportional))
	default:
		return nil, fmt.Errorf("trustnet: unknown selection policy %q", sc.Selection)
	}
	if sc.InteractionsPerRound != 0 {
		opts = append(opts, WithInteractionsPerRound(sc.InteractionsPerRound))
	}
	if sc.CandidateSize != 0 {
		opts = append(opts, WithCandidateSize(sc.CandidateSize))
	}
	if sc.RecomputeEvery != 0 {
		opts = append(opts, WithRecomputeEvery(sc.RecomputeEvery))
	}
	if sc.ActivitySkew != 0 {
		opts = append(opts, WithActivitySkew(sc.ActivitySkew))
	}
	if sc.Shards != 0 {
		opts = append(opts, WithShards(sc.Shards))
	}
	if sc.Workers < 0 {
		return nil, fmt.Errorf("trustnet: negative worker count %d", sc.Workers)
	}
	return opts, nil
}

// NewEngine assembles an engine from the scenario (Options + New).
func (sc Scenario) NewEngine() (*Engine, error) {
	opts, err := sc.Options()
	if err != nil {
		return nil, err
	}
	return New(opts...)
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

// ScenarioFromJSON decodes a scenario spec, rejecting unknown fields so a
// typo in a spec file fails loudly instead of silently running defaults.
func ScenarioFromJSON(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
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
