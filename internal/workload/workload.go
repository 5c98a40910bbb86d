// Package workload drives end-to-end scenarios: it assembles a social
// network over a generated graph, assigns behaviour classes, and runs
// rounds of consumer/provider interactions in which the reputation
// mechanism's response policy picks providers, feedback flows through the
// disclosure-limited gatherer, and the satisfaction model tracks every
// participant. It is the engine behind experiments E1, E5, E7 and E8 and
// the example applications.
package workload

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/satisfaction"
	"repro/internal/sim"
	"repro/internal/social"
)

// GraphKind selects the friendship-graph generator.
type GraphKind int

// Graph kinds.
const (
	BarabasiAlbert GraphKind = iota + 1
	WattsStrogatz
	ErdosRenyi
)

// Selection selects the response policy.
type Selection int

// Response policies.
const (
	SelectBest Selection = iota + 1
	SelectProportional
)

// Config describes a scenario.
type Config struct {
	Seed     uint64
	NumPeers int
	// Mix is the behaviour-class composition (defaults to all honest).
	Mix adversary.Mix
	// Graph selects the friendship topology (default BarabasiAlbert).
	Graph GraphKind
	// GraphParam is m for BA, k for WS, and expected degree for ER
	// (default 4).
	GraphParam int
	// InteractionsPerRound is the number of requests per round
	// (default NumPeers).
	InteractionsPerRound int
	// CandidateSize is how many candidate providers each request considers
	// (default 5).
	CandidateSize int
	// Disclosure is the uniform initial disclosure level in [0,1]
	// (default 1): the probability a peer shares each feedback report.
	// The zero value means "default"; Explicit(0) shares nothing.
	Disclosure float64
	// Selection is the response policy (default SelectBest).
	Selection Selection
	// RecomputeEvery recomputes mechanism scores every k rounds
	// (default 5).
	RecomputeEvery int
	// Memory is the satisfaction EMA weight in [0,1) (default
	// satisfaction.DefaultMemory).
	Memory float64
	// TrustGate in [0,1) applies the privacy policies' MinTrustLevel
	// clause through reputation: only candidates whose score reaches the
	// TrustGate-quantile of all scores may serve. 0 disables gating.
	// Stricter gates protect data (fewer exchanges) at the cost of failed
	// allocations.
	TrustGate float64
	// ActivitySkew is the Zipf exponent of consumer activity (0 =
	// uniform): social workloads have a heavy-tailed active minority.
	// Which peers are the active ones is decorrelated from peer ids by a
	// seeded permutation.
	ActivitySkew float64
	// Shards is the number of parallel worker shards the round pipeline
	// scatters interaction simulation over (default 1 = run inline).
	// Results are bit-for-bit identical for every shard count: shards are
	// a scheduling decomposition, not a semantic one — see shard.go.
	Shards int
	// ExposureScale normalizes ledgered exposure into the privacy facet
	// (default DefaultExposureScale; see privacy.Ledger.NormalizedExposure).
	ExposureScale float64
}

// DefaultExposureScale is the exposure at which a user counts as half
// exposed when no scale is configured.
const DefaultExposureScale = 50

// Explicit marks v as stated explicitly for a config field whose zero value
// means "default": a zero becomes a negative zero, which compares equal to
// 0 but carries the sign bit, so no value in range collides with it.
func Explicit(v float64) float64 {
	if v == 0 {
		return math.Copysign(0, -1)
	}
	return v
}

// OrDefault resolves a field whose zero value means "default": def for a
// zero, a real 0 for Explicit(0), v otherwise.
func OrDefault(v, def float64) float64 {
	switch {
	case v != 0:
		return v
	case math.Signbit(v):
		return 0
	default:
		return def
	}
}

// profileKey is the ledger item of the profile a consumer discloses to each
// provider it interacts with. Item keys only need to be unique within their
// owner's aggregate, and "feedback/…" sorts before it, as the ledger's
// feedback ordering contract requires.
const profileKey = "profile"

func (c Config) withDefaults() (Config, error) {
	if c.NumPeers <= 1 {
		return c, fmt.Errorf("workload: NumPeers must be > 1, got %d", c.NumPeers)
	}
	// Plans, candidate slots and the friend index hold peer ids as int32.
	if c.NumPeers > math.MaxInt32 {
		return c, fmt.Errorf("workload: NumPeers %d exceeds the int32 id range", c.NumPeers)
	}
	if len(c.Mix.Fractions) == 0 {
		c.Mix = adversary.Mix{Fractions: map[adversary.Class]float64{adversary.Honest: 1}}
	}
	if c.Graph == 0 {
		c.Graph = BarabasiAlbert
	}
	if c.GraphParam <= 0 {
		c.GraphParam = 4
	}
	// The generators raise n to their minimum size, which would leave the
	// friendship graph with more nodes than there are peers.
	switch {
	case c.Graph == BarabasiAlbert && c.NumPeers <= c.GraphParam:
		return c, fmt.Errorf("workload: barabasi-albert graph with m=%d needs more than %d peers, got %d",
			c.GraphParam, c.GraphParam, c.NumPeers)
	case c.Graph == WattsStrogatz && c.NumPeers < 3:
		return c, fmt.Errorf("workload: watts-strogatz graph with k=%d needs at least 3 peers, got %d",
			c.GraphParam, c.NumPeers)
	}
	// The friend index is int32, so the graph's directed edge count must fit
	// one. BA and WS fix the count in advance, so an oversize graph is
	// refused here, before any allocation; ER's is random, and its generator
	// checks as it builds.
	switch {
	case c.Graph == BarabasiAlbert && graph.BarabasiAlbertEdges(c.NumPeers, c.GraphParam) > math.MaxInt32:
		return c, fmt.Errorf("workload: barabasi-albert graph with m=%d over %d peers has more edges than the int32 friend index holds",
			c.GraphParam, c.NumPeers)
	case c.Graph == WattsStrogatz && graph.WattsStrogatzEdges(c.NumPeers, c.GraphParam) > math.MaxInt32:
		return c, fmt.Errorf("workload: watts-strogatz graph with k=%d over %d peers has more edges than the int32 friend index holds",
			c.GraphParam, c.NumPeers)
	}
	if c.InteractionsPerRound < 0 {
		return c, fmt.Errorf("workload: interactions per round must be positive, got %d", c.InteractionsPerRound)
	}
	if c.InteractionsPerRound == 0 {
		c.InteractionsPerRound = c.NumPeers
	}
	if c.CandidateSize < 0 {
		return c, fmt.Errorf("workload: candidate size must be positive, got %d", c.CandidateSize)
	}
	if c.CandidateSize == 0 {
		c.CandidateSize = 5
	}
	c.Disclosure = OrDefault(c.Disclosure, 1)
	if !(0 <= c.Disclosure && c.Disclosure <= 1) {
		return c, fmt.Errorf("workload: disclosure %v out of [0,1]", c.Disclosure)
	}
	if c.Selection == 0 {
		c.Selection = SelectBest
	}
	if c.RecomputeEvery < 0 {
		return c, fmt.Errorf("workload: recompute interval must be positive, got %d", c.RecomputeEvery)
	}
	if c.RecomputeEvery == 0 {
		c.RecomputeEvery = 5
	}
	m, err := satisfaction.Model{Memory: c.Memory}.Validate()
	if err != nil {
		return c, fmt.Errorf("workload: %w", err)
	}
	c.Memory = m.Memory
	if !(0 <= c.TrustGate && c.TrustGate < 1) {
		return c, fmt.Errorf("workload: trust gate %v out of [0,1)", c.TrustGate)
	}
	if !(0 <= c.ActivitySkew && c.ActivitySkew <= math.MaxFloat64) {
		return c, fmt.Errorf("workload: activity skew %v is not a finite non-negative number", c.ActivitySkew)
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("workload: negative shard count %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if !(0 <= c.ExposureScale && c.ExposureScale <= math.MaxFloat64) {
		return c, fmt.Errorf("workload: exposure scale %v is not a finite non-negative number", c.ExposureScale)
	}
	if c.ExposureScale == 0 {
		c.ExposureScale = DefaultExposureScale
	}
	return c, nil
}

// Validate checks the configuration without assembling an engine; it
// catches everything NewEngine itself would reject, so a caller can refuse
// a bad configuration before it builds the mechanism.
func (c Config) Validate() error {
	c, err := c.withDefaults()
	if err != nil {
		return err
	}
	if err := c.Mix.Validate(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	switch c.Graph {
	case BarabasiAlbert, WattsStrogatz, ErdosRenyi:
	default:
		return fmt.Errorf("workload: unknown graph kind %d", c.Graph)
	}
	return nil
}

// RoundStats summarizes one round.
type RoundStats struct {
	Round        int
	Interactions int
	// BadService counts interactions whose delivered quality < 0.5
	// (including refusals) — the "inauthentic downloads" measure of the
	// EigenTrust evaluation.
	BadService int
	// Refused counts interactions where the provider declined.
	Refused int
}

// BadRate returns BadService/Interactions (0 when idle).
func (r RoundStats) BadRate() float64 {
	if r.Interactions == 0 {
		return 0
	}
	return float64(r.BadService) / float64(r.Interactions)
}

// Engine runs a configured scenario round by round.
type Engine struct {
	cfg       Config
	rng       *sim.RNG
	snet      *social.Network
	mech      reputation.Mechanism
	gatherer  *reputation.Gatherer
	consumers []satisfaction.Consumer
	providers []satisfaction.Provider
	// classes is each peer's behaviour class, the only record of how it
	// serves and rates (see package adversary).
	classes []adversary.Class
	// honestOverride, when non-nil, replaces each peer's honesty: the
	// probability it reports truthfully (the §3 coupling between system
	// trust and honest contribution).
	honestOverride []float64
	round          int
	rounds         []RoundStats
	cumulative     RoundStats
	// ledger accounts every information flow: the consumer's profile
	// disclosed to the provider on each interaction, and each feedback
	// report disclosed to the mechanism. ledgerScale is its exposure
	// normalization scale (Config.ExposureScale, changed by SetLedgerScale).
	// profile is profileKey interned in the ledger. Each consumer's
	// preference overrides flag the providers its profile reached, so the
	// ledger's profile count is the consumer's number of flags.
	ledger      *privacy.Ledger
	ledgerScale float64
	profile     privacy.ItemID //trustlint:derived interned at construction; interned keys outlive the ledger's SetState
	// GateFailures counts allocation rounds where the trust gate left no
	// eligible candidate.
	GateFailures int64
	// colluders lists the peers forming the malicious collective; every
	// round they ballot-stuff: fabricate one satisfied transaction each
	// about a clique member (the EigenTrust threat model's collective).
	colluders []int //trustlint:derived configuration, rebuilt from the scenario's adversary classes
	// FakeReports counts ballot-stuffed reports offered.
	FakeReports int64
	// activity, when set, draws consumers from a Zipf distribution mapped
	// through activityOrder.
	activity      *sim.Zipf
	activityOrder []int //trustlint:derived configuration, a fixed permutation of the peer ids derived from the scenario seed
	// shards is the worker count of the scatter phase (>= 1); see shard.go.
	shards int //trustlint:derived execution-shape knob (Config.Shards); bit-identical results for any value
	// active, when non-nil, marks which peers are present in the network
	// (session Join/Leave/Whitewash waves). nil means everyone is present.
	// Absent peers are never candidates, never serve, and their scheduled
	// interactions are dropped (the request had no one to make it).
	active []bool
	// activeIDs is the sorted id list of present peers — the active-peer
	// index round planning and candidate sampling draw from, so their cost
	// tracks the active population rather than NumPeers. It is rebuilt
	// lazily (activeDirty) after membership changes; activeCount is
	// maintained eagerly so ActivePeers stays O(1). All three are derived
	// from active and are deliberately not serialized.
	activeIDs   []int //trustlint:derived index over active, rebuilt lazily after restore (activeDirty)
	activeDirty bool  //trustlint:derived set by restore to force the activeIDs rebuild
	activeCount int   //trustlint:derived recounted from active on restore
	// pending buffers the reports the gatherer admits during a round; they
	// flush to the mechanism in one batch at the end of the round (see
	// flushReports). The buffer is always empty between rounds, so it is
	// not part of EngineState.
	pending []reputation.Report //trustlint:derived always empty between rounds, when snapshots are taken
	// The round buffers (see shard.go): one plan, one result and one
	// CandidateSize-id candidate slot per interaction, the served
	// interactions' profile disclosures, one scratch per scatter chunk, the
	// inputs the scatter reads, and the scatter body, built once.
	plans        []interactionPlan   //trustlint:derived round buffer, empty between rounds
	results      []interactionResult //trustlint:derived round buffer, empty between rounds
	cands        []int32             //trustlint:derived round buffer, empty between rounds
	disclosures  []profileDisclosure //trustlint:derived round buffer, empty between rounds
	chunks       []chunkScratch      //trustlint:derived scatter scratch, contents never outlive one simulation
	in           roundInputs         //trustlint:derived set for one scatter and cleared after it
	scatterChunk func(lo, hi int)    //trustlint:derived built once by NewEngine
	// gate caches the round's trust gate, the TrustGate quantile of the
	// scores, for the (scores version, TrustGate) pair it was computed at;
	// gateLevel is 0, which no gating level equals, while nothing is
	// cached (before the first gated round and after a restore).
	gate        float64 //trustlint:derived cache, recomputed when the scores version or the trust gate moves
	gateVersion uint64  //trustlint:derived process-local cursor of the cached gate
	gateLevel   float64 //trustlint:derived key of the cached gate, compared with cfg.TrustGate; reset by restore
	// computeIters accumulates the iteration counts returned by every
	// mechanism Compute the engine triggers (periodic recomputes and
	// summary barriers) — the solver-cost ledger behind the facade's
	// convergence diagnostics.
	computeIters int64
	// roundObserver, when set, is invoked with each completed round's stats
	// (the session layer's OnRound hook). It runs after the round's state is
	// fully merged and must not mutate the engine.
	roundObserver func(RoundStats) //trustlint:derived session-layer hook, re-attached by the owner after restore
	// scatterDelegate, when set, may execute the scatter phase externally
	// (the cluster master); see cluster.go for the bit-exactness contract.
	scatterDelegate ScatterDelegate //trustlint:derived cluster-layer hook, re-attached by the owner after restore; bit-exact by contract
	// reportObserver, when set, sees every report batch delivered to the
	// mechanism — the cluster master's replica-mirroring hook.
	reportObserver func([]reputation.Report) //trustlint:derived cluster-layer hook, re-attached by the owner after restore; pure observation
	// mutationGen counts out-of-round mutations of simulate-visible state;
	// see MutationGen in cluster.go.
	mutationGen uint64 //trustlint:derived replica-sync cursor, compared only against itself within one master process
	// honestyGen counts honesty-override changes, which a replica can take
	// without a full snapshot; see HonestyGen in cluster.go.
	honestyGen uint64 //trustlint:derived replica-sync cursor for the honesty override alone, compared only against itself within one master process
	// servedCount/qualSum accumulate each provider's realized service
	// incrementally (refusals as quality 0), so ground truth and the served
	// set never require rescanning the interaction log.
	servedCount []int
	qualSum     []float64
	// servedIDs is the ascending id list of providers with servedCount > 0,
	// rebuilt lazily (servedStale) when a provider first serves, so per-epoch
	// facet measurement iterates the served set without a Θ(n) scan.
	servedIDs   []int //trustlint:derived index over servedCount, rebuilt lazily after restore (servedStale)
	servedStale bool  //trustlint:derived set by restore (and first-serve transitions) to force the servedIDs rebuild
	// satDirty marks users whose satisfaction EMA state was touched by the
	// gather phase since the last ResetSatisfactionTouched — the
	// satisfaction leg of the epoch tail's facet dirty set.
	satDirty metrics.DirtySet
}

// NewEngine assembles a scenario around the provided mechanism (which must
// be sized for cfg.NumPeers).
func NewEngine(cfg Config, mech reputation.Mechanism) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if mech == nil {
		return nil, fmt.Errorf("workload: nil mechanism")
	}
	rng := sim.NewRNG(cfg.Seed)
	classes, err := cfg.Mix.Assign(rng.Split(), cfg.NumPeers)
	if err != nil {
		return nil, fmt.Errorf("workload: assign behaviours: %w", err)
	}
	var friends *graph.Graph
	grng := rng.Split()
	switch cfg.Graph {
	case BarabasiAlbert:
		friends, err = graph.BarabasiAlbert(grng, cfg.NumPeers, cfg.GraphParam)
	case WattsStrogatz:
		friends, err = graph.WattsStrogatz(grng, cfg.NumPeers, cfg.GraphParam, 0.1)
	case ErdosRenyi:
		p := float64(cfg.GraphParam) / float64(cfg.NumPeers-1)
		friends, err = graph.ErdosRenyi(grng, cfg.NumPeers, p)
	default:
		return nil, fmt.Errorf("workload: unknown graph kind %d", cfg.Graph)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	snet, err := social.NewNetwork(friends)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	e := &Engine{
		cfg:         cfg,
		rng:         rng,
		snet:        snet,
		mech:        mech,
		classes:     classes,
		shards:      cfg.Shards,
		servedCount: make([]int, cfg.NumPeers),
		qualSum:     make([]float64, cfg.NumPeers),
		ledger:      privacy.NewLedger(),
		ledgerScale: cfg.ExposureScale,
	}
	e.profile = e.ledger.Item(profileKey)
	e.scatterChunk = e.newScatterChunk()
	e.rebuildColluders()
	if cfg.ActivitySkew > 0 {
		e.activity = sim.NewZipf(rng.Split(), cfg.NumPeers, cfg.ActivitySkew)
		e.activityOrder = rng.Perm(cfg.NumPeers)
	}
	disclosure := make([]float64, cfg.NumPeers)
	for i := range disclosure {
		disclosure[i] = cfg.Disclosure
	}
	e.gatherer = reputation.NewGatherer(rng.Split(), disclosure)
	// Sparse uniform intentions: preferences start at 0.5 and deviate only
	// for providers actually experienced; providers are mostly willing
	// (imposed requests dent satisfaction). Dense vectors here would cost
	// Θ(n²) memory — fatal at 100k+ peers. Every peer starts as a copy of
	// one validated template, stored by value.
	c, err := satisfaction.NewUniformConsumer(cfg.NumPeers, 0.5, cfg.Memory)
	if err != nil {
		return nil, err
	}
	p, err := satisfaction.NewUniformProvider(cfg.NumPeers, 0.8, cfg.Memory)
	if err != nil {
		return nil, err
	}
	e.consumers = make([]satisfaction.Consumer, cfg.NumPeers)
	e.providers = make([]satisfaction.Provider, cfg.NumPeers)
	for i := range e.consumers {
		e.consumers[i] = *c
		e.providers[i] = *p
	}
	return e, nil
}

// SetDisclosure sets peer u's disclosure probability in place (clamped to
// [0,1] by the gatherer), keeping the gatherer's random stream and counters.
// The gatherer is consumed only on the sequential gather path, so no replica
// resync is needed.
func (e *Engine) SetDisclosure(u int, v float64) { e.gatherer.SetDisclosure(u, v) }

// Disclosure returns peer u's current disclosure probability.
func (e *Engine) Disclosure(u int) float64 { return e.gatherer.Disclosure(u) }

// SetHonesty sets peer u's truthful-report probability, overriding its
// behaviour-class honesty (the §3 coupling between system trust and honest
// contribution). The first call installs an override that keeps every other
// peer truthful. A change bumps the honesty generation, not the mutation
// generation, so a cluster replica catches up by installing the vector
// instead of a full resync.
func (e *Engine) SetHonesty(u int, h float64) {
	if e.honestOverride == nil {
		e.honestOverride = make([]float64, e.cfg.NumPeers)
		for i := range e.honestOverride {
			e.honestOverride[i] = 1
		}
		e.honestyGen++
	}
	if e.honestOverride[u] != h {
		e.honestOverride[u] = h
		e.honestyGen++
	}
}

// HonestOverride returns the installed honesty override (nil when none).
// The slice is the engine's own: callers must not modify or retain it.
func (e *Engine) HonestOverride() []float64 { return e.honestOverride }

// SetHonestOverride replaces the whole honesty override (nil restores class
// behaviour): the cluster worker's install of its master's vector. A vector
// whose length is not the population size, or that holds a value outside
// [0,1], is an error and changes nothing.
func (e *Engine) SetHonestOverride(h []float64) error {
	if h != nil {
		if err := checkUnitVector("honesty override", h, e.cfg.NumPeers); err != nil {
			return err
		}
		h = append([]float64(nil), h...)
	}
	e.honestOverride = h
	e.honestyGen++
	return nil
}

// checkUnitVector rejects a per-peer probability vector whose length is not
// n or that holds a value outside [0,1] (NaN included).
func checkUnitVector(what string, v []float64, n int) error {
	if len(v) != n {
		return fmt.Errorf("workload: %s has %d entries, want %d", what, len(v), n)
	}
	for i, x := range v {
		if !(x >= 0 && x <= 1) {
			return fmt.Errorf("workload: %s of peer %d is %v, out of [0,1]", what, i, x)
		}
	}
	return nil
}

// Network exposes the social network.
func (e *Engine) Network() *social.Network { return e.snet }

// Mechanism exposes the reputation mechanism.
func (e *Engine) Mechanism() reputation.Mechanism { return e.mech }

// Gatherer exposes the current gatherer (for share-rate stats).
func (e *Engine) Gatherer() *reputation.Gatherer { return e.gatherer }

// Classes returns the ground-truth behaviour class per peer.
func (e *Engine) Classes() []adversary.Class {
	out := make([]adversary.Class, len(e.classes))
	copy(out, e.classes)
	return out
}

// Ledger exposes the engine's privacy ledger.
func (e *Engine) Ledger() *privacy.Ledger { return e.ledger }

// RefreshPrivacyFacets brings the ledger's facet cache up to date at the
// current exposure scale and clears the ledger's dirty owners. It mutates
// the cache, so it must run on a sequential phase, before PrivacyFacetOf
// calls fan out over shards; the epoch boundary is its one caller, after it
// has read LedgerDirtyOwners.
func (e *Engine) RefreshPrivacyFacets() { e.ledger.RefreshFacets(e.ledgerScale) }

// PrivacyFacetOf returns one user's privacy facet at the current exposure
// scale. It never mutates the ledger, so it is safe to fan out over shards;
// after RefreshPrivacyFacets it is a cached read.
func (e *Engine) PrivacyFacetOf(u int) float64 { return e.ledger.PrivacyFacet(u, e.ledgerScale) }

// LedgerDirtyOwners returns the owner ids whose ledger state changed since
// the last RefreshPrivacyFacets, each once and in no set order. The slice is
// owned by the ledger and valid until its next mutation — read it before
// refreshing.
func (e *Engine) LedgerDirtyOwners() []int { return e.ledger.DirtyOwners() }

// LedgerScale returns the exposure normalization scale currently in effect
// for the ledger's privacy facet.
func (e *Engine) LedgerScale() float64 { return e.ledgerScale }

// UserSatisfaction returns one user's satisfaction facet: her long-run
// satisfaction averaged over her consumer and provider roles.
func (e *Engine) UserSatisfaction(u int) float64 {
	return (e.consumers[u].Satisfaction() + e.providers[u].Satisfaction()) / 2
}

// SatisfactionTouched returns the ascending ids of users whose satisfaction
// EMA state was touched by the gather phase since the last reset. The slice
// is owned by the engine and valid until the next round or reset.
func (e *Engine) SatisfactionTouched() []int { return e.satDirty.Sorted() }

// ResetSatisfactionTouched clears the satisfaction dirty set, typically
// after an epoch's facet measurement has consumed it.
func (e *Engine) ResetSatisfactionTouched() { e.satDirty.Reset() }

// BarrierCompute forces a mechanism recompute — the measurement barrier that
// ends a measurement period, so facet measurement sees scores that reflect
// every gathered report — and folds its iteration count into the
// solver-cost ledger. Every epoch boundary runs one; reads never do.
func (e *Engine) BarrierCompute() {
	e.computeIters += int64(e.mech.Compute())
}

// ServedProviders returns the ascending ids of providers that ever served
// (servedCount > 0), rebuilt lazily after a first-serve transition or a
// restore. The slice is owned by the engine and valid until the next round.
func (e *Engine) ServedProviders() []int {
	if e.servedStale {
		e.servedIDs = e.servedIDs[:0]
		for p, cnt := range e.servedCount {
			if cnt > 0 {
				e.servedIDs = append(e.servedIDs, p)
			}
		}
		e.servedStale = false
	}
	return e.servedIDs
}

// ProviderQuality returns a provider's realized mean service quality from
// the incremental accumulators: refusals count as quality 0, and a provider
// who never served scores 1, so an unknown peer ranks as neutral-good
// rather than bad.
func (e *Engine) ProviderQuality(p int) float64 {
	if p < 0 || p >= len(e.servedCount) || e.servedCount[p] == 0 {
		return 1
	}
	return e.qualSum[p] / float64(e.servedCount[p])
}

// Round executes one interaction round through the sharded scatter-gather
// pipeline (see shard.go): the schedule is planned on the main stream,
// interactions are simulated in parallel over the engine's shards, and the
// results merge into the shared state in canonical order. Equal seeds give
// identical rounds for every shard count.
func (e *Engine) Round() RoundStats {
	cfg := e.cfg
	st := RoundStats{Round: e.round}
	// The round only gates and ranks on the scores, so it reads the
	// mechanism's view: no report in the round recomputes them.
	scores := e.mech.ScoresView()
	// Freshen the active index on the sequential path: the scatter phase
	// reads it from every shard concurrently.
	pool := e.activePool()
	e.planRound(pool)
	e.scatter(roundInputs{scores: scores, gate: e.trustGate(scores), pool: pool, round: e.round})
	e.gather(&st)
	e.plans, e.results, e.cands = e.plans[:0], e.results[:0], e.cands[:0]
	// Malicious collective: each colluder fabricates one satisfied
	// transaction about another clique member per round. Absent colluders
	// neither stuff ballots nor receive them.
	if len(e.colluders) > 1 {
		for _, c := range e.colluders {
			if !e.PeerActive(c) {
				continue
			}
			m := e.colluders[e.rng.Intn(len(e.colluders))]
			if m == c || !e.PeerActive(m) {
				continue
			}
			e.FakeReports++
			e.offerReport(e.snet.NextTxID(), c, m, 1.0)
		}
	}
	e.flushReports()
	e.round++
	if e.round%cfg.RecomputeEvery == 0 {
		e.computeIters += int64(e.mech.Compute())
	}
	e.rounds = append(e.rounds, st)
	e.cumulative.Interactions += st.Interactions
	e.cumulative.BadService += st.BadService
	e.cumulative.Refused += st.Refused
	if e.roundObserver != nil {
		e.roundObserver(st)
	}
	return st
}

// trustGate returns the privacy policy's MinTrustLevel gate for a round:
// the TrustGate quantile of the scores, or -1 when the policy does not
// gate. The quantile is computed once per scores version and gate level,
// and reused while neither moves.
func (e *Engine) trustGate(scores []float64) float64 {
	level := e.cfg.TrustGate
	if level <= 0 {
		return -1
	}
	if v := e.mech.ScoresVersion(); v != e.gateVersion || level != e.gateLevel {
		e.gate = metrics.Quantile(scores, level)
		e.gateVersion, e.gateLevel = v, level
	}
	return e.gate
}

// rate computes the consumer's reported rating, honouring the honesty
// override when installed. It draws only from the supplied stream so it is
// safe in the scatter phase.
func (e *Engine) rate(rng *sim.RNG, consumer, provider int, quality float64) float64 {
	if e.honestOverride != nil {
		if rng.Bool(e.honestOverride[consumer]) {
			return quality
		}
		return 1 - quality
	}
	return adversary.Rate(e.classes[consumer], quality, e.classes[provider] == adversary.Colluder)
}

// offerReport runs the rater's disclosure draw at its canonical position in
// the round and, when admitted, buffers the report for the end-of-round
// batch flush. Deferring delivery does not change mechanism state: scores
// are only consumed at Compute (end of round) and at the next round's start,
// and the flush preserves report order.
func (e *Engine) offerReport(tx uint64, rater, ratee int, value float64) {
	if !e.gatherer.Admit(rater) {
		return
	}
	e.pending = append(e.pending, reputation.Report{
		TxID: tx, Rater: rater, Ratee: ratee, Value: value,
	})
}

// flushReports delivers the round's admitted reports to the mechanism — in
// one SubmitBatch call when the mechanism supports it — and completes the
// gatherer and ledger accounting for each delivered report. Batching is
// optional because the two paths differ on failure: per-report delivery
// drops only a rejected report, a batch aborts at the first one. For the
// batch submitters (EigenTrust, PowerTrust) errors only arise from
// malformed reports, which the engine never produces; TrustMe's Submit can
// also fail on a DHT lookup or store, so it keeps per-report delivery.
func (e *Engine) flushReports() {
	if len(e.pending) == 0 {
		return
	}
	if bs, ok := e.mech.(reputation.BatchSubmitter); ok {
		if bs.SubmitBatch(e.pending) == nil {
			for i := range e.pending {
				r := &e.pending[i]
				e.gatherer.Commit(r.Rater)
				e.ledger.RecordFeedback(r.Rater)
			}
			if e.reportObserver != nil {
				e.reportObserver(e.pending)
			}
		}
	} else {
		var delivered []reputation.Report
		for i := range e.pending {
			r := &e.pending[i]
			if e.mech.Submit(*r) != nil {
				continue
			}
			e.gatherer.Commit(r.Rater)
			e.ledger.RecordFeedback(r.Rater)
			if e.reportObserver != nil {
				delivered = append(delivered, *r)
			}
		}
		if len(delivered) > 0 {
			e.reportObserver(delivered)
		}
	}
	e.pending = e.pending[:0]
}

// sampleCandidates picks the candidate provider set for a consumer: its
// friends first (social locality), padded with uniform strangers. Strangers
// are drawn from the active-peer index (pool) when churn has thinned the
// population — never rejection-sampled against all of 0..n — so the draw
// cost tracks present peers. A nil pool means everyone is present and
// strangers come uniformly from the full id range. It draws only from the
// supplied stream so it is safe in the scatter phase. The set is appended
// to out, which the caller passes empty with capacity CandidateSize (never
// exceeded); perm is the caller's scratch for the friend permutation.
func (e *Engine) sampleCandidates(rng *sim.RNG, consumer int, pool []int, out []int32, perm *[]int) []int32 {
	size := e.cfg.CandidateSize
	// Candidate sets are tiny (default 5), so a linear membership scan
	// beats allocating a map in this per-interaction hot path.
	seen := func(p int) bool {
		if p == consumer || !e.PeerActive(p) {
			return true
		}
		for _, q := range out {
			if int(q) == p {
				return true
			}
		}
		return false
	}
	friends := e.snet.FriendsOf(consumer)
	if len(friends) > 0 {
		// The draws of rng.Perm, into the caller's reused buffer.
		p := slices.Grow((*perm)[:0], len(friends))[:len(friends)]
		rng.PermInto(p)
		*perm = p
		for _, idx := range p {
			if len(out) >= size/2+1 {
				break
			}
			if f := friends[idx]; !seen(int(f)) {
				out = append(out, f)
			}
		}
	}
	if pool == nil {
		n := e.cfg.NumPeers
		for guard := 0; len(out) < size && guard < n*4; guard++ {
			if p := rng.Intn(n); !seen(p) {
				out = append(out, int32(p))
			}
		}
		return out
	}
	// Draws from the pool only collide with self, friends already picked,
	// or earlier duplicates, so a small multiple of the pool bounds the
	// rejection loop even when few peers remain.
	for guard := 0; len(out) < size && guard < len(pool)*4; guard++ {
		if p := pool[rng.Intn(len(pool))]; !seen(p) {
			out = append(out, int32(p))
		}
	}
	return out
}

// Run executes n rounds.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Round()
	}
}

// RunContext executes up to n rounds, consulting ctx before each one so a
// long epoch cannot stall cancellation (a served daemon's shutdown must not
// wait out a large in-flight epoch). It returns the context's error when
// interrupted; rounds already run stay merged, so the engine state is that
// of a shorter run, not a corrupt one.
func (e *Engine) RunContext(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.Round()
	}
	return nil
}

// SubmitExternalReport feeds one externally submitted feedback report —
// e.g. an API client of a served engine — straight into the reputation
// mechanism, bypassing the disclosure-limited gatherer: submitting through
// the API is an explicit disclosure, not a behavioural draw, so no random
// stream is consumed. The transaction id comes from the social network's
// counter (snapshotted state), so a run that replays the same submissions
// at the same epoch boundaries reproduces identical mechanism state.
func (e *Engine) SubmitExternalReport(rater, ratee int, value float64) error {
	r := reputation.Report{Rater: rater, Ratee: ratee, Value: value}
	if err := r.ValidateExternal(e.cfg.NumPeers); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	r.TxID = e.snet.NextTxID()
	if err := e.mech.Submit(r); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	// Same accounting as a gathered in-simulation report: sharing feedback
	// discloses the rater's behavioural data to the mechanism.
	e.ledger.RecordFeedback(rater)
	if e.reportObserver != nil {
		e.reportObserver([]reputation.Report{r})
	}
	return nil
}

// Summary aggregates scenario-level metrics.
type Summary struct {
	Rounds int `json:"rounds"`
	// BadServiceRate is the cumulative fraction of interactions with bad
	// or refused service.
	BadServiceRate float64 `json:"bad_service_rate"`
	// RecentBadRate is the bad-service rate over the last quarter of
	// rounds (the converged regime).
	RecentBadRate float64 `json:"recent_bad_rate"`
	// Tau is the Kendall rank correlation between mechanism scores and
	// ground-truth provider quality — the paper's "consistency with the
	// reality" reputation power.
	Tau float64 `json:"tau"`
	// ConsumerSat / ProviderSat are the mean long-run satisfactions.
	ConsumerSat float64 `json:"consumer_sat"`
	ProviderSat float64 `json:"provider_sat"`
	// ShareRate is the fraction of reports actually disclosed.
	ShareRate float64 `json:"share_rate"`
}

// Summarize computes the summary so far. It is a pure read: Tau ranks the
// mechanism's scores as of its last Compute (every epoch ends with one).
func (e *Engine) Summarize() Summary {
	s := Summary{Rounds: e.round}
	if e.cumulative.Interactions > 0 {
		s.BadServiceRate = float64(e.cumulative.BadService) / float64(e.cumulative.Interactions)
	}
	q := len(e.rounds) / 4
	if q < 1 {
		q = 1
	}
	recent := RoundStats{}
	for _, r := range e.rounds[len(e.rounds)-min(q, len(e.rounds)):] {
		recent.Interactions += r.Interactions
		recent.BadService += r.BadService
	}
	s.RecentBadRate = recent.BadRate()
	// Reputation power = rank agreement between scores and realized
	// behaviour, over peers that actually served (others have no ground
	// truth to be consistent with), in the order the epoch boundary reads
	// them.
	scores := e.mech.ScoresView()
	served := e.ServedProviders()
	gtServed := make([]float64, len(served))
	scServed := make([]float64, len(served))
	for i, p := range served {
		gtServed[i] = e.ProviderQuality(p)
		scServed[i] = scores[p]
	}
	s.Tau = metrics.KendallTau(scServed, gtServed)
	cs := make([]float64, len(e.consumers))
	ps := make([]float64, len(e.providers))
	for i := range e.consumers {
		cs[i] = e.consumers[i].Satisfaction()
		ps[i] = e.providers[i].Satisfaction()
	}
	s.ConsumerSat = metrics.Mean(cs)
	s.ProviderSat = metrics.Mean(ps)
	if tot := e.gatherer.Gathered + e.gatherer.Withheld; tot > 0 {
		s.ShareRate = float64(e.gatherer.Gathered) / float64(tot)
	}
	return s
}

// CumulativeStats returns the accumulated round totals so far (Round field
// holds the number of completed rounds).
func (e *Engine) CumulativeStats() RoundStats {
	st := e.cumulative
	st.Round = e.round
	return st
}

// Shards returns the scatter-phase worker count.
func (e *Engine) Shards() int { return e.shards }

// SetRoundObserver installs (or, with nil, removes) the callback invoked
// after every completed round. The callback sees the merged round stats and
// must not mutate the engine; pure observation does not perturb any random
// stream, so observed and unobserved runs are bit-for-bit identical.
func (e *Engine) SetRoundObserver(fn func(RoundStats)) { e.roundObserver = fn }

// PeerActive reports whether a peer is currently present in the network.
func (e *Engine) PeerActive(peer int) bool {
	if peer < 0 || peer >= e.cfg.NumPeers {
		return false
	}
	return e.active == nil || e.active[peer]
}

// SetPeerActive marks a peer present (Join) or absent (Leave). Absent peers
// are excluded from candidate sets, drop their scheduled requests, and do
// not ballot-stuff; all their accumulated state (satisfaction, reputation,
// ledger) survives for when they rejoin.
func (e *Engine) SetPeerActive(peer int, on bool) error {
	if peer < 0 || peer >= e.cfg.NumPeers {
		return fmt.Errorf("workload: peer %d out of range [0,%d)", peer, e.cfg.NumPeers)
	}
	if e.active == nil {
		if on {
			return nil // everyone already present
		}
		e.active = make([]bool, e.cfg.NumPeers)
		for i := range e.active {
			e.active[i] = true
		}
		e.activeCount = e.cfg.NumPeers
		e.activeDirty = true
	}
	if e.active[peer] != on {
		e.active[peer] = on
		if on {
			e.activeCount++
		} else {
			e.activeCount--
		}
		e.activeDirty = true
		e.mutationGen++
	}
	return nil
}

// activePool returns the sorted id list of present peers, rebuilding it
// from the membership bitmap only after a change. nil means everyone is
// present (callers then draw from the full 0..NumPeers range, which makes
// churn-free runs bit-identical to index-free sampling). Must be called
// from the sequential phases only: the scatter shards read the returned
// slice concurrently.
func (e *Engine) activePool() []int {
	if e.active == nil {
		return nil
	}
	if e.activeDirty {
		e.activeIDs = e.activeIDs[:0]
		for i, on := range e.active {
			if on {
				e.activeIDs = append(e.activeIDs, i)
			}
		}
		e.activeDirty = false
	}
	return e.activeIDs
}

// ActivePeers returns how many peers are currently present.
func (e *Engine) ActivePeers() int {
	if e.active == nil {
		return e.cfg.NumPeers
	}
	return e.activeCount
}

// ComputeIterations returns the cumulative number of solver iterations the
// mechanism has spent across every Compute the engine triggered.
func (e *Engine) ComputeIterations() int64 { return e.computeIters }

// Convergence returns the mechanism's diagnostics for its most recent
// iterative Compute; ok is false when the mechanism is not an iterative
// solver or has not recomputed yet.
func (e *Engine) Convergence() (reputation.Convergence, bool) {
	if cr, ok := e.mech.(reputation.ConvergenceReporter); ok {
		return cr.LastConvergence()
	}
	return reputation.Convergence{}, false
}

// SetTrustGate changes the privacy trust-gate strictness mid-run (a
// privacy-policy intervention). The new gate applies from the next round.
func (e *Engine) SetTrustGate(gate float64) error {
	if gate < 0 || gate >= 1 {
		return fmt.Errorf("workload: trust gate %v out of [0,1)", gate)
	}
	e.cfg.TrustGate = gate
	return nil
}

// SetLedgerScale changes the exposure normalization scale of the ledger's
// privacy facet (0 means DefaultExposureScale).
func (e *Engine) SetLedgerScale(scale float64) error {
	if scale < 0 {
		return fmt.Errorf("workload: negative exposure scale %v", scale)
	}
	if scale == 0 {
		scale = DefaultExposureScale
	}
	e.ledgerScale = scale
	return nil
}

// SetBehaviorClass swaps a peer's behaviour class mid-run (adversary
// activation / honesty restoration). It refuses an unknown class and
// leaves the engine unchanged then.
func (e *Engine) SetBehaviorClass(peer int, class adversary.Class) error {
	if peer < 0 || peer >= e.cfg.NumPeers {
		return fmt.Errorf("workload: peer %d out of range [0,%d)", peer, e.cfg.NumPeers)
	}
	if !class.Valid() {
		return fmt.Errorf("workload: unknown behaviour class %d", int(class))
	}
	if e.classes[peer] == class {
		return nil
	}
	e.mutationGen++
	wasColluder := e.classes[peer] == adversary.Colluder
	e.classes[peer] = class
	if wasColluder || class == adversary.Colluder {
		e.rebuildColluders()
	}
	return nil
}

// rebuildColluders recomputes the colluder roster from the classes.
func (e *Engine) rebuildColluders() {
	e.colluders = e.colluders[:0]
	for id, c := range e.classes {
		if c == adversary.Colluder {
			e.colluders = append(e.colluders, id)
		}
	}
}
