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
	"strconv"

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
	// AdvCfg tunes the behaviour models.
	AdvCfg adversary.Config
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
	// The zero value means "default"; pass any negative value for an
	// explicit zero (share nothing).
	Disclosure float64
	// Selection is the response policy (default SelectBest).
	Selection Selection
	// RecomputeEvery recomputes mechanism scores every k rounds
	// (default 5).
	RecomputeEvery int
	// Memory is the satisfaction EMA weight (default satisfaction.DefaultMemory).
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
}

func (c Config) withDefaults() (Config, error) {
	if c.NumPeers <= 1 {
		return c, fmt.Errorf("workload: NumPeers must be > 1, got %d", c.NumPeers)
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
	if c.InteractionsPerRound <= 0 {
		c.InteractionsPerRound = c.NumPeers
	}
	if c.CandidateSize <= 0 {
		c.CandidateSize = 5
	}
	switch {
	case c.Disclosure < 0:
		c.Disclosure = 0
	case c.Disclosure == 0:
		c.Disclosure = 1
	}
	if c.Disclosure > 1 {
		return c, fmt.Errorf("workload: disclosure %v out of [0,1]", c.Disclosure)
	}
	if c.Selection == 0 {
		c.Selection = SelectBest
	}
	if c.RecomputeEvery <= 0 {
		c.RecomputeEvery = 5
	}
	if c.Memory == 0 {
		c.Memory = satisfaction.DefaultMemory
	}
	if c.TrustGate < 0 || c.TrustGate >= 1 {
		return c, fmt.Errorf("workload: trust gate %v out of [0,1)", c.TrustGate)
	}
	if c.ActivitySkew < 0 {
		return c, fmt.Errorf("workload: negative activity skew %v", c.ActivitySkew)
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("workload: negative shard count %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c, nil
}

// Validate checks the configuration without assembling an engine; it
// catches everything NewEngine itself would reject. The public facade runs
// it before spending single-use resources (e.g. a wrapped mechanism).
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
	consumers []*satisfaction.Consumer
	providers []*satisfaction.Provider
	classes   []adversary.Class
	// honestOverride, when non-nil, replaces each peer's honesty: the
	// probability it reports truthfully (the §3 coupling between system
	// trust and honest contribution).
	honestOverride []float64
	round          int
	rounds         []RoundStats
	cumulative     RoundStats
	// ledger, when attached, accounts every information flow: the
	// consumer's profile attribute disclosed to the provider on each
	// interaction, and each feedback report disclosed to the mechanism.
	ledger      *privacy.Ledger //trustlint:derived attached by the owner; the ledger snapshots itself through its own State/SetState
	ledgerScale float64
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
	shards int //trustlint:derived execution-shape knob (SetShards); bit-identical results for any value
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
	// computeIters accumulates the iteration counts returned by every
	// mechanism Compute the engine triggers (periodic recomputes and
	// summary barriers) — the solver-cost ledger behind the facade's
	// convergence diagnostics.
	computeIters int64
	// clique is the current colluder id set, shared by every colluder
	// behaviour so intervention-time class swaps keep the clique coherent.
	clique map[int]bool //trustlint:derived rebuilt from colluders, which come from the scenario's adversary classes
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
	// profileItem caches each user's ledger item name so the gather phase
	// does not re-format it on every interaction.
	profileItem []string //trustlint:derived format cache, a pure function of the peer id
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
	behaviors, classes, err := cfg.Mix.Assign(rng.Split(), cfg.NumPeers, cfg.AdvCfg)
	if err != nil {
		return nil, fmt.Errorf("workload: assign behaviours: %w", err)
	}
	var friends *graph.Graph
	grng := rng.Split()
	switch cfg.Graph {
	case BarabasiAlbert:
		friends = graph.BarabasiAlbert(grng, cfg.NumPeers, cfg.GraphParam)
	case WattsStrogatz:
		friends = graph.WattsStrogatz(grng, cfg.NumPeers, cfg.GraphParam, 0.1)
	case ErdosRenyi:
		p := float64(cfg.GraphParam) / float64(cfg.NumPeers-1)
		friends = graph.ErdosRenyi(grng, cfg.NumPeers, p)
	default:
		return nil, fmt.Errorf("workload: unknown graph kind %d", cfg.Graph)
	}
	users := make([]*social.User, cfg.NumPeers)
	for i := range users {
		users[i] = &social.User{
			ID:             i,
			Profile:        social.StandardProfile(i),
			Behavior:       behaviors[i],
			BaseDisclosure: cfg.Disclosure,
		}
	}
	snet, err := social.NewNetwork(users, friends)
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
		profileItem: make([]string, cfg.NumPeers),
	}
	// Mechanism compute parallelizes under the same shard configuration as
	// the epoch pipeline (and with the same determinism contract).
	if cs, ok := mech.(reputation.ComputeSharder); ok {
		cs.SetComputeShards(cfg.Shards)
	}
	for i := range e.profileItem {
		e.profileItem[i] = "profile/" + strconv.Itoa(i)
	}
	e.clique = make(map[int]bool)
	for id, c := range classes {
		if c == adversary.Colluder {
			e.colluders = append(e.colluders, id)
			e.clique[id] = true
		}
	}
	if cfg.ActivitySkew > 0 {
		e.activity = sim.NewZipf(rng.Split(), cfg.NumPeers, cfg.ActivitySkew)
		e.activityOrder = rng.Perm(cfg.NumPeers)
	}
	e.setUniformDisclosure(cfg.Disclosure)
	e.consumers = make([]*satisfaction.Consumer, cfg.NumPeers)
	e.providers = make([]*satisfaction.Provider, cfg.NumPeers)
	for i := 0; i < cfg.NumPeers; i++ {
		// Sparse uniform intentions: preferences start at 0.5 and deviate only
		// for providers actually experienced; providers are mostly willing
		// (imposed requests dent satisfaction). Dense vectors here would cost
		// Θ(n²) memory — fatal at 100k+ peers.
		c, err := satisfaction.NewUniformConsumer(cfg.NumPeers, 0.5, cfg.Memory)
		if err != nil {
			return nil, err
		}
		p, err := satisfaction.NewUniformProvider(cfg.NumPeers, 0.8, cfg.Memory)
		if err != nil {
			return nil, err
		}
		e.consumers[i] = c
		e.providers[i] = p
	}
	return e, nil
}

func (e *Engine) setUniformDisclosure(d float64) {
	vec := make([]float64, e.cfg.NumPeers)
	for i := range vec {
		vec[i] = d
	}
	e.gatherer = reputation.NewGatherer(e.rng.Split(), vec)
}

// SetDisclosure installs a per-peer disclosure vector (values clamped by the
// gatherer).
func (e *Engine) SetDisclosure(d []float64) {
	e.gatherer = reputation.NewGatherer(e.rng.Split(), d)
}

// SetHonestOverride installs per-peer truthful-report probabilities,
// overriding behaviour-class honesty (nil restores class behaviour). A
// change bumps the honesty generation, not the mutation generation, so a
// cluster replica catches up by installing the vector instead of a full
// resync; a vector bitwise identical to the installed one is a no-op that
// bumps neither.
func (e *Engine) SetHonestOverride(h []float64) {
	if h == nil {
		if e.honestOverride != nil {
			e.honestOverride = nil
			e.honestyGen++
		}
		return
	}
	if len(h) == len(e.honestOverride) {
		same := true
		for i, v := range h {
			if math.Float64bits(v) != math.Float64bits(e.honestOverride[i]) {
				same = false
				break
			}
		}
		if same {
			return
		}
		copy(e.honestOverride, h)
		e.honestyGen++
		return
	}
	cp := make([]float64, len(h))
	copy(cp, h)
	e.honestOverride = cp
	e.honestyGen++
}

// ApplyHonestyDelta rewrites the honesty override for just the listed users
// from h (a full n-length vector; only cells named by ids are read). With no
// override installed yet it falls back to installing the whole vector. The
// honesty generation is bumped only when something actually changes.
func (e *Engine) ApplyHonestyDelta(ids []int, h []float64) {
	if e.honestOverride == nil {
		e.SetHonestOverride(h)
		return
	}
	changed := false
	for _, u := range ids {
		if u < 0 || u >= len(e.honestOverride) || u >= len(h) {
			continue
		}
		if math.Float64bits(e.honestOverride[u]) != math.Float64bits(h[u]) {
			e.honestOverride[u] = h[u]
			changed = true
		}
	}
	if changed {
		e.honestyGen++
	}
}

// InstallDisclosure overwrites every peer's disclosure probability in place
// (clamped by the gatherer), preserving the gatherer's random stream —
// unlike SetDisclosure, which rebuilds the gatherer on a fresh stream split.
// The gatherer is consumed only on the sequential gather path, so no replica
// resync is needed.
func (e *Engine) InstallDisclosure(d []float64) {
	for i, v := range d {
		e.gatherer.SetDisclosure(i, v)
	}
}

// UpdateDisclosure rewrites the disclosure probability for just the listed
// users from d (a full n-length vector; only cells named by ids are read) —
// the sparse-coupling twin of InstallDisclosure.
func (e *Engine) UpdateDisclosure(ids []int, d []float64) {
	for _, u := range ids {
		if u < 0 || u >= len(d) {
			continue
		}
		e.gatherer.SetDisclosure(u, d[u])
	}
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

// AttachLedger wires a privacy ledger into the interaction loop; scale is
// the exposure normalization scale (see privacy.Ledger.NormalizedExposure).
func (e *Engine) AttachLedger(l *privacy.Ledger, scale float64) {
	e.ledger = l
	e.ledgerScale = scale
}

// Ledger exposes the attached privacy ledger (nil when none attached).
func (e *Engine) Ledger() *privacy.Ledger { return e.ledger }

// PrivacyFacets returns each user's privacy facet from the attached ledger
// (all ones when no ledger is attached: nothing was accounted as disclosed).
// It is a pure read: owners changed since the last epoch boundary get their
// facet computed on the fly without touching the ledger's cache, so the
// per-user queries fan out over the engine's shards and the next epoch
// still sees every changed owner.
func (e *Engine) PrivacyFacets() []float64 {
	out := make([]float64, e.cfg.NumPeers)
	if e.ledger == nil {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	sim.ForChunks(e.shards, len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = e.ledger.PrivacyFacet(i, e.ledgerScale)
		}
	})
	return out
}

// RefreshPrivacyFacets brings the attached ledger's facet cache up to date
// at the current exposure scale (a no-op without a ledger) and clears the
// ledger's dirty owners. It mutates the cache, so it must run on a
// sequential phase, before PrivacyFacetOf calls fan out over shards; the
// epoch boundary is its one caller, after it has read LedgerDirtyOwners.
func (e *Engine) RefreshPrivacyFacets() {
	if e.ledger != nil {
		e.ledger.RefreshFacets(e.ledgerScale)
	}
}

// PrivacyFacetOf returns one user's privacy facet at the current exposure
// scale (1 without a ledger). It never mutates the ledger, so it is safe to
// fan out over shards; after RefreshPrivacyFacets it is a cached read.
func (e *Engine) PrivacyFacetOf(u int) float64 {
	if e.ledger == nil {
		return 1
	}
	return e.ledger.PrivacyFacet(u, e.ledgerScale)
}

// LedgerDirtyOwners returns the ascending owner ids whose ledger state
// changed since the last RefreshPrivacyFacets (nil without a ledger). The
// slice is owned by the ledger and valid until its next mutation — read it
// before refreshing.
func (e *Engine) LedgerDirtyOwners() []int {
	if e.ledger == nil {
		return nil
	}
	return e.ledger.DirtyOwners()
}

// LedgerScale returns the exposure normalization scale currently in effect
// for the attached ledger's privacy facet.
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
	gate := -1.0
	if cfg.TrustGate > 0 {
		gate = metrics.Quantile(scores, cfg.TrustGate)
	}
	// Freshen the active index on the sequential path: the scatter phase
	// reads it from every shard concurrently.
	pool := e.activePool()
	plans := e.planRound(pool)
	results := e.scatter(plans, scores, gate, pool, e.round)
	e.gather(results, &st)
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

// rate computes the consumer's reported rating, honouring the honesty
// override when installed. It draws only from the supplied stream so it is
// safe in the scatter phase.
func (e *Engine) rate(rng *sim.RNG, cu *social.User, consumer, provider int, quality float64) float64 {
	if e.honestOverride != nil {
		if rng.Bool(e.honestOverride[consumer]) {
			return quality
		}
		return 1 - quality
	}
	return cu.Behavior.Rate(rng, provider, quality)
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
				e.recordFeedbackDisclosure(r.Rater)
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
			e.recordFeedbackDisclosure(r.Rater)
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

// recordFeedbackDisclosure accounts one shared feedback report in the
// privacy ledger: sharing feedback discloses the rater's behavioural data to
// the reputation layer, so exposure grows with each shared report.
func (e *Engine) recordFeedbackDisclosure(rater int) {
	if e.ledger != nil {
		e.ledger.RecordFeedback(rater)
	}
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
func (e *Engine) sampleCandidates(rng *sim.RNG, consumer int, pool []int, out []int, perm *[]int) []int {
	cfg := e.cfg
	// Candidate sets are tiny (default 5), so a linear membership scan
	// beats allocating a map in this per-interaction hot path.
	seen := func(p int) bool {
		if p == consumer || !e.PeerActive(p) {
			return true
		}
		for _, q := range out {
			if q == p {
				return true
			}
		}
		return false
	}
	friends := e.snet.Friends().Out(consumer)
	if len(friends) > 0 {
		// The same identity fill and Shuffle draws as rng.Perm, without its
		// per-call allocation.
		p := (*perm)[:0]
		for i := range friends {
			p = append(p, i)
		}
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		*perm = p
		for _, idx := range p {
			if len(out) >= cfg.CandidateSize/2+1 {
				break
			}
			if f := friends[idx].To; !seen(f) {
				out = append(out, f)
			}
		}
	}
	if pool == nil {
		for guard := 0; len(out) < cfg.CandidateSize && guard < cfg.NumPeers*4; guard++ {
			if p := rng.Intn(cfg.NumPeers); !seen(p) {
				out = append(out, p)
			}
		}
		return out
	}
	// Draws from the pool only collide with self, friends already picked,
	// or earlier duplicates, so a small multiple of the pool bounds the
	// rejection loop even when few peers remain.
	for guard := 0; len(out) < cfg.CandidateSize && guard < len(pool)*4; guard++ {
		if p := pool[rng.Intn(len(pool))]; !seen(p) {
			out = append(out, p)
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
	if rater < 0 || rater >= e.cfg.NumPeers {
		return fmt.Errorf("workload: report rater %d out of range [0,%d)", rater, e.cfg.NumPeers)
	}
	if ratee < 0 || ratee >= e.cfg.NumPeers {
		return fmt.Errorf("workload: report ratee %d out of range [0,%d)", ratee, e.cfg.NumPeers)
	}
	if rater == ratee {
		return fmt.Errorf("workload: self-rating report by %d rejected", rater)
	}
	if !(value >= 0 && value <= 1) { // also rejects NaN
		return fmt.Errorf("workload: report value %v out of [0,1]", value)
	}
	tx := e.snet.NextTxID()
	if err := e.mech.Submit(reputation.Report{TxID: tx, Rater: rater, Ratee: ratee, Value: value}); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	// Same accounting as a gathered in-simulation report: sharing feedback
	// discloses the rater's behavioural data to the mechanism.
	e.recordFeedbackDisclosure(rater)
	if e.reportObserver != nil {
		e.reportObserver([]reputation.Report{{TxID: tx, Rater: rater, Ratee: ratee, Value: value}})
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

// SetShards changes the scatter-phase worker count (values < 1 are clamped
// to 1). Because shards are purely a scheduling decomposition, changing the
// count mid-run does not perturb results.
func (e *Engine) SetShards(k int) {
	if k < 1 {
		k = 1
	}
	e.shards = k
	if cs, ok := e.mech.(reputation.ComputeSharder); ok {
		cs.SetComputeShards(k)
	}
}

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

// SetLedgerScale changes the exposure normalization scale of the attached
// ledger's privacy facet.
func (e *Engine) SetLedgerScale(scale float64) error {
	if scale < 0 {
		return fmt.Errorf("workload: negative exposure scale %v", scale)
	}
	if scale == 0 {
		scale = 50
	}
	e.ledgerScale = scale
	return nil
}

// SetBehaviorClass swaps a peer's behaviour class mid-run (adversary
// activation / honesty restoration). Colluder swaps keep the shared clique
// coherent: every colluder behaviour is rebuilt over the updated clique.
func (e *Engine) SetBehaviorClass(peer int, class adversary.Class) error {
	if peer < 0 || peer >= e.cfg.NumPeers {
		return fmt.Errorf("workload: peer %d out of range [0,%d)", peer, e.cfg.NumPeers)
	}
	if e.classes[peer] == class {
		return nil
	}
	wasColluder := e.classes[peer] == adversary.Colluder
	// Validate and construct the non-colluder behaviour BEFORE touching any
	// shared state, so a bad class leaves clique/classes/colluders intact.
	// (A Colluder target cannot fail: its clique is non-empty once the peer
	// joins, and rebuildColluders constructs it below.)
	var b adversary.Behavior
	if class != adversary.Colluder {
		var err error
		if b, err = adversary.New(class, e.cfg.AdvCfg); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	}
	e.mutationGen++
	if class == adversary.Colluder {
		e.clique[peer] = true
	} else if wasColluder {
		delete(e.clique, peer)
	}
	e.classes[peer] = class
	if b != nil {
		e.snet.User(peer).Behavior = b
	}
	if wasColluder || class == adversary.Colluder {
		return e.rebuildColluders()
	}
	return nil
}

// rebuildColluders recomputes the colluder roster from the classes and
// refreshes every colluder's behaviour over the current shared clique.
func (e *Engine) rebuildColluders() error {
	e.colluders = e.colluders[:0]
	cfg := e.cfg.AdvCfg
	cfg.Clique = e.clique
	for id, c := range e.classes {
		if c != adversary.Colluder {
			continue
		}
		e.colluders = append(e.colluders, id)
		b, err := adversary.New(adversary.Colluder, cfg)
		if err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		e.snet.User(id).Behavior = b
	}
	return nil
}
