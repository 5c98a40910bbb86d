package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/reputation"
	"repro/internal/workload"
)

// DynamicsConfig configures the coupled-feedback simulation of §3 / Fig. 1.
// Zero fields take their defaults; Inertia and BaseHonesty read
// workload.Explicit(0) as a real zero.
type DynamicsConfig struct {
	// Workload is the scenario template. Its Disclosure field is the base
	// disclosure δ_base.
	Workload workload.Config
	// Weights combine the facets into trust (default DefaultWeights).
	Weights Weights
	// Inertia in [0,1) smooths trust across epochs (default 0.5; an
	// explicit zero is memoryless trust).
	Inertia float64
	// BaseHonesty h0 in [0,1] is the truthful-reporting probability at
	// zero trust; honesty rises to 1 with full trust (default 0.3).
	BaseHonesty float64
	// EpochRounds is how many workload rounds one coupling epoch spans
	// (default 10).
	EpochRounds int
	// Coupled enables the §3 feedback loops. When false, disclosure and
	// honesty stay pinned at their base values (the E1 ablation).
	Coupled bool
}

// Validate checks the configuration, the workload's included, without
// assembling anything; it catches everything NewDynamics itself would
// reject before the mechanism is built.
func (c DynamicsConfig) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	_, err := c.withDefaults()
	return err
}

func (c DynamicsConfig) withDefaults() (DynamicsConfig, error) {
	if c.Weights == (Weights{}) {
		c.Weights = DefaultWeights()
	}
	if err := c.Weights.Validate(); err != nil {
		return c, err
	}
	c.Inertia = workload.OrDefault(c.Inertia, 0.5)
	if err := checkInertia(c.Inertia); err != nil {
		return c, err
	}
	c.BaseHonesty = workload.OrDefault(c.BaseHonesty, 0.3)
	if !(0 <= c.BaseHonesty && c.BaseHonesty <= 1) {
		return c, fmt.Errorf("core: base honesty %v out of [0,1]", c.BaseHonesty)
	}
	if c.EpochRounds < 0 {
		return c, fmt.Errorf("core: epoch rounds must be positive, got %d", c.EpochRounds)
	}
	if c.EpochRounds == 0 {
		c.EpochRounds = 10
	}
	return c, nil
}

// EpochStats records the coupled system's state after one epoch.
type EpochStats struct {
	Epoch int `json:"epoch"`
	// Trust is the mean trust towards the system.
	Trust float64 `json:"trust"`
	// Satisfaction, Reputation, Privacy are the mean facet values.
	Satisfaction float64 `json:"satisfaction"`
	Reputation   float64 `json:"reputation"`
	Privacy      float64 `json:"privacy"`
	// Disclosure and Honesty are the mean realized coupling variables.
	Disclosure float64 `json:"disclosure"`
	Honesty    float64 `json:"honesty"`
	// BadRate is the epoch's bad-service rate.
	BadRate float64 `json:"bad_rate"`
	// Tau is the current reputation/ground-truth rank correlation.
	Tau float64 `json:"tau"`
	// Community is the mechanism's conclusion: the fraction of rated peers
	// it considers trustworthy.
	Community float64 `json:"community"`
	// MechIterations is how many solver iterations the mechanism spent this
	// epoch (periodic recomputes plus the measurement barrier); MechResidual
	// is the final L1 residual of its most recent iterative Compute. Both
	// are 0 for non-iterative mechanisms.
	MechIterations int     `json:"mech_iterations"`
	MechResidual   float64 `json:"mech_residual"`
	// SettledUsers is how many users ended the epoch at their bitwise trust
	// fixed point — users the next epoch's sparse update may skip outright
	// unless their facets change. DirtyFacets is how many users' facet
	// triples this epoch treated as changed (the whole population when the
	// global reputation facet or the exposure scale moved). Both are
	// schedule-independent: the dense reference path maintains them
	// identically, so they are safe to golden-pin.
	SettledUsers int `json:"settled_users"`
	DirtyFacets  int `json:"dirty_facets"`
}

// Dynamics runs the coupled three-facet system: each epoch measures the
// facets, updates every user's trust, and — when coupled — feeds trust back
// into disclosure willingness ("the less a user trusts towards the system,
// the less she discloses information") and honest contribution ("the more a
// user trusts towards the system, the more she contributes honestly").
type Dynamics struct {
	cfg            DynamicsConfig
	eng            *workload.Engine
	tm             *TrustModel
	baseDisclosure float64
	// history is every completed epoch; its length is the epoch count.
	history []EpochStats

	// Sub-linear epoch tail state. The global reputation facet is shared by
	// every user, so a change in its value dirties the whole population;
	// prevRepFacet detects that by value. It is the last history entry's
	// Reputation (NaN before the first epoch, so epoch 0 is always dense),
	// kept beside it so the trust update reads it per user. couplingAll
	// forces the next §3 coupling pass to visit every user — set initially
	// (the coupling invariant is not yet established) and by the
	// base-disclosure / base-honesty / coupling interventions, whose effects
	// are not proportional to trust movement. It is serialized: a resumed run
	// must go dense exactly when the uninterrupted one would.
	prevRepFacet float64 //trustlint:derived the last history entry's Reputation, re-read by Restore
	couplingAll  bool
	// prevLedgerScale detects mid-run exposure-scale interventions, which
	// reprice every privacy facet at once (re-derived from the engine on
	// restore, so it needs no serialization).
	prevLedgerScale float64 //trustlint:derived re-read from the restored engine's exposure scale
	// Fixed-shape summation trees maintain the EpochStats means from the
	// dirty set, marked per touched leaf and flushed once per epoch; their
	// roots are bitwise equal to a dense rebuild over the same leaves (see
	// metrics.SumTree), so the restore path rebuilds them from the restored
	// engine. The trees keep only their sums: every leaf is read from the
	// engine, and the §3 coupling variables themselves live only there,
	// disclosure in its gatherer and honesty in its override.
	satTree  *metrics.SumTree //trustlint:derived rebuilt from engine satisfaction state on restore
	privTree *metrics.SumTree //trustlint:derived rebuilt from the engine's privacy facets on restore
	discTree *metrics.SumTree //trustlint:derived rebuilt from the engine's gatherer disclosure on restore
	honTree  *metrics.SumTree //trustlint:derived rebuilt from the engine's honesty override on restore
	// denseRef disables every skip (the golden-test reference mode): all
	// users update and couple each epoch. Counters and results must remain
	// bit-identical to the sparse path.
	denseRef bool //trustlint:derived test-only reference mode, never part of a captured run
	// Reusable epoch-tail scratch, so settled-regime boundaries allocate
	// nothing in the trust/coupling/aggregate phases.
	facetDirty   metrics.DirtySet //trustlint:derived per-epoch scratch, empty between epochs
	candidates   []int            //trustlint:derived per-epoch scratch, dead between epochs
	privDirtyBuf []int            //trustlint:derived per-epoch scratch, dead between epochs
	meter        facetMeter       //trustlint:derived per-epoch scratch, dead between epochs
	// facetOf is currentFacets bound once: the trust update may hand it to
	// its parallel fan-out, where a per-epoch method value would escape.
	facetOf func(int) Facets //trustlint:derived method value bound at construction
}

// NewDynamics builds the coupled system around a mechanism sized for
// cfg.Workload.NumPeers.
func NewDynamics(cfg DynamicsConfig, mech reputation.Mechanism) (*Dynamics, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	eng, err := workload.NewEngine(cfg.Workload, mech)
	if err != nil {
		return nil, fmt.Errorf("core: dynamics: %w", err)
	}
	n := cfg.Workload.NumPeers
	tm, err := NewTrustModel(n, cfg.Weights, cfg.Inertia)
	if err != nil {
		return nil, err
	}
	d := &Dynamics{cfg: cfg, eng: eng, tm: tm}
	d.facetOf = d.currentFacets
	// Every peer starts at the base disclosure the workload config resolved.
	d.baseDisclosure = eng.Disclosure(0)
	// Epoch 0 must run dense: no settled proof exists yet, the coupling
	// invariant is not established, and NaN never equals a real rep facet.
	d.prevRepFacet = math.NaN()
	d.couplingAll = true
	d.prevLedgerScale = eng.LedgerScale()
	// Each tree reads its leaves from the state the engine owns: the
	// satisfaction facet, the privacy facet cache, the gatherer's disclosure
	// and the honesty override (every peer truthful, 1, until one is
	// installed).
	d.satTree = metrics.NewSumTree(n, eng.UserSatisfaction)
	d.privTree = metrics.NewSumTree(n, eng.PrivacyFacetOf)
	d.discTree = metrics.NewSumTree(n, eng.Disclosure)
	d.honTree = metrics.NewSumTree(n, func(u int) float64 {
		if h := eng.HonestOverride(); h != nil {
			return h[u]
		}
		return 1
	})
	return d, nil
}

// SetDenseReference switches the epoch tail into its dense reference mode:
// every epoch updates every user and recomputes the full coupling pass, with
// no settled-set or dirty-set skipping. It exists for the golden bit-identity
// suite — a dense run must reproduce the sparse run's results and counters
// bit for bit — and for diagnosing a suspected skip bug in the field.
func (d *Dynamics) SetDenseReference(on bool) { d.denseRef = on }

// SetBaseDisclosure overrides δ_base, including a true zero (which the
// Config zero value cannot express). It resets every user's current
// disclosure to the new base.
func (d *Dynamics) SetBaseDisclosure(v float64) error {
	if !(0 <= v && v <= 1) {
		return fmt.Errorf("core: base disclosure %v out of [0,1]", v)
	}
	d.baseDisclosure = v
	for u := 0; u < d.cfg.Workload.NumPeers; u++ {
		d.eng.SetDisclosure(u, v)
	}
	d.discTree.Fill()
	// The next coupling pass re-derives every user from the new base.
	d.couplingAll = true
	return nil
}

// SetBaseHonesty overrides h0, the truthful-reporting probability at zero
// trust (a session intervention). It takes effect in the next epoch's
// coupling update.
func (d *Dynamics) SetBaseHonesty(h float64) error {
	if !(0 <= h && h <= 1) {
		return fmt.Errorf("core: base honesty %v out of [0,1]", h)
	}
	if h != d.cfg.BaseHonesty {
		d.cfg.BaseHonesty = h
		// h0 enters every user's honesty (and, uncoupled, every
		// disclosure-independent cell), so the next coupling pass must visit
		// everyone regardless of trust movement.
		d.couplingAll = true
	}
	return nil
}

// SetCoupled enables or disables the §3 feedback loops mid-run (a session
// intervention). A toggle switches the coupling pass between two different
// functions of trust, so the next pass must rewrite every user.
func (d *Dynamics) SetCoupled(on bool) {
	if d.cfg.Coupled != on {
		d.cfg.Coupled = on
		d.couplingAll = true
	}
}

// EpochIndex returns the index the next epoch will run as (equivalently, the
// number of completed epochs).
func (d *Dynamics) EpochIndex() int { return len(d.history) }

// TrustModel exposes the trust state.
func (d *Dynamics) TrustModel() *TrustModel { return d.tm }

// Engine exposes the underlying workload engine.
func (d *Dynamics) Engine() *workload.Engine { return d.eng }

// History returns the recorded epochs.
func (d *Dynamics) History() []EpochStats {
	out := make([]EpochStats, len(d.history))
	copy(out, d.history)
	return out
}

// EpochCtx runs one coupling epoch and returns its stats. The phases between
// the workload barrier and the history append are sharded over the engine's
// worker count: trust updates and the coupling feedback write disjoint
// per-user state, so the fan-out preserves the pipeline's determinism
// contract (identical results for every shard count). Cancellation is
// checked between workload rounds, not just at the epoch boundary: a served
// session's shutdown must not stall behind a large in-flight epoch. An
// interrupted epoch returns the context's error without recording history;
// the rounds already run stay merged (the engine is a shorter, not corrupt,
// run).
//
// The epoch tail — trust updates, §3 coupling, and the EpochStats
// aggregates — costs O(dirty + n/64 + flushed nodes), not Θ(n): only users
// whose facet triple changed (or who have not yet reached their bitwise
// trust fixed point) are visited, the dirty sets are bitmaps read in order
// without a sort, and the means are kept in fixed-shape summation trees
// whose touched leaves are staged and flushed once, each node above them
// re-evaluated once. The reputation reading adds O(served) when the
// mechanism ties every score and O(served·log served) otherwise. Every
// skip is provably a no-op (see TrustModel.UpdateScattered), so the results
// are bit-for-bit identical to the dense reference path at any shard count,
// topology, or resume point.
func (d *Dynamics) EpochCtx(ctx context.Context) (EpochStats, error) {
	// 1. The engine already holds this epoch's coupling variables: the last
	// coupling pass wrote them. Rounds run before the first epoch run on
	// behaviour-class honesty; a coupled run replaces it from epoch 0 on,
	// starting all-truthful. (Uncoupled, the full pass at the end of epoch 0
	// installs the override.)
	if len(d.history) == 0 && d.cfg.Coupled {
		for u := 0; u < d.cfg.Workload.NumPeers; u++ {
			d.eng.SetHonesty(u, 1)
		}
	}

	// 2. Run the workload. The epoch's bad-service delta comes from the
	// engine's cumulative counters, not a log rescan.
	before := d.eng.CumulativeStats()
	itersBefore := d.eng.ComputeIterations()
	if err := d.eng.RunContext(ctx, d.cfg.EpochRounds); err != nil {
		return EpochStats{}, err
	}
	st, err := d.closeEpoch(before, itersBefore)
	if err != nil {
		return EpochStats{}, err
	}
	d.history = append(d.history, st)
	return st, nil
}

// closeEpoch is the epoch tail, steps 3 to 7 of EpochCtx: it measures the
// facets, updates trust, closes the §3 loops and reads the aggregates into
// the epoch's stats, given the engine's cumulative counters from before the
// epoch's rounds. It leaves the history to its caller, and on an error
// leaves prevRepFacet at the last history entry's.
func (d *Dynamics) closeEpoch(before workload.RoundStats, itersBefore int64) (EpochStats, error) {
	n := d.cfg.Workload.NumPeers
	shards := d.eng.Shards()
	after := d.eng.CumulativeStats()
	bad := after.BadService - before.BadService
	interactions := after.Interactions - before.Interactions

	// 3. End the measurement period with the mechanism barrier, then read
	// the shared reputation facet through the one facet reader (the same
	// read Assess performs) into reusable buffers.
	d.eng.BarrierCompute()
	rep := d.meter.measure(d.eng)
	repFacet := rep.facet

	// 4. Assemble the facet dirty set: users whose satisfaction EMA was
	// touched, users whose privacy exposure changed, and — when the
	// global reputation facet or the exposure scale moved — everyone.
	// The set is assembled identically on the dense reference path, so the
	// DirtyFacets counter is schedule-independent.
	prevRepFacet := d.prevRepFacet
	repChanged := math.IsNaN(prevRepFacet) || repFacet != prevRepFacet
	d.prevRepFacet = repFacet
	scale := d.eng.LedgerScale()
	scaleChanged := scale != d.prevLedgerScale
	d.prevLedgerScale = scale
	d.facetDirty.Reset()
	for _, u := range d.eng.SatisfactionTouched() {
		d.facetDirty.Mark(u)
		d.satTree.Mark(u)
	}
	d.eng.ResetSatisfactionTouched()
	// The engine owns its privacy touched set and the refresh below resets
	// it, so copy it first.
	d.privDirtyBuf = append(d.privDirtyBuf[:0], d.eng.PrivacyTouched()...)
	for _, u := range d.privDirtyBuf {
		d.facetDirty.Mark(u)
	}
	allDirty := repChanged || scaleChanged || d.denseRef
	dirtyFacets := d.facetDirty.Len()
	if repChanged || scaleChanged {
		dirtyFacets = n
	}

	// Refresh the privacy facet cache sequentially, then mark the touched
	// leaves in the aggregate trees (the satisfaction leaves are marked
	// above; step 7 flushes every tree once), or rebuild the privacy tree
	// when the scale repriced every leaf. A skipped leaf's sources are
	// untouched, so its recomputed value would be bit-identical.
	d.eng.RefreshPrivacyFacets()
	if scaleChanged {
		d.privTree.Fill()
	} else {
		for _, u := range d.privDirtyBuf {
			d.privTree.Mark(u)
		}
	}

	// 5. Update trust for the candidates — facet-dirty users plus everyone
	// not yet at a bitwise fixed point — or for everyone on a dense epoch.
	// Facets are read on demand; no per-user []Facets is materialized.
	if !allDirty {
		d.candidates = d.tm.AppendCandidates(d.candidates[:0], d.facetDirty.Sorted())
	}
	if err := d.tm.UpdateScattered(d.candidates, allDirty, d.facetOf, shards); err != nil {
		// No history entry records this epoch's facet.
		d.prevRepFacet = prevRepFacet
		return EpochStats{}, err
	}

	// 6. Close the §3 loops for the next epoch, writing each user's
	// disclosure and honesty straight into the engine (and mark them in the
	// aggregate trees). Only visited users'
	// trust can have moved, so the sparse pass revisits exactly the update
	// candidates; interventions that change the feedback functions
	// themselves (couplingAll) force a full pass. A full pass writes every
	// cell, so it leaves the honesty override installed even when no value
	// moves.
	base, h0 := d.baseDisclosure, d.cfg.BaseHonesty
	write := func(u int, delta, h float64) {
		d.eng.SetDisclosure(u, delta)
		d.discTree.Mark(u)
		d.eng.SetHonesty(u, h)
		d.honTree.Mark(u)
	}
	fullPass := d.couplingAll || allDirty
	d.couplingAll = false
	if d.cfg.Coupled {
		couple := func(u int) {
			t := d.tm.Trust(u)
			// δ_u = δ_base · 2T (clamped): neutral trust keeps the base,
			// distrust withholds, strong trust discloses up to fully.
			delta := base * 2 * t
			if delta > 1 {
				delta = 1
			}
			if delta < 0 {
				delta = 0
			}
			write(u, delta, h0+float64((1-h0)*t))
		}
		if fullPass {
			for u := 0; u < n; u++ {
				couple(u)
			}
		} else {
			for _, u := range d.candidates {
				couple(u)
			}
		}
	} else if fullPass {
		// Uncoupled, the variables are trust-independent constants; once
		// written they cannot drift, so only intervention epochs pass here.
		honConst := h0 + float64((1-h0)*0.5)
		for u := 0; u < n; u++ {
			write(u, base, honConst)
		}
	}

	// 7. The epoch's aggregates come from the trees' roots: one flush each
	// re-evaluates every node above a marked leaf once, and the roots are
	// then bitwise equal to a dense recompute over the same fixed shape.
	for _, t := range [...]*metrics.SumTree{d.satTree, d.privTree, d.discTree, d.honTree} {
		t.Flush()
	}
	st := EpochStats{
		Epoch:        len(d.history),
		Trust:        d.tm.GlobalTrust(),
		Satisfaction: d.satTree.Mean(),
		Reputation:   repFacet,
		Privacy:      d.privTree.Mean(),
		Disclosure:   d.discTree.Mean(),
		Honesty:      d.honTree.Mean(),
		Tau:          rep.tau,
		Community:    rep.community,
		SettledUsers: d.tm.SettledCount(),
		DirtyFacets:  dirtyFacets,
	}
	st.MechIterations = int(d.eng.ComputeIterations() - itersBefore)
	if conv, ok := d.eng.Convergence(); ok {
		st.MechResidual = conv.Residual
	}
	if interactions > 0 {
		st.BadRate = float64(bad) / float64(interactions)
	}
	return st, nil
}

// currentFacets returns user u's facet triple as the epoch tail reads it:
// her satisfaction and privacy now, and the shared reputation facet that
// step 4 of the tail has just recorded in prevRepFacet.
func (d *Dynamics) currentFacets(u int) Facets {
	return Facets{
		Satisfaction: d.eng.UserSatisfaction(u),
		Reputation:   d.prevRepFacet,
		Privacy:      d.eng.PrivacyFacetOf(u),
	}
}

// MapConfig configures the abstract trust/satisfaction iterated map used to
// verify §3's first claim ("the more a user trusts towards the system, the
// more she is satisfied, and the more she is satisfied, the more she
// trusts") without simulation noise.
type MapConfig struct {
	// Reputation and Privacy are held fixed.
	Reputation, Privacy float64
	// Weights combine the facets (default DefaultWeights).
	Weights Weights
	// Inertia smooths the trust update (default 0.5).
	Inertia float64
	// SatBase and SatGain define the satisfaction response
	// s = SatBase + SatGain·T (clamped to [0,1]); the positive gain is the
	// "more trust ⇒ more satisfaction" half of the loop.
	SatBase, SatGain float64
}

func (c MapConfig) withDefaults() MapConfig {
	if c.Weights == (Weights{}) {
		c.Weights = DefaultWeights()
	}
	if c.Inertia == 0 {
		c.Inertia = 0.5
	}
	if c.SatGain == 0 {
		c.SatGain = 0.8
	}
	if c.SatBase == 0 {
		c.SatBase = 0.1
	}
	return c
}

// RunIteratedMap iterates the two-way trust/satisfaction coupling from t0
// for `steps` steps and returns the trust trajectory (first element t0).
func RunIteratedMap(t0 float64, steps int, cfg MapConfig) ([]float64, error) {
	cfg = cfg.withDefaults()
	if !(0 <= t0 && t0 <= 1) {
		return nil, fmt.Errorf("core: initial trust %v out of [0,1]", t0)
	}
	traj := make([]float64, 0, steps+1)
	traj = append(traj, t0)
	t := t0
	for k := 0; k < steps; k++ {
		s := cfg.SatBase + float64(cfg.SatGain*t)
		if s > 1 {
			s = 1
		}
		if s < 0 {
			s = 0
		}
		phi, err := Combine(Facets{Satisfaction: s, Reputation: cfg.Reputation, Privacy: cfg.Privacy}, cfg.Weights)
		if err != nil {
			return nil, err
		}
		t = float64(cfg.Inertia*t) + float64((1-cfg.Inertia)*phi)
		traj = append(traj, t)
	}
	return traj, nil
}
