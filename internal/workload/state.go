package workload

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/satisfaction"
	"repro/internal/sim"
	"repro/internal/social"
)

// EngineState is the serializable mutable state of a workload Engine. It
// captures every random-stream position and every piece of state a round can
// touch, so that a restored engine continues bit-for-bit identically to one
// that never stopped — at any shard count, since shards are a scheduling
// decomposition only and are deliberately not part of the state.
//
// Scenario structure (population size, friendship graph, activity order,
// behaviour parameters) is NOT serialized: a snapshot is restored into an
// engine rebuilt from the identical configuration, which regenerates that
// structure deterministically from the seed.
type EngineState struct {
	// RNG is the main planning stream; Activity is the Zipf consumer-draw
	// stream (nil when the scenario has no activity skew).
	RNG      sim.RNGState
	Activity *sim.RNGState
	Gatherer reputation.GathererState
	// MechName guards against restoring into an engine with a different
	// mechanism; Mechanism is the mechanism's own opaque state blob.
	MechName  string
	Mechanism []byte
	Network   social.NetworkState
	Consumers []satisfaction.ConsumerState
	Providers []satisfaction.ProviderState
	// Classes is the current behaviour class per peer (intervention swaps
	// change it); behaviours are rebuilt from it on restore.
	Classes        []adversary.Class
	Active         []bool
	HonestOverride []float64
	Round          int
	Rounds         []RoundStats
	Cumulative     RoundStats
	GateFailures   int64
	FakeReports    int64
	ComputeIters   int64
	ServedCount    []int
	QualSum        []float64
	// SatDirty lists the users whose satisfaction state was touched since the
	// last epoch measurement consumed the dirty set (ascending). Normally
	// empty at snapshot time (epoch boundaries reset it), it is captured so a
	// mid-epoch snapshot — or future callers with other cadences — resumes
	// with identical dirty-set accounting.
	SatDirty  []int
	TrustGate float64
	// Ledger is the privacy ledger's per-owner aggregates; LedgerScale is
	// the exposure normalization scale its facet is read at.
	Ledger      privacy.LedgerState
	LedgerScale float64
}

// State captures the engine's mutable state.
func (e *Engine) State() (EngineState, error) {
	blob, err := e.mech.MechanismState()
	if err != nil {
		return EngineState{}, err
	}
	st := EngineState{
		RNG:            e.rng.State(),
		Gatherer:       e.gatherer.State(),
		MechName:       e.mech.Name(),
		Mechanism:      blob,
		Network:        e.snet.State(),
		Consumers:      make([]satisfaction.ConsumerState, len(e.consumers)),
		Providers:      make([]satisfaction.ProviderState, len(e.providers)),
		Classes:        append([]adversary.Class(nil), e.classes...),
		Active:         append([]bool(nil), e.active...),
		HonestOverride: append([]float64(nil), e.honestOverride...),
		Round:          e.round,
		Rounds:         append([]RoundStats(nil), e.rounds...),
		Cumulative:     e.cumulative,
		GateFailures:   e.GateFailures,
		FakeReports:    e.FakeReports,
		ComputeIters:   e.computeIters,
		ServedCount:    append([]int(nil), e.servedCount...),
		QualSum:        append([]float64(nil), e.qualSum...),
		SatDirty:       append([]int(nil), e.satDirty.Sorted()...),
		TrustGate:      e.cfg.TrustGate,
		Ledger:         e.ledger.State(),
		LedgerScale:    e.ledgerScale,
	}
	if e.activity != nil {
		ast := e.activity.Stream().State()
		st.Activity = &ast
	}
	for i := range e.consumers {
		st.Consumers[i] = e.consumers[i].State()
	}
	for i := range e.providers {
		st.Providers[i] = e.providers[i].State()
	}
	return st, nil
}

// Restore overwrites the engine's mutable state with a captured one. The
// engine must have been built from the identical configuration (same seed,
// peers, graph, mechanism, behaviour mix); shard count is free to differ.
// Every check runs before the first write, so a rejected state leaves the
// engine as it was.
func (e *Engine) Restore(st EngineState) error {
	n := e.cfg.NumPeers
	if st.MechName != e.mech.Name() {
		return fmt.Errorf("workload: snapshot is for mechanism %q, engine runs %q", st.MechName, e.mech.Name())
	}
	if len(st.Consumers) != n || len(st.Providers) != n || len(st.Classes) != n ||
		len(st.ServedCount) != n || len(st.QualSum) != n {
		return fmt.Errorf("workload: snapshot population does not match %d peers", n)
	}
	if len(st.Active) != 0 && len(st.Active) != n {
		return fmt.Errorf("workload: snapshot active set has %d entries, want %d", len(st.Active), n)
	}
	if err := checkUnitVector("snapshot gatherer disclosure", st.Gatherer.Disclosure, n); err != nil {
		return err
	}
	if len(st.HonestOverride) != 0 {
		if err := checkUnitVector("snapshot honesty override", st.HonestOverride, n); err != nil {
			return err
		}
	}
	if (st.Activity != nil) != (e.activity != nil) {
		return fmt.Errorf("workload: snapshot activity-skew state does not match scenario")
	}
	if err := st.RNG.Check(); err != nil {
		return fmt.Errorf("workload: snapshot stream: %w", err)
	}
	if st.Activity != nil {
		if err := st.Activity.Check(); err != nil {
			return fmt.Errorf("workload: snapshot activity stream: %w", err)
		}
	}
	if !(0 <= st.TrustGate && st.TrustGate < 1) {
		return fmt.Errorf("workload: snapshot trust gate %v out of [0,1)", st.TrustGate)
	}
	if !(0 < st.LedgerScale && st.LedgerScale <= math.MaxFloat64) {
		return fmt.Errorf("workload: snapshot exposure scale %v is not positive and finite", st.LedgerScale)
	}
	if err := checkServed(st.ServedCount, st.QualSum); err != nil {
		return err
	}
	gatherer, err := reputation.RestoreGatherer(st.Gatherer)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	for i := range e.consumers {
		if err := e.consumers[i].CheckState(st.Consumers[i]); err != nil {
			return fmt.Errorf("workload: peer %d: %w", i, err)
		}
		if err := e.providers[i].CheckState(st.Providers[i]); err != nil {
			return fmt.Errorf("workload: peer %d: %w", i, err)
		}
	}
	for id, c := range st.Classes {
		if !c.Valid() {
			return fmt.Errorf("workload: snapshot peer %d has unknown behaviour class %d", id, int(c))
		}
	}
	if err := checkLedgerState(st.Ledger, st.Consumers); err != nil {
		return err
	}
	// The mechanism blob goes last: its restore is the one fallible write,
	// and it leaves the mechanism unchanged when it fails.
	if err := e.mech.RestoreMechanismState(st.Mechanism); err != nil {
		return err
	}

	// Every check has passed, so nothing below can fail.
	e.snet.SetState(st.Network)
	for i := range e.consumers {
		_ = e.consumers[i].SetState(st.Consumers[i]) // checked above
		_ = e.providers[i].SetState(st.Providers[i]) // checked above
	}
	copy(e.classes, st.Classes)
	e.rebuildColluders()
	_ = e.ledger.SetState(st.Ledger) // checked by checkLedgerState
	e.rng.SetState(st.RNG)
	if e.activity != nil {
		e.activity.Stream().SetState(*st.Activity)
	}
	e.gatherer = gatherer
	e.active = append([]bool(nil), st.Active...)
	// The active-peer index is derived state: recount eagerly, rebuild the
	// id list lazily on next use.
	e.activeDirty = true
	e.activeCount = 0
	for _, on := range e.active {
		if on {
			e.activeCount++
		}
	}
	e.honestOverride = append([]float64(nil), st.HonestOverride...)
	e.round = st.Round
	e.rounds = append([]RoundStats(nil), st.Rounds...)
	e.cumulative = st.Cumulative
	e.GateFailures = st.GateFailures
	e.FakeReports = st.FakeReports
	e.computeIters = st.ComputeIters
	copy(e.servedCount, st.ServedCount)
	copy(e.qualSum, st.QualSum)
	// The served-provider index is derived state: rebuild lazily on next use.
	e.servedStale = true
	e.satDirty.Reset()
	for _, u := range st.SatDirty {
		e.satDirty.Mark(u)
	}
	e.cfg.TrustGate = st.TrustGate
	e.ledgerScale = st.LedgerScale
	// The restored mechanism's scores are new, whatever its version says.
	e.gateLevel = 0
	// A restore rewrites every piece of simulate-visible state, so any
	// cluster replica synced against the pre-restore engine is stale.
	e.mutationGen++
	return nil
}

// checkServed rejects ground-truth accumulators no run can reach: a
// negative served count, or a quality sum that is not a number in
// [0, count]. Each sum adds count qualities in [0, 1], and every partial
// sum stays at or below its count, an exactly representable integer, so
// rounding never carries it past the count.
func checkServed(count []int, qual []float64) error {
	for p, c := range count {
		if c < 0 {
			return fmt.Errorf("workload: snapshot served count %d of provider %d is negative", c, p)
		}
		if q := qual[p]; !(q >= 0 && q <= float64(c)) {
			return fmt.Errorf("workload: snapshot quality sum %v of provider %d is outside [0,%d]", q, p, c)
		}
	}
	return nil
}

// checkLedgerState rejects a snapshot ledger that is malformed (see
// privacy.LedgerState.Validate), names users outside the population as
// owners or dirty marks, or disagrees with the consumers' disclosure flags:
// the engine discloses one item, profileKey, and its count of recipients
// must equal the number of providers the consumer's overrides flag as
// disclosed to. The epoch tail indexes per-user state by these ids, so an
// out-of-range one would crash or corrupt a later epoch, and a count apart
// from the flags would drift further from them with every interaction.
func checkLedgerState(st privacy.LedgerState, consumers []satisfaction.ConsumerState) error {
	n := len(consumers)
	for _, o := range st.Owners {
		if o.Owner < 0 || o.Owner >= n {
			return fmt.Errorf("workload: snapshot ledger owner %d out of range [0,%d)", o.Owner, n)
		}
	}
	for _, u := range st.FacetDirty {
		if u < 0 || u >= n {
			return fmt.Errorf("workload: snapshot ledger dirty owner %d out of range [0,%d)", u, n)
		}
	}
	if err := st.Validate(); err != nil {
		return fmt.Errorf("workload: snapshot %w", err)
	}
	// Owners ascend (Validate checked), so one merge walk pairs each
	// consumer with its aggregate, if any.
	owners := st.Owners
	for u := range consumers {
		var count int64
		if len(owners) > 0 && owners[0].Owner == u {
			items := owners[0].Items
			owners = owners[1:]
			if len(items) > 1 || len(items) == 1 && items[0].Key != profileKey {
				return fmt.Errorf("workload: snapshot ledger owner %d discloses items other than %q", u, profileKey)
			}
			if len(items) == 1 {
				count = items[0].Recipients
			}
		}
		if flags := consumers[u].Disclosed(); flags != count {
			return fmt.Errorf("workload: snapshot ledger owner %d: profile reached %d recipients, but the consumer flags %d", u, count, flags)
		}
	}
	return nil
}
