package workload

import (
	"fmt"

	"repro/internal/adversary"
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
	SatDirty    []int
	TrustGate   float64
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
		LedgerScale:    e.ledgerScale,
	}
	if e.activity != nil {
		ast := e.activity.Stream().State()
		st.Activity = &ast
	}
	for i, c := range e.consumers {
		st.Consumers[i] = c.State()
	}
	for i, p := range e.providers {
		st.Providers[i] = p.State()
	}
	return st, nil
}

// Restore overwrites the engine's mutable state with a captured one. The
// engine must have been built from the identical configuration (same seed,
// peers, graph, mechanism, behaviour mix); shard count is free to differ.
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
	if len(st.HonestOverride) != 0 && len(st.HonestOverride) != n {
		return fmt.Errorf("workload: snapshot honesty override has %d entries, want %d", len(st.HonestOverride), n)
	}
	if (st.Activity != nil) != (e.activity != nil) {
		return fmt.Errorf("workload: snapshot activity-skew state does not match scenario")
	}
	if st.TrustGate < 0 || st.TrustGate >= 1 {
		return fmt.Errorf("workload: snapshot trust gate %v out of [0,1)", st.TrustGate)
	}
	gatherer, err := reputation.RestoreGatherer(st.Gatherer)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := e.mech.RestoreMechanismState(st.Mechanism); err != nil {
		return err
	}
	e.snet.SetState(st.Network)
	for i, c := range e.consumers {
		if err := c.SetState(st.Consumers[i]); err != nil {
			return err
		}
	}
	for i, p := range e.providers {
		if err := p.SetState(st.Providers[i]); err != nil {
			return err
		}
	}
	// Rebuild behaviours from the recorded classes (intervention swaps may
	// have diverged from the constructed assignment). Behaviours are pure
	// functions of (class, config, clique), so this is exact.
	e.clique = make(map[int]bool)
	for id, c := range st.Classes {
		if c == adversary.Colluder {
			e.clique[id] = true
		}
	}
	cfg := e.cfg.AdvCfg
	cfg.Clique = e.clique
	e.colluders = nil
	for id, c := range st.Classes {
		b, err := adversary.New(c, cfg)
		if err != nil {
			return fmt.Errorf("workload: rebuild behaviour for peer %d: %w", id, err)
		}
		e.classes[id] = c
		e.snet.User(id).Behavior = b
		if c == adversary.Colluder {
			e.colluders = append(e.colluders, id)
		}
	}
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
	// A restore rewrites every piece of simulate-visible state, so any
	// cluster replica synced against the pre-restore engine is stale.
	e.mutationGen++
	return nil
}
