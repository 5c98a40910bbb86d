package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TrustModelState is the serializable mutable state of a TrustModel. Weights
// (default and per-user) are configuration, re-established when the model is
// rebuilt from the same scenario settings.
type TrustModelState struct {
	Trust   []float64
	Started []bool
	// Settled carries the per-user fixed-point flags so a resumed run skips
	// exactly the users the uninterrupted run would skip. Nil (a snapshot
	// predating the settled set) restores as all-unsettled, which is always
	// valid: the first dense pass re-derives the flags.
	Settled []bool
}

// State captures the model's mutable state.
func (m *TrustModel) State() TrustModelState {
	settled := make([]bool, len(m.trust))
	for u := range settled {
		settled[u] = m.settled[u>>6]&(1<<(u&63)) != 0
	}
	return TrustModelState{
		Trust:   append([]float64(nil), m.trust...),
		Started: append([]bool(nil), m.started...),
		Settled: settled,
	}
}

// SetState restores a previously captured state of the same population size.
// The settled count and the summation tree are derived from the restored
// vectors and are rebuilt here.
func (m *TrustModel) SetState(st TrustModelState) error {
	if err := m.checkState(st); err != nil {
		return err
	}
	copy(m.trust, st.Trust)
	copy(m.started, st.Started)
	clear(m.settled)
	m.settledCount = 0
	for u, on := range st.Settled {
		if on {
			m.settled[u>>6] |= 1 << (u & 63)
			m.settledCount++
		}
	}
	m.tree.Fill()
	return nil
}

// checkState rejects a state whose shape does not match the model's
// population, or whose trust is not a finite value in [0,1].
func (m *TrustModel) checkState(st TrustModelState) error {
	if len(st.Trust) != len(m.trust) || len(st.Started) != len(m.started) {
		return fmt.Errorf("core: trust-model state for %d users, want %d", len(st.Trust), len(m.trust))
	}
	if st.Settled != nil && len(st.Settled) != len(m.trust) {
		return fmt.Errorf("core: trust-model settled flags for %d users, want %d", len(st.Settled), len(m.trust))
	}
	for u, t := range st.Trust {
		if !(t >= 0 && t <= 1) {
			return fmt.Errorf("core: trust-model state: trust %v of user %d out of [0,1]", t, u)
		}
	}
	return nil
}

// DynamicsState is the serializable mutable state of the whole coupled
// system: the workload engine (with its random streams, mechanism and
// privacy record), the trust model, the §3 coupling settings, and the
// recorded epoch history. The per-user coupling variables are engine state:
// disclosure in the gatherer, honesty in the override. Restoring it into a
// Dynamics built from identical configuration makes the continuation
// bit-for-bit identical to an uninterrupted run.
type DynamicsState struct {
	Engine         workload.EngineState
	Trust          TrustModelState
	BaseDisclosure float64
	// BaseHonesty and Coupled are captured because session interventions can
	// change them mid-run.
	BaseHonesty float64
	Coupled     bool
	Epoch       int
	History     []EpochStats
	// PrevRepFacet is the last epoch's reputation facet, used to detect
	// rep-facet movement (which dirties every user). Old snapshots decode it
	// as 0, which forces a dense epoch after restore — safe, merely not
	// sparse. CouplingAll records a pending full coupling rewrite; old
	// snapshots decode it as false, also safe, because pre-sparse code
	// maintained the coupling invariant by writing every cell every epoch.
	PrevRepFacet float64
	CouplingAll  bool
}

// State captures the coupled system's mutable state.
func (d *Dynamics) State() (DynamicsState, error) {
	est, err := d.eng.State()
	if err != nil {
		return DynamicsState{}, fmt.Errorf("core: dynamics state: %w", err)
	}
	return DynamicsState{
		Engine:         est,
		Trust:          d.tm.State(),
		BaseDisclosure: d.baseDisclosure,
		BaseHonesty:    d.cfg.BaseHonesty,
		Coupled:        d.cfg.Coupled,
		Epoch:          d.epoch,
		History:        append([]EpochStats(nil), d.history...),
		PrevRepFacet:   d.prevRepFacet,
		CouplingAll:    d.couplingAll,
	}, nil
}

// Restore overwrites the coupled system's mutable state with a captured one.
// The Dynamics must have been built from the identical configuration (shard
// count excepted). Every check here runs before anything is overwritten.
func (d *Dynamics) Restore(st DynamicsState) error {
	if !(0 <= st.BaseDisclosure && st.BaseDisclosure <= 1) {
		return fmt.Errorf("core: snapshot base disclosure %v out of [0,1]", st.BaseDisclosure)
	}
	if !(0 <= st.BaseHonesty && st.BaseHonesty <= 1) {
		return fmt.Errorf("core: snapshot base honesty %v out of [0,1]", st.BaseHonesty)
	}
	if err := d.tm.checkState(st.Trust); err != nil {
		return err
	}
	if err := d.eng.Restore(st.Engine); err != nil {
		return fmt.Errorf("core: restore engine: %w", err)
	}
	if err := d.tm.SetState(st.Trust); err != nil {
		return err
	}
	d.baseDisclosure = st.BaseDisclosure
	d.cfg.BaseHonesty = st.BaseHonesty
	d.cfg.Coupled = st.Coupled
	d.epoch = st.Epoch
	d.history = append([]EpochStats(nil), st.History...)
	d.prevRepFacet = st.PrevRepFacet
	d.couplingAll = st.CouplingAll
	d.prevLedgerScale = d.eng.LedgerScale()
	for _, t := range [...]*metrics.SumTree{d.satTree, d.privTree, d.discTree, d.honTree} {
		t.Fill()
	}
	return nil
}
