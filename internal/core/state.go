package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TrustModelState is the serializable mutable state of a TrustModel. Weights
// (default and per-user) are configuration, re-established when the model is
// rebuilt from the same scenario settings.
type TrustModelState struct {
	Trust   []float64
	Started []bool
	// Settled is the model's fixed-point bitmap, bit u&63 of word u>>6 for
	// user u, so a resumed run skips exactly the users the uninterrupted
	// run would skip.
	Settled []uint64
}

// State captures the model's mutable state.
func (m *TrustModel) State() TrustModelState {
	return TrustModelState{
		Trust:   append([]float64(nil), m.trust...),
		Started: append([]bool(nil), m.started...),
		Settled: append([]uint64(nil), m.settled...),
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
	copy(m.settled, st.Settled)
	m.settledCount = 0
	for _, w := range m.settled {
		m.settledCount += bits.OnesCount64(w)
	}
	m.tree.Fill()
	return nil
}

// checkState rejects a state whose shape does not match the model's
// population, whose settled bitmap marks a user beyond it, or whose trust
// is not a finite value in [0,1].
func (m *TrustModel) checkState(st TrustModelState) error {
	n := len(m.trust)
	if len(st.Trust) != n || len(st.Started) != n {
		return fmt.Errorf("core: trust-model state for %d users, want %d", len(st.Trust), n)
	}
	if len(st.Settled) != len(m.settled) {
		return fmt.Errorf("core: trust-model settled bitmap of %d words, want %d", len(st.Settled), len(m.settled))
	}
	if tail := n & 63; tail != 0 && st.Settled[n>>6]>>tail != 0 {
		return fmt.Errorf("core: trust-model settled bitmap marks users beyond %d", n)
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
	// History is every completed epoch, History[k] the k-th: the epoch
	// count is its length, and the last entry's Reputation is the facet the
	// next epoch compares against. CouplingAll records a pending full
	// coupling rewrite.
	History     []EpochStats
	CouplingAll bool
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
		History:        append([]EpochStats(nil), d.history...),
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
	for k, h := range st.History {
		if h.Epoch != k {
			return fmt.Errorf("core: snapshot history entry %d claims epoch %d", k, h.Epoch)
		}
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
	d.history = append([]EpochStats(nil), st.History...)
	d.prevRepFacet = math.NaN()
	if k := len(d.history); k > 0 {
		d.prevRepFacet = d.history[k-1].Reputation
	}
	d.couplingAll = st.CouplingAll
	d.prevLedgerScale = d.eng.LedgerScale()
	for _, t := range [...]*metrics.SumTree{d.satTree, d.privTree, d.discTree, d.honTree} {
		t.Fill()
	}
	return nil
}
