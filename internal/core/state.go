package core

import (
	"fmt"

	"repro/internal/privacy"
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
	return TrustModelState{
		Trust:   append([]float64(nil), m.trust...),
		Started: append([]bool(nil), m.started...),
		Settled: append([]bool(nil), m.settled...),
	}
}

// SetState restores a previously captured state of the same population size.
// The settled count, the unsettled worklist, and the summation tree are
// derived indexes over the restored vectors and are rebuilt here.
func (m *TrustModel) SetState(st TrustModelState) error {
	if len(st.Trust) != len(m.trust) || len(st.Started) != len(m.started) {
		return fmt.Errorf("core: trust-model state for %d users, want %d", len(st.Trust), len(m.trust))
	}
	if st.Settled != nil && len(st.Settled) != len(m.settled) {
		return fmt.Errorf("core: trust-model settled flags for %d users, want %d", len(st.Settled), len(m.settled))
	}
	copy(m.trust, st.Trust)
	copy(m.started, st.Started)
	if st.Settled != nil {
		copy(m.settled, st.Settled)
	} else {
		for i := range m.settled {
			m.settled[i] = false
		}
	}
	m.settledCount = 0
	m.unsettled = m.unsettled[:0]
	for u, on := range m.settled {
		if on {
			m.settledCount++
		} else {
			m.unsettled = append(m.unsettled, u)
		}
	}
	m.tree.Fill(m.trust)
	return nil
}

// DynamicsState is the serializable mutable state of the whole coupled
// system: the workload engine (with its random streams and mechanism), the
// privacy ledger, the trust model, the §3 coupling variables, and the
// recorded epoch history. Restoring it into a Dynamics built from identical
// configuration makes the continuation bit-for-bit identical to an
// uninterrupted run.
type DynamicsState struct {
	Engine         workload.EngineState
	Ledger         privacy.LedgerState
	Trust          TrustModelState
	BaseDisclosure float64
	// BaseHonesty and Coupled are captured because session interventions can
	// change them mid-run.
	BaseHonesty float64
	Coupled     bool
	Disclosure  []float64
	Honesty     []float64
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
		Ledger:         d.ledger.State(),
		Trust:          d.tm.State(),
		BaseDisclosure: d.baseDisclosure,
		BaseHonesty:    d.cfg.BaseHonesty,
		Coupled:        d.cfg.Coupled,
		Disclosure:     append([]float64(nil), d.disclosure...),
		Honesty:        append([]float64(nil), d.honesty...),
		Epoch:          d.epoch,
		History:        append([]EpochStats(nil), d.history...),
		PrevRepFacet:   d.prevRepFacet,
		CouplingAll:    d.couplingAll,
	}, nil
}

// Restore overwrites the coupled system's mutable state with a captured one.
// The Dynamics must have been built from the identical configuration (shard
// count excepted).
func (d *Dynamics) Restore(st DynamicsState) error {
	n := d.cfg.Workload.NumPeers
	if len(st.Disclosure) != n || len(st.Honesty) != n {
		return fmt.Errorf("core: snapshot coupling vectors do not match %d users", n)
	}
	if st.BaseDisclosure < 0 || st.BaseDisclosure > 1 {
		return fmt.Errorf("core: snapshot base disclosure %v out of [0,1]", st.BaseDisclosure)
	}
	if st.BaseHonesty < 0 || st.BaseHonesty > 1 {
		return fmt.Errorf("core: snapshot base honesty %v out of [0,1]", st.BaseHonesty)
	}
	if err := checkLedgerState(st.Ledger, n); err != nil {
		return err
	}
	if err := d.eng.Restore(st.Engine); err != nil {
		return fmt.Errorf("core: restore engine: %w", err)
	}
	// The ledger is restored in place: the workload engine and this Dynamics
	// keep their existing pointer to it.
	d.ledger.SetState(st.Ledger)
	if err := d.tm.SetState(st.Trust); err != nil {
		return err
	}
	d.baseDisclosure = st.BaseDisclosure
	d.cfg.BaseHonesty = st.BaseHonesty
	d.cfg.Coupled = st.Coupled
	copy(d.disclosure, st.Disclosure)
	copy(d.honesty, st.Honesty)
	d.epoch = st.Epoch
	d.history = append([]EpochStats(nil), st.History...)
	d.prevRepFacet = st.PrevRepFacet
	d.couplingAll = st.CouplingAll
	// The remaining sub-linear-tail state is derived. Pending delta lists are
	// superseded by full installs: a full in-place install writes values
	// bit-identical to what the pending deltas would have written (the
	// vectors themselves are restored above) and consumes no randomness.
	d.discAll, d.honAll = true, true
	d.discDirty, d.honDirty = d.discDirty[:0], d.honDirty[:0]
	d.prevLedgerScale = d.eng.LedgerScale()
	// Rebuild the four aggregate trees from the restored leaves. Fill is
	// bottom-up over the same fixed shape, so subsequent incremental Sets
	// continue bit-identically to an uninterrupted run.
	leaves := make([]float64, n)
	for u := 0; u < n; u++ {
		leaves[u] = d.eng.UserSatisfaction(u)
	}
	d.satTree.Fill(leaves)
	for u := 0; u < n; u++ {
		leaves[u] = d.eng.PrivacyFacetOf(u)
	}
	d.privTree.Fill(leaves)
	d.discTree.Fill(d.disclosure)
	d.honTree.Fill(d.honesty)
	return nil
}

// checkLedgerState rejects a snapshot ledger that names users outside the
// population: owners and dirty marks must be users, recipients users or -1
// (the reputation mechanism). The epoch tail indexes per-user state by these
// ids, so an out-of-range one would crash or corrupt a later epoch.
func checkLedgerState(st privacy.LedgerState, n int) error {
	for i, e := range st.Events {
		if e.Owner < 0 || e.Owner >= n {
			return fmt.Errorf("core: snapshot ledger event %d: owner %d out of range [0,%d)", i, e.Owner, n)
		}
		if e.Recipient < -1 || e.Recipient >= n {
			return fmt.Errorf("core: snapshot ledger event %d: recipient %d out of range [-1,%d)", i, e.Recipient, n)
		}
	}
	for _, u := range st.FacetDirty {
		if u < 0 || u >= n {
			return fmt.Errorf("core: snapshot ledger dirty owner %d out of range [0,%d)", u, n)
		}
	}
	return nil
}
