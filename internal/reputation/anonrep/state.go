package anonrep

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/sim"
)

// accountState mirrors the unexported bank account for serialization.
type accountState struct {
	Base    float64
	HasBase bool
	Sum     float64
	Count   int
}

// transferState mirrors the adversary's view of one pseudonym transfer.
type transferState struct {
	Peer    int
	OldObs  float64
	Carried float64
}

// mechanismState is the gob-serialized mutable state of the mechanism.
type mechanismState struct {
	RNG          sim.RNGState
	Nyms         []crypto.ChainState
	Accts        []accountState // by peer: the account of its current pseudonym
	Epoch        int
	LastTransfer []transferState
	Scores       []float64
	Dirty        bool
}

// MechanismState implements reputation.Mechanism.
func (m *Mechanism) MechanismState() ([]byte, error) {
	st := mechanismState{
		RNG:    m.rng.State(),
		Nyms:   make([]crypto.ChainState, len(m.nyms)),
		Accts:  make([]accountState, len(m.accts)),
		Epoch:  m.epoch,
		Scores: append([]float64(nil), m.scores...),
		Dirty:  m.dirty,
	}
	for i, n := range m.nyms {
		st.Nyms[i] = n.State()
	}
	for p, a := range m.accts {
		st.Accts[p] = accountState{Base: a.base, HasBase: a.hasBase, Sum: a.sum, Count: a.count}
	}
	for _, t := range m.lastTransfer {
		st.LastTransfer = append(st.LastTransfer, transferState{Peer: t.peer, OldObs: t.oldObs, Carried: t.carried})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("anonrep: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMechanismState implements reputation.Mechanism. It is atomic: the
// blob is decoded and every derived structure built and checked in locals
// before the first write to the mechanism, so a rejected blob leaves it as
// it was. Every value must be reachable: ratings are clamped to [0,1], so
// scores, carried bases and transfer values lie in [0,1] and an account's
// sum in [0, count]; counts and epochs are not negative; and the noise
// stream's buffered Gaussian is finite.
func (m *Mechanism) RestoreMechanismState(data []byte) error {
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("anonrep: decode state: %w", err)
	}
	if len(st.Scores) != m.cfg.N || len(st.Nyms) != m.cfg.N {
		return fmt.Errorf("anonrep: state for %d peers, want %d", len(st.Scores), m.cfg.N)
	}
	if len(st.Accts) != m.cfg.N {
		return fmt.Errorf("anonrep: state has %d accounts for %d peers", len(st.Accts), m.cfg.N)
	}
	if err := st.RNG.Check(); err != nil {
		return fmt.Errorf("anonrep: %w", err)
	}
	for p, v := range st.Scores {
		if err := st.Nyms[p].Check(); err != nil {
			return fmt.Errorf("anonrep: peer %d: %w", p, err)
		}
		if !unit(v) {
			return fmt.Errorf("anonrep: state score %v of peer %d out of [0,1]", v, p)
		}
	}
	if st.Epoch < 0 {
		return fmt.Errorf("anonrep: state epoch %d is negative", st.Epoch)
	}
	for _, t := range st.LastTransfer {
		if t.Peer < 0 || t.Peer >= m.cfg.N || !unit(t.OldObs) || !unit(t.Carried) {
			return fmt.Errorf("anonrep: state transfer %+v out of range", t)
		}
	}
	accts := make([]account, m.cfg.N)
	for p, a := range st.Accts {
		if a.Count < 0 || !unit(a.Base) || !(a.Sum >= 0 && a.Sum <= float64(a.Count)) {
			return fmt.Errorf("anonrep: state account of peer %d out of range", p)
		}
		accts[p] = account{base: a.Base, hasBase: a.HasBase, sum: a.Sum, count: a.Count}
	}
	var lastTransfer []transfer
	for _, t := range st.LastTransfer {
		lastTransfer = append(lastTransfer, transfer{peer: t.Peer, oldObs: t.OldObs, carried: t.Carried})
	}
	m.rng.SetState(st.RNG)
	for i := range m.nyms {
		m.nyms[i].SetState(st.Nyms[i])
	}
	m.accts = accts
	m.epoch = st.Epoch
	m.lastTransfer = lastTransfer
	m.scores = st.Scores
	m.dirty = st.Dirty
	m.version++
	// The snapshot does not record which cached scores are stale; the next
	// Compute rebuilds the cache in full.
	m.dirtyPeers.Reset()
	m.allDirty = true
	return nil
}

// unit reports whether v lies in [0,1]; NaN does not.
func unit(v float64) bool { return v >= 0 && v <= 1 }
