package trustme

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"

	"repro/internal/crypto"
	"repro/internal/dht"
)

// mechanismState is the gob-serialized mutable state of the mechanism: the
// THA-stored rating histories (ring contents + routing counters), the
// transaction certificates in ascending TxID order, the protocol cost
// counters, and the score cache. Ring membership itself is configuration
// (all N peers join in New) and is not serialized. Both collections are
// sorted slices, so equal states encode to equal bytes.
type mechanismState struct {
	Ring     dht.RingState
	Certs    []crypto.TransactionCert
	Messages int64
	Rejected int64
	Scores   []float64
	Dirty    bool
}

// MechanismState implements reputation.Mechanism.
func (m *Mechanism) MechanismState() ([]byte, error) {
	st := mechanismState{
		Ring:     m.ring.State(),
		Certs:    make([]crypto.TransactionCert, 0, len(m.certs)),
		Messages: m.Messages,
		Rejected: m.Rejected,
		Scores:   append([]float64(nil), m.scores...),
		Dirty:    m.dirty,
	}
	for _, tx := range slices.Sorted(maps.Keys(m.certs)) {
		st.Certs = append(st.Certs, m.certs[tx])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("trustme: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMechanismState implements reputation.Mechanism. Every check runs
// before the first write, so a rejected blob leaves the mechanism as it
// was: one score per peer, every score a number in [0,1] (each is a mean of
// clamped ratings, or the neutral 0.5), counters that are not negative, and
// ring keys and certificate TxIDs strictly ascending.
func (m *Mechanism) RestoreMechanismState(data []byte) error {
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("trustme: decode state: %w", err)
	}
	if len(st.Scores) != m.cfg.N {
		return fmt.Errorf("trustme: state for %d peers, want %d", len(st.Scores), m.cfg.N)
	}
	for p, v := range st.Scores {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("trustme: state score %v of peer %d out of [0,1]", v, p)
		}
	}
	if st.Messages < 0 || st.Rejected < 0 {
		return fmt.Errorf("trustme: state counters messages=%d rejected=%d are negative", st.Messages, st.Rejected)
	}
	if err := st.Ring.Check(); err != nil {
		return fmt.Errorf("trustme: %w", err)
	}
	for i := 1; i < len(st.Certs); i++ {
		if prev, tx := st.Certs[i-1].TxID, st.Certs[i].TxID; prev >= tx {
			return fmt.Errorf("trustme: certificate %d after %d: TxIDs not strictly ascending", tx, prev)
		}
	}

	m.ring.SetState(st.Ring)
	m.certs = make(map[uint64]crypto.TransactionCert, len(st.Certs))
	for _, cert := range st.Certs {
		m.certs[cert.TxID] = cert
	}
	m.Messages = st.Messages
	m.Rejected = st.Rejected
	m.scores = append([]float64(nil), st.Scores...)
	m.dirty = st.Dirty
	m.version++
	// The snapshot does not record which cached entries are stale, so the
	// next Compute / TrustworthyFraction must rebuild their caches in full.
	m.dirtyPeers.Reset()
	m.allDirty = true
	m.tfMean = make([]float64, m.cfg.N)
	m.tfHas = make([]bool, m.cfg.N)
	m.tfRated, m.tfPositive = 0, 0
	m.tfDirty.Reset()
	m.tfAll = true
	return nil
}
