package eigentrust

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/reputation"
)

// mechanismState is the gob-serialized mutable state of the mechanism. The
// pre-trust vector is configuration and is rebuilt by New. The local-trust
// matrix travels in its sparse form, dirty set included; the CSR itself is
// derived state and is rematerialized from the matrix on the first Compute
// after a restore — row materialization is pure, so restore-then-run is
// bit-for-bit identical to an uninterrupted run.
type mechanismState struct {
	LT     reputation.LocalTrustState
	Scores []float64
	Dirty  bool
	// Convergence diagnostics of the most recent iterative Compute, so
	// restored runs report the same diagnostics an uninterrupted run would.
	Conv    reputation.Convergence
	HasConv bool
}

// MechanismState implements reputation.Mechanism.
func (m *Mechanism) MechanismState() ([]byte, error) {
	sv := m.Solver.State()
	st := mechanismState{
		LT:      m.lt.State(),
		Scores:  sv.Scores,
		Dirty:   sv.Dirty,
		Conv:    sv.Conv,
		HasConv: sv.HasConv,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("eigentrust: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMechanismState implements reputation.Mechanism.
func (m *Mechanism) RestoreMechanismState(data []byte) error {
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("eigentrust: decode state: %w", err)
	}
	// Build and check the matrix before the solver is written, so a rejected
	// state leaves the mechanism as it was. The solver reads the matrix
	// through m.lt, so the checked one is installed in place.
	lt := reputation.NewLocalTrust(m.cfg.N)
	if err := lt.SetState(st.LT); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	sv := reputation.SolverState{Scores: st.Scores, Dirty: st.Dirty, Conv: st.Conv, HasConv: st.HasConv}
	if err := m.Solver.SetState(sv); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	*m.lt = *lt
	return nil
}
