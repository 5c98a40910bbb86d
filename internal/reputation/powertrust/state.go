package powertrust

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/reputation"
)

// feedbackEntry flattens one (rater, ratee) aggregate for serialization.
type feedbackEntry struct {
	Rater, Ratee int
	Sum          float64
	Count        int
}

// mechanismState is the gob-serialized mutable state of the mechanism. The
// CSR is derived state: it is rematerialized from the feedback graph on the
// first Compute after a restore (materialization is pure, so restore-then-
// run matches an uninterrupted run bit for bit). DirtyRows carries the
// pending incremental-rebuild set for representation fidelity.
type mechanismState struct {
	Feedback  []feedbackEntry
	Scores    []float64
	Power     []int
	Dirty     bool
	DirtyRows []int32
	// Convergence diagnostics of the most recent iterative Compute, so
	// restored runs report the same diagnostics an uninterrupted run would.
	Conv    reputation.Convergence
	HasConv bool
}

// MechanismState implements reputation.Mechanism. The store yields the
// feedback in (rater, ratee) order, so equal states encode to equal blobs
// without a sort.
func (m *Mechanism) MechanismState() ([]byte, error) {
	sv := m.Solver.State()
	st := mechanismState{
		Scores:    sv.Scores,
		Power:     append([]int(nil), m.power...),
		Dirty:     sv.Dirty,
		DirtyRows: m.feedback.DirtyState(),
		Conv:      sv.Conv,
		HasConv:   sv.HasConv,
	}
	for i, c := range m.feedback.All() {
		st.Feedback = append(st.Feedback, feedbackEntry{Rater: i, Ratee: int(c.Col), Sum: c.Val.sum, Count: int(c.Val.count)})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("powertrust: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMechanismState implements reputation.Mechanism. Every feedback
// entry must be one reports can build — an in-range, non-self pair that
// appears once, with 1..MaxInt32 ratings summing to a value in [0, Count]
// (ratings are clamped to [0,1]) — and every dirty row and power node in
// range. A rejected state is an error that leaves the mechanism unchanged.
func (m *Mechanism) RestoreMechanismState(data []byte) error {
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("powertrust: decode state: %w", err)
	}
	entries := make([]reputation.Entry[pair], len(st.Feedback))
	for k, e := range st.Feedback {
		if e.Count <= 0 || e.Count > math.MaxInt32 {
			return fmt.Errorf("powertrust: state entry %d->%d counts %d ratings", e.Rater, e.Ratee, e.Count)
		}
		if !(e.Sum >= 0 && e.Sum <= float64(e.Count)) {
			return fmt.Errorf("powertrust: state entry %d->%d sums %d ratings to %v", e.Rater, e.Ratee, e.Count, e.Sum)
		}
		entries[k] = reputation.Entry[pair]{Row: e.Rater, Col: e.Ratee, Val: pair{sum: e.Sum, count: int32(e.Count)}}
	}
	rows, err := reputation.RowsFromState(m.cfg.N, entries, st.DirtyRows)
	if err != nil {
		return fmt.Errorf("powertrust: state: %w", err)
	}
	for _, p := range st.Power {
		if p < 0 || p >= m.cfg.N {
			return fmt.Errorf("powertrust: state power node %d out of range [0,%d)", p, m.cfg.N)
		}
	}
	sv := reputation.SolverState{Scores: st.Scores, Dirty: st.Dirty, Conv: st.Conv, HasConv: st.HasConv}
	if err := m.Solver.SetState(sv); err != nil {
		return fmt.Errorf("powertrust: %w", err)
	}
	m.feedback.Rows = rows
	m.power = append([]int(nil), st.Power...)
	return nil
}
