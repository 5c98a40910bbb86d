package powertrust

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

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

// MechanismState implements reputation.Snapshotter.
func (m *Mechanism) MechanismState() ([]byte, error) {
	sv := m.Solver.State()
	st := mechanismState{
		Scores:  sv.Scores,
		Power:   append([]int(nil), m.power...),
		Dirty:   sv.Dirty,
		Conv:    sv.Conv,
		HasConv: sv.HasConv,
	}
	for i := range m.feedback.dirty {
		st.DirtyRows = append(st.DirtyRows, i)
	}
	sort.Slice(st.DirtyRows, func(a, b int) bool { return st.DirtyRows[a] < st.DirtyRows[b] })
	for i, row := range m.feedback.rows {
		for j, p := range row {
			st.Feedback = append(st.Feedback, feedbackEntry{Rater: i, Ratee: int(j), Sum: p.sum, Count: p.count})
		}
	}
	// Map iteration order is random; canonicalize so equal states encode to
	// equal blobs.
	sort.Slice(st.Feedback, func(a, b int) bool {
		if st.Feedback[a].Rater != st.Feedback[b].Rater {
			return st.Feedback[a].Rater < st.Feedback[b].Rater
		}
		return st.Feedback[a].Ratee < st.Feedback[b].Ratee
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("powertrust: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMechanismState implements reputation.Snapshotter.
func (m *Mechanism) RestoreMechanismState(data []byte) error {
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("powertrust: decode state: %w", err)
	}
	rows := make([]map[int32]pair, m.cfg.N)
	for _, e := range st.Feedback {
		if e.Rater < 0 || e.Rater >= m.cfg.N || e.Ratee < 0 || e.Ratee >= m.cfg.N {
			return fmt.Errorf("powertrust: state entry %d->%d out of range [0,%d)", e.Rater, e.Ratee, m.cfg.N)
		}
		if rows[e.Rater] == nil {
			rows[e.Rater] = make(map[int32]pair)
		}
		rows[e.Rater][int32(e.Ratee)] = pair{sum: e.Sum, count: e.Count}
	}
	dirtyRows := make(map[int32]struct{}, len(st.DirtyRows))
	for _, i := range st.DirtyRows {
		if i < 0 || int(i) >= m.cfg.N {
			return fmt.Errorf("powertrust: dirty row %d out of range [0,%d)", i, m.cfg.N)
		}
		dirtyRows[i] = struct{}{}
	}
	sv := reputation.SolverState{Scores: st.Scores, Dirty: st.Dirty, Conv: st.Conv, HasConv: st.HasConv}
	if err := m.Solver.SetState(sv); err != nil {
		return fmt.Errorf("powertrust: %w", err)
	}
	m.feedback = ratings{rows: rows, dirty: dirtyRows}
	m.power = append([]int(nil), st.Power...)
	return nil
}

var _ reputation.Snapshotter = (*Mechanism)(nil)
