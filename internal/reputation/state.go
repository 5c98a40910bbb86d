package reputation

import (
	"fmt"

	"repro/internal/sim"
)

// LocalTrustEntry is one (rater, ratee) aggregate of a serialized
// local-trust matrix.
type LocalTrustEntry struct {
	I, J       int32
	Sat, Unsat int32
}

// LocalTrustState is the serializable state of a LocalTrust matrix: the
// sparse entry list (sorted by rater, then ratee, so equal matrices encode
// to equal blobs) plus the dirty-row set, so a restored mechanism knows
// which rows still await rematerialization.
type LocalTrustState struct {
	N       int
	Entries []LocalTrustEntry
	Dirty   []int32
}

// State captures the matrix. The store yields its cells in (rater, ratee)
// order, so the entries come out canonical without a sort.
func (l *LocalTrust) State() LocalTrustState {
	st := LocalTrustState{N: l.n, Dirty: l.rows.DirtyState()}
	for i, c := range l.rows.All() {
		st.Entries = append(st.Entries, LocalTrustEntry{I: int32(i), J: c.Col, Sat: c.Val.sat, Unsat: c.Val.unsat})
	}
	return st
}

// SetState restores a captured matrix of the same dimension, replacing the
// current contents and dirty set. Entries may come in any order, but each
// must be an in-range, non-self (rater, ratee) pair that appears once, with
// non-negative counts — the only matrices reports can build (see
// RowsFromState). A rejected state leaves the matrix unchanged.
func (l *LocalTrust) SetState(st LocalTrustState) error {
	if st.N != l.n {
		return fmt.Errorf("reputation: local-trust state for %d peers, want %d", st.N, l.n)
	}
	entries := make([]Entry[satCounts], len(st.Entries))
	for k, e := range st.Entries {
		if e.Sat < 0 || e.Unsat < 0 {
			return fmt.Errorf("reputation: local-trust state entry %d->%d has negative counts %d/%d", e.I, e.J, e.Sat, e.Unsat)
		}
		entries[k] = Entry[satCounts]{Row: int(e.I), Col: int(e.J), Val: satCounts{sat: e.Sat, unsat: e.Unsat}}
	}
	rows, err := RowsFromState(l.n, entries, st.Dirty)
	if err != nil {
		return fmt.Errorf("reputation: local-trust state: %w", err)
	}
	l.rows = rows
	clear(l.net)
	clear(l.seen)
	l.rated, l.positive = 0, 0
	for _, c := range l.rows.All() {
		l.tally(c.Col, c.Val.sat, c.Val.unsat)
	}
	return nil
}

// GathererState is the serializable state of a Gatherer, including the
// position of its private disclosure-draw stream.
type GathererState struct {
	RNG        sim.RNGState
	Disclosure []float64
	Gathered   int64
	Withheld   int64
}

// State captures the gatherer.
func (g *Gatherer) State() GathererState {
	return GathererState{
		RNG:        g.rng.State(),
		Disclosure: append([]float64(nil), g.disclosure...),
		Gathered:   g.Gathered,
		Withheld:   g.Withheld,
	}
}

// RestoreGatherer rebuilds a gatherer from a captured state. A non-finite
// buffered Gaussian in the stream is an error.
func RestoreGatherer(st GathererState) (*Gatherer, error) {
	if err := st.RNG.Check(); err != nil {
		return nil, fmt.Errorf("reputation: gatherer state: %w", err)
	}
	rng := sim.NewRNG(0)
	rng.SetState(st.RNG)
	g := NewGatherer(rng, st.Disclosure)
	g.Gathered = st.Gathered
	g.Withheld = st.Withheld
	return g, nil
}

// MechanismState implements Mechanism: the baseline has no mutable state.
func (*None) MechanismState() ([]byte, error) { return nil, nil }

// RestoreMechanismState implements Mechanism.
func (*None) RestoreMechanismState([]byte) error { return nil }
