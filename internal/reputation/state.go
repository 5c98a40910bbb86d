package reputation

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Snapshotter is implemented by mechanisms whose mutable state can be
// captured as an opaque blob and later restored into a freshly constructed
// mechanism with the same configuration. It is the seam the engine-wide
// snapshot/resume feature runs through: restore-then-run must be bit-for-bit
// identical to an uninterrupted run.
//
// Mechanisms without mutable state (the None baseline) return an empty blob.
type Snapshotter interface {
	// MechanismState serializes the mechanism's mutable state.
	MechanismState() ([]byte, error)
	// RestoreMechanismState restores a blob captured from a mechanism with
	// identical configuration.
	RestoreMechanismState(data []byte) error
}

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

// State captures the matrix. Rows are stored column-sorted and visited in
// rater order, so the entries come out canonical without a sort.
func (l *LocalTrust) State() LocalTrustState {
	st := LocalTrustState{N: l.n}
	for i, row := range l.rows {
		for _, c := range row {
			st.Entries = append(st.Entries, LocalTrustEntry{I: int32(i), J: c.col, Sat: c.sat, Unsat: c.unsat})
		}
	}
	for _, i := range l.dirty.Sorted() {
		st.Dirty = append(st.Dirty, int32(i))
	}
	return st
}

// SetState restores a captured matrix of the same dimension, replacing the
// current contents and dirty set. Entries may come in any order, but each
// must be an in-range, non-self (rater, ratee) pair that appears once, with
// non-negative counts — the only matrices reports can build. A rejected
// state leaves the matrix unchanged.
func (l *LocalTrust) SetState(st LocalTrustState) error {
	if st.N != l.n {
		return fmt.Errorf("reputation: local-trust state for %d peers, want %d", st.N, l.n)
	}
	for _, e := range st.Entries {
		if e.I < 0 || int(e.I) >= l.n || e.J < 0 || int(e.J) >= l.n {
			return fmt.Errorf("reputation: local-trust state entry %d->%d out of range [0,%d)", e.I, e.J, l.n)
		}
		if e.I == e.J {
			return fmt.Errorf("reputation: local-trust state entry %d->%d is a self-rating", e.I, e.J)
		}
		if e.Sat < 0 || e.Unsat < 0 {
			return fmt.Errorf("reputation: local-trust state entry %d->%d has negative counts %d/%d", e.I, e.J, e.Sat, e.Unsat)
		}
	}
	for _, i := range st.Dirty {
		if i < 0 || int(i) >= l.n {
			return fmt.Errorf("reputation: local-trust dirty row %d out of range [0,%d)", i, l.n)
		}
	}
	byPair := func(a, b LocalTrustEntry) int {
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.J, b.J)
	}
	entries := st.Entries
	if !slices.IsSortedFunc(entries, byPair) {
		entries = slices.Clone(entries)
		slices.SortFunc(entries, byPair)
	}
	for k := 1; k < len(entries); k++ {
		if byPair(entries[k-1], entries[k]) == 0 {
			return fmt.Errorf("reputation: local-trust state entry %d->%d appears twice", entries[k].I, entries[k].J)
		}
	}
	clear(l.rows)
	clear(l.net)
	clear(l.seen)
	l.rated, l.positive = 0, 0
	for lo := 0; lo < len(entries); {
		i := entries[lo].I
		hi := lo + 1
		for hi < len(entries) && entries[hi].I == i {
			hi++
		}
		row := make([]cell, hi-lo)
		for k, e := range entries[lo:hi] {
			row[k] = cell{col: e.J, sat: e.Sat, unsat: e.Unsat}
			l.tally(e.J, e.Sat, e.Unsat)
		}
		l.rows[i] = row
		lo = hi
	}
	l.dirty.Reset()
	for _, i := range st.Dirty {
		l.dirty.Mark(int(i))
	}
	return nil
}

// GathererState is the serializable state of a Gatherer, including the
// position of its private disclosure-draw stream.
type GathererState struct {
	RNG        sim.RNGState
	Disclosure []float64
	SharedBy   map[int]int64
	Gathered   int64
	Withheld   int64
}

// State captures the gatherer. SharedBy holds the raters that disclosed
// at least one report.
func (g *Gatherer) State() GathererState {
	st := GathererState{
		RNG:        g.rng.State(),
		Disclosure: append([]float64(nil), g.disclosure...),
		SharedBy:   make(map[int]int64),
		Gathered:   g.Gathered,
		Withheld:   g.Withheld,
	}
	for k, v := range g.sharedBy {
		if v != 0 {
			st.SharedBy[k] = v
		}
	}
	return st
}

// RestoreGatherer rebuilds a gatherer from a captured state. A SharedBy
// rater outside the disclosure vector, or a negative count, is an error.
func RestoreGatherer(st GathererState) (*Gatherer, error) {
	rng := sim.NewRNG(0)
	rng.SetState(st.RNG)
	g := NewGatherer(rng, st.Disclosure)
	g.Gathered = st.Gathered
	g.Withheld = st.Withheld
	raters := make([]int, 0, len(st.SharedBy))
	for k := range st.SharedBy {
		raters = append(raters, k)
	}
	slices.Sort(raters) // so the first offending rater is the one reported
	for _, k := range raters {
		v := st.SharedBy[k]
		if k < 0 || k >= len(g.sharedBy) {
			return nil, fmt.Errorf("reputation: gatherer state counts rater %d outside [0,%d)", k, len(g.sharedBy))
		}
		if v < 0 {
			return nil, fmt.Errorf("reputation: gatherer state counts %d reports for rater %d", v, k)
		}
		g.sharedBy[k] = v
	}
	return g, nil
}

// MechanismState implements Snapshotter: the baseline has no mutable state.
func (*None) MechanismState() ([]byte, error) { return nil, nil }

// RestoreMechanismState implements Snapshotter.
func (*None) RestoreMechanismState([]byte) error { return nil }

var _ Snapshotter = (*None)(nil)
