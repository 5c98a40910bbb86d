package privacy

// LedgerState is the serializable state of a Ledger: the event list, plus
// the owners dirty since the last facet refresh. The per-owner aggregates
// are a derived index and are rebuilt by replaying the events through
// Record, so the snapshot has a single source of truth — but the dirty set
// cannot be derived from the events (it depends on when the last refresh
// ran), and the epoch tail's DirtyFacets accounting must be identical on a
// resumed run, so it is captured explicitly.
type LedgerState struct {
	Events []Disclosure
	// FacetDirty lists the owners marked dirty at capture time (ascending).
	FacetDirty []int
}

// State captures the ledger's recorded events.
func (l *Ledger) State() LedgerState {
	return LedgerState{
		Events:     append([]Disclosure(nil), l.events...),
		FacetDirty: append([]int(nil), l.DirtyOwners()...),
	}
}

// SetState resets the ledger to the captured events, rebuilding every
// aggregate. Restoring in place keeps existing references to the ledger
// (the workload engine's, the dynamics') valid.
func (l *Ledger) SetState(st LedgerState) {
	l.events = nil
	// Dropping the aggregates drops the facet cache with them: a cold cache
	// also forgets stale entries for owners the snapshot no longer contains.
	l.owners = nil
	l.dense = nil
	l.slot = make(map[int]int32)
	l.facetInit = false
	l.dirty = nil
	if len(st.Events) > 0 {
		l.events = make([]Disclosure, 0, len(st.Events))
	}
	for _, e := range st.Events {
		l.Record(e)
	}
	// The replay above marked every restored owner dirty; reduce the set to
	// exactly what the capture recorded, so a resumed run's dirty-facet
	// accounting matches the uninterrupted one. (The facet cache is cold,
	// so correctness does not depend on these marks — only the epoch tail's
	// bookkeeping does.)
	l.resetDirty()
	for _, owner := range st.FacetDirty {
		if owner >= 0 {
			l.markDirty(l.aggregate(owner))
		}
	}
}
