package privacy

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/social"
)

// LedgerState is the serializable state of a Ledger: its per-owner
// aggregates, plus the owners dirty since the last facet refresh. The dirty
// set cannot be derived from the aggregates (it depends on when the last
// refresh ran), and the epoch tail's DirtyFacets accounting must be
// identical on a resumed run, so it is captured explicitly.
type LedgerState struct {
	// Owners lists one aggregate per owner, in ascending owner id.
	Owners []OwnerState
	// FacetDirty lists the owners marked dirty at capture time (ascending).
	FacetDirty []int
}

// OwnerState is one owner's captured aggregate.
type OwnerState struct {
	Owner int
	// Total and Consented tally the owner's disclosures, feedback reports
	// included; an owner has an aggregate only once Total > 0.
	Total, Consented int64
	// Feedback is the running exposure of the owner's shared feedback
	// reports (see the ordering contract on Ledger).
	Feedback float64
	// Items lists the disclosed items in ascending key order.
	Items []ItemState
}

// ItemState is one disclosed item: the maximum sensitivity weight seen for
// it and the number of distinct recipients it reached.
type ItemState struct {
	Key        string
	Weight     float64
	Recipients int64
}

// State captures the ledger's aggregates, ordered by owner id so that equal
// ledgers capture equal states however their owners arrived.
func (l *Ledger) State() LedgerState {
	st := LedgerState{FacetDirty: append([]int(nil), l.DirtyOwners()...)}
	slices.Sort(st.FacetDirty)
	for i := range l.owners {
		a := &l.owners[i]
		o := OwnerState{Owner: a.id, Total: a.total, Consented: a.ok, Feedback: a.feedback}
		for k := range a.numItems() {
			it := a.item(k)
			o.Items = append(o.Items, ItemState{Key: l.keys[it.key], Weight: it.weight, Recipients: it.recipients})
		}
		st.Owners = append(st.Owners, o)
	}
	slices.SortFunc(st.Owners, func(a, b OwnerState) int { return cmp.Compare(a.Owner, b.Owner) })
	return st
}

// Validate reports the first structural defect of a captured state: owners
// out of order or repeated, impossible or overflowing tallies, a feedback
// exposure that is not a sum of at most Total report terms, items out of
// order or repeated, an item weight no sensitivity class has, an item that
// reached no recipient, more new recipients than disclosures, or a dirty
// mark naming no owner. Range checks against a population belong to the
// caller, which knows it.
func (st LedgerState) Validate() error {
	if !ascending(st.Owners, func(o OwnerState) int { return o.Owner }) {
		return errors.New("privacy: ledger owners out of order or repeated")
	}
	var total int64
	for _, o := range st.Owners {
		if o.Total <= 0 || o.Consented < 0 || o.Consented > o.Total || o.Total > math.MaxInt64-total {
			return fmt.Errorf("privacy: ledger owner %d: impossible tallies, %d consented of %d", o.Owner, o.Consented, o.Total)
		}
		total += o.Total
		if !(o.Feedback >= 0 && o.Feedback <= maxFeedback(o.Total)) {
			return fmt.Errorf("privacy: ledger owner %d: feedback exposure %v exceeds %d reports", o.Owner, o.Feedback, o.Total)
		}
		if !ascending(o.Items, func(it ItemState) string { return it.Key }) {
			return fmt.Errorf("privacy: ledger owner %d: items out of order or repeated", o.Owner)
		}
		// Each new recipient came with a disclosure, so the counts sum to
		// at most the owner's total.
		left := o.Total
		for _, it := range o.Items {
			if !validWeight(it.Weight) {
				return fmt.Errorf("privacy: ledger owner %d item %q: weight %v is no sensitivity class's", o.Owner, it.Key, it.Weight)
			}
			if it.Recipients <= 0 || it.Recipients > left {
				return fmt.Errorf("privacy: ledger owner %d item %q: %d recipients, want 1 to the %d disclosures left", o.Owner, it.Key, it.Recipients, left)
			}
			left -= it.Recipients
		}
	}
	if !ascending(st.FacetDirty, func(u int) int { return u }) {
		return errors.New("privacy: ledger dirty owners out of order or repeated")
	}
	for _, u := range st.FacetDirty {
		if _, found := slices.BinarySearchFunc(st.Owners, u, func(o OwnerState, id int) int { return cmp.Compare(o.Owner, id) }); !found || u < 0 {
			return fmt.Errorf("privacy: ledger dirty owner %d has no aggregate", u)
		}
	}
	return nil
}

// ascending reports whether key strictly ascends along xs.
func ascending[E any, K cmp.Ordered](xs []E, key func(E) K) bool {
	for i := 1; i < len(xs); i++ {
		if key(xs[i]) <= key(xs[i-1]) {
			return false
		}
	}
	return true
}

// maxFeedback bounds the feedback exposure of an owner with total
// disclosures: total sequential adds of feedbackTerm, each rounding at most
// one ulp upward, stay within a relative total·2⁻⁵² of the exact product.
func maxFeedback(total int64) float64 {
	t := float64(total)
	return feedbackTerm * t * (1 + float64(t*0x1p-52))
}

// validWeight reports whether w is the weight of some sensitivity class
// (SensitivityWeight maps values outside the enum onto High's weight).
func validWeight(w float64) bool {
	for s := social.Public; s <= social.High; s++ {
		if w == SensitivityWeight(s) {
			return true
		}
	}
	return false
}

// SetState resets the ledger to the captured aggregates, after checking them
// with Validate; an invalid state is an error and leaves the ledger as it
// was. Restoring in place keeps existing references to the ledger (the
// workload engine's, the dynamics') valid.
func (l *Ledger) SetState(st LedgerState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	// Dropping the aggregates drops the facet cache with them: a cold cache
	// also forgets stale entries for owners the snapshot no longer contains.
	l.owners = nil
	l.dense = nil
	l.slot = make(map[int]int32)
	l.n = 0
	l.facetInit = false
	l.dirty = nil
	for k := range st.Owners {
		o := &st.Owners[k]
		a := &l.owners[l.aggregate(o.Owner)]
		a.total, a.ok, a.feedback = o.Total, o.Consented, o.Feedback
		for j, it := range o.Items {
			li := ledgerItem{key: l.Item(it.Key), weight: it.Weight, recipients: it.Recipients}
			if j == 0 {
				a.first = li
			} else {
				a.rest = append(a.rest, li)
			}
		}
		l.n += o.Total
	}
	// The facet cache is cold, so correctness does not depend on these
	// marks — only the epoch tail's bookkeeping does, and it must match the
	// uninterrupted run's.
	for _, owner := range st.FacetDirty {
		l.markDirty(l.aggregate(owner))
	}
	return nil
}
