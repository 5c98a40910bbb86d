package privacy

import (
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/social"
)

// Disclosure is one accountable information-flow event: owner's item reached
// a recipient, for a purpose, at a time, with or without the owner's policy
// consenting. (Non-consented events only arise in attack experiments —
// e.g. a leaky node forwarding data against a NoForward obligation.)
type Disclosure struct {
	Owner       int
	Item        string
	Sensitivity social.Sensitivity
	Recipient   int
	Purpose     Purpose
	At          sim.Time
	Consented   bool
}

// Ledger is the accountability record behind the privacy facet (§2.3): one
// aggregate per owner — consent tallies, a running feedback exposure, and
// the disclosed items with their maximum sensitivity weights and counts of
// distinct recipients — which is all the facet queries read, so its size
// never grows with the number of disclosures. Who the recipients are is the
// caller's record, not the ledger's: the workload engine flags each
// consumer's preference override for a provider it disclosed to, and the
// PriServ Service keeps a set of the recipients it reached. Each tells
// Record whether a disclosure reached a new recipient. The per-event trail
// the OECD audit reads lives on the PriServ Service. A facet query touches
// only the owner's own aggregate, so queries fan out read-only over
// measurement shards.
//
// Item keys are interned: Item maps a key to an ItemID once, and Record
// takes the ID, so the interaction path compares no strings. An owner's
// items stay in ascending key order.
//
// Feedback ordering contract: RecordFeedback stands for one item per shared
// report, with weight Low, the mechanism as its one recipient, and a key
// sorting before every other item key of the owner (the engine's reports
// were "feedback/<rater>/<tx>", its one other item is "profile"). Exposure
// folds items in ascending key order, so those k items came first, each
// adding exactly feedbackTerm; starting the fold from the running sum of
// the same k adds gives the same bits.
type Ledger struct {
	// owners holds one aggregate per owner seen. dense maps a compact
	// non-negative owner id to its aggregate's index plus one (0: none);
	// it never grows past denseLimit(len(owners)), so its size stays
	// O(owners seen). slot maps every other owner id — negative, or beyond
	// the dense range when first seen — so a hostile id sizes nothing.
	owners []ownerAgg
	dense  []int32       //trustlint:derived index rebuilt from the restored owner aggregates on SetState
	slot   map[int]int32 //trustlint:derived index rebuilt from the restored owner aggregates on SetState
	n      int64         //trustlint:derived disclosure count, the sum of the owners' totals, recounted on SetState

	// keys[id] is the key interned as ItemID id; ids is its inverse.
	// Interned keys outlive SetState, so an ItemID a caller holds stays
	// valid across restores.
	keys []string
	ids  map[string]ItemID //trustlint:derived inverse of keys, which State reads

	// Facet cache: each aggregate keeps its owner's PrivacyFacet at
	// facetScale, so owners whose ledger state did not change between
	// barriers keep their previous value. Record marks the owner dirty;
	// RefreshFacets (called sequentially, before any parallel fan-out)
	// recomputes only the dirty owners. Readers never mutate the cache, so
	// the fan-out stays race-free. Negative owners are never marked or
	// cached: their facet is always computed on the fly.
	facetScale float64 //trustlint:derived cache dropped by SetState and recomputed by RefreshFacets
	facetInit  bool    //trustlint:derived cache dropped by SetState and recomputed by RefreshFacets
	// dirty lists the slots of the owners marked since the last refresh, in
	// marking order; dirtyIDs is DirtyOwners' buffer.
	dirty    []int32 //trustlint:derived dirty marks are captured as LedgerState.FacetDirty owner ids
	dirtyIDs []int   //trustlint:derived scratch rebuilt by every DirtyOwners call
}

// ItemID names an item key interned by Ledger.Item.
type ItemID int32

// ownerAgg is one owner's aggregate: consent tallies, the exposure of the
// shared feedback reports, the disclosed items in ascending key order, and
// the facet cache entry. The first item is held inline and the rest in a
// slice, so an owner with one item — every owner of the workload engine —
// is recorded without a second memory access; the fields Record writes
// come first, so they share cache lines. An owner without items has
// first.recipients == 0.
type ownerAgg struct {
	id        int
	total, ok int64 // disclosure tallies: all, consented
	first     ledgerItem
	dirty     bool
	facetOK   bool
	feedback  float64 // running sum of feedbackTerm, one add per report
	facet     float64
	rest      []ledgerItem
}

// numItems returns the number of items the owner disclosed.
func (a *ownerAgg) numItems() int {
	if a.first.recipients == 0 {
		return 0
	}
	return 1 + len(a.rest)
}

// item returns the owner's k-th item in key order.
func (a *ownerAgg) item(k int) *ledgerItem {
	if k == 0 {
		return &a.first
	}
	return &a.rest[k-1]
}

// ledgerItem is one disclosed item: the maximum sensitivity weight seen for
// it and the number of distinct recipients it reached.
type ledgerItem struct {
	key        ItemID
	weight     float64
	recipients int64
}

// feedbackTerm is the exposure term of one shared feedback report: a Low
// item reaching one recipient, SensitivityWeight(Low) × log2(1+1).
var feedbackTerm = SensitivityWeight(social.Low) * math.Log2(1+1)

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{slot: make(map[int]int32), ids: make(map[string]ItemID)}
}

// Item returns key's ItemID, interning the key on first use.
func (l *Ledger) Item(key string) ItemID {
	id, ok := l.ids[key]
	if !ok {
		id = ItemID(len(l.keys))
		l.keys = append(l.keys, key)
		l.ids[key] = id
	}
	return id
}

// denseLimit bounds the dense index's length once `owners` aggregates
// exist: a constant floor plus a fixed multiple of the owners seen.
func denseLimit(owners int) int { return 4096 + 16*owners }

// lookup returns owner's slot and whether the owner has an aggregate.
func (l *Ledger) lookup(owner int) (int32, bool) {
	if owner >= 0 && owner < len(l.dense) {
		i := l.dense[owner]
		return i - 1, i != 0
	}
	i, ok := l.slot[owner]
	return i, ok
}

// find returns owner's aggregate, or nil when the owner has none.
func (l *Ledger) find(owner int) *ownerAgg {
	if i, ok := l.lookup(owner); ok {
		return &l.owners[i]
	}
	return nil
}

// aggregate returns owner's slot, creating an empty aggregate if needed.
func (l *Ledger) aggregate(owner int) int32 {
	if i, ok := l.lookup(owner); ok {
		return i
	}
	i := int32(len(l.owners))
	l.owners = append(l.owners, ownerAgg{id: owner})
	if limit := denseLimit(len(l.owners)); owner >= len(l.dense) && 2*len(l.dense) <= limit {
		l.growDense(min(max(2*len(l.dense), owner+1), limit))
	}
	if owner >= 0 && owner < len(l.dense) {
		l.dense[owner] = i + 1
	} else {
		l.slot[owner] = i
	}
	return i
}

// growDense extends the dense index to size and moves the map entries the
// new range covers into it, so an id is always in exactly one of the two
// indexes. Every growth at least doubles the index (aggregate grows only
// while doubling stays within denseLimit), so there are O(log owners)
// growths and the moves cost O(owners) each.
func (l *Ledger) growDense(size int) {
	old := len(l.dense)
	l.dense = append(l.dense, make([]int32, size-old)...)
	if len(l.slot) == 0 {
		return
	}
	for i := range l.owners {
		if id := l.owners[i].id; id >= old && id < size {
			if _, ok := l.slot[id]; ok {
				l.dense[id] = int32(i) + 1
				delete(l.slot, id)
			}
		}
	}
}

// markDirty records that slot i's facet must be recomputed.
func (l *Ledger) markDirty(i int32) {
	a := &l.owners[i]
	if a.dirty || a.id < 0 {
		return
	}
	a.dirty = true
	l.dirty = append(l.dirty, i)
}

// Record folds one disclosure of owner's item into the owner's aggregate.
// newRecipient reports whether the disclosure reached a recipient the item
// had not reached before; the first disclosure of an item always does.
func (l *Ledger) Record(owner int, item ItemID, sens social.Sensitivity, consented, newRecipient bool) {
	i := l.aggregate(owner)
	a := &l.owners[i]
	a.total++
	if consented {
		a.ok++
	}
	l.n++
	n, k := a.numItems(), 0
	for k < n && a.item(k).key != item {
		k++
	}
	if k == n {
		k = l.insertItem(a, item)
		newRecipient = true
	}
	it := a.item(k)
	if w := SensitivityWeight(sens); w > it.weight {
		it.weight = w
	}
	if newRecipient {
		it.recipients++
	}
	l.markDirty(i)
}

// insertItem inserts an empty item into a's items at its key's position,
// which it returns.
func (l *Ledger) insertItem(a *ownerAgg, item ItemID) int {
	n, k := a.numItems(), 0
	for k < n && l.keys[a.item(k).key] < l.keys[item] {
		k++
	}
	if k > 0 {
		a.rest = slices.Insert(a.rest, k-1, ledgerItem{key: item})
		return k
	}
	if n > 0 {
		a.rest = slices.Insert(a.rest, 0, a.first)
	}
	a.first = ledgerItem{key: item}
	return 0
}

// RecordFeedback accounts one feedback report the owner shared with the
// reputation mechanism: a consented disclosure that adds feedbackTerm to the
// owner's exposure (see the ordering contract on Ledger). It keeps no
// per-report item, so its cost and memory do not grow with the reports.
func (l *Ledger) RecordFeedback(owner int) {
	i := l.aggregate(owner)
	a := &l.owners[i]
	a.total++
	a.ok++
	a.feedback += feedbackTerm
	l.n++
	l.markDirty(i)
}

// Len returns the number of recorded disclosures, feedback reports
// included.
func (l *Ledger) Len() int { return int(l.n) }

// Exposure returns owner's information exposure: for each disclosed item,
// sensitivity weight × log2(1+distinct recipients), summed after the shared
// feedback reports in ascending item order. A user whose high-sensitivity
// data reached many parties has high exposure.
func (l *Ledger) Exposure(owner int) float64 { return l.find(owner).exposure() }

func (a *ownerAgg) exposure() float64 {
	if a == nil {
		return 0
	}
	total := a.feedback
	for k := range a.numItems() {
		it := a.item(k)
		total += float64(it.weight * math.Log2(1+float64(it.recipients)))
	}
	return total
}

// NormalizedExposure maps exposure into [0,1) via x/(x+scale); scale is the
// exposure at which a user counts as "half exposed" (clamped to >= 1).
func (l *Ledger) NormalizedExposure(owner int, scale float64) float64 {
	return normalize(l.Exposure(owner), scale)
}

func normalize(x, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return x / (x + scale)
}

// RespectRate returns the fraction of owner's disclosures that were
// consented (1 when there are none): the "policy respect" half of the
// privacy facet.
func (l *Ledger) RespectRate(owner int) float64 { return l.find(owner).respectRate() }

func (a *ownerAgg) respectRate() float64 {
	if a == nil || a.total == 0 {
		return 1
	}
	return float64(a.ok) / float64(a.total)
}

// privacyFacet computes the facet from the aggregate (nil: no disclosures).
func (a *ownerAgg) privacyFacet(scale float64) float64 {
	return a.respectRate() * (1 - normalize(a.exposure(), scale))
}

// PrivacyFacet computes owner's privacy satisfaction P_u as the paper's
// "satisfaction in terms of privacy guarantees": respect of the user's PPs
// times how much information did NOT have to be shared. When RefreshFacets
// has cached the owner's value at this scale, the cached value is returned;
// otherwise the facet is computed on the fly without touching the cache, so
// the call stays safe to fan out read-only over measurement shards.
func (l *Ledger) PrivacyFacet(owner int, scale float64) float64 {
	a := l.find(owner)
	if a != nil && a.facetOK && !a.dirty && l.facetInit && scale == l.facetScale {
		return a.facet
	}
	return a.privacyFacet(scale)
}

// DirtyOwners returns the owner ids whose ledger state changed since the
// last RefreshFacets, each once, in the order they were first marked — the
// privacy leg of the epoch tail's facet dirty set, which needs no order.
// The slice is owned by the ledger and valid until its next mutation;
// callers that need it past a refresh must copy it first.
func (l *Ledger) DirtyOwners() []int {
	l.dirtyIDs = l.dirtyIDs[:0]
	for _, i := range l.dirty {
		l.dirtyIDs = append(l.dirtyIDs, l.owners[i].id)
	}
	return l.dirtyIDs
}

// RefreshFacets brings the facet cache up to date at the given normalization
// scale: dirty owners (and, on first use or a scale change, every owner with
// recorded events) get their PrivacyFacet recomputed and cached. It mutates
// the cache and must run on a sequential phase, before PrivacyFacet calls fan
// out over shards.
func (l *Ledger) RefreshFacets(scale float64) {
	if !l.facetInit || scale != l.facetScale {
		l.facetScale = scale
		l.facetInit = true
		for i := range l.owners {
			l.owners[i].cacheFacet(scale)
		}
	} else {
		for _, i := range l.dirty {
			l.owners[i].cacheFacet(scale)
		}
	}
	l.resetDirty()
}

func (a *ownerAgg) cacheFacet(scale float64) {
	if a.id < 0 {
		return
	}
	a.facet = a.privacyFacet(scale)
	a.facetOK = true
}

func (l *Ledger) resetDirty() {
	for _, i := range l.dirty {
		l.owners[i].dirty = false
	}
	l.dirty = l.dirty[:0]
}
