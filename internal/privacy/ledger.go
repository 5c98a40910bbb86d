package privacy

import (
	"math"
	"slices"
	"strings"

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
// the disclosed items with their maximum sensitivity weights and distinct
// recipients — which is all the facet queries read, so its size never grows
// with the number of disclosures. The per-event trail the OECD audit reads
// lives on the PriServ Service. A facet query touches only the owner's own
// aggregate, so queries fan out read-only over measurement shards.
//
// Feedback ordering contract: RecordFeedback stands for one item per shared
// report, with weight Low, the mechanism as its one recipient, and a key
// sorting before every other item key of the owner (the engine's reports
// were "feedback/<rater>/<tx>", its other items "profile/<id>"). Exposure
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

// ownerAgg is one owner's aggregate: consent tallies, the exposure of the
// shared feedback reports, the disclosed items in ascending key order, and
// the facet cache entry.
type ownerAgg struct {
	id        int
	total, ok int64   // disclosure tallies: all, consented
	feedback  float64 // running sum of feedbackTerm, one add per report
	items     []ledgerItem
	facet     float64
	facetOK   bool
	dirty     bool
}

// ledgerItem is one disclosed item: the maximum sensitivity weight seen for
// it and its distinct recipients in ascending order.
type ledgerItem struct {
	key    string
	weight float64
	rcpt   []int
}

// feedbackTerm is the exposure term of one shared feedback report: a Low
// item reaching one recipient, SensitivityWeight(Low) × log2(1+1).
var feedbackTerm = SensitivityWeight(social.Low) * math.Log2(1+1)

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{slot: make(map[int]int32)}
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

// Record folds one disclosure into its owner's aggregate.
func (l *Ledger) Record(d Disclosure) {
	i := l.aggregate(d.Owner)
	a := &l.owners[i]
	a.total++
	if d.Consented {
		a.ok++
	}
	l.n++
	k, found := slices.BinarySearchFunc(a.items, d.Item, func(it ledgerItem, key string) int {
		return strings.Compare(it.key, key)
	})
	if !found {
		a.items = slices.Insert(a.items, k, ledgerItem{key: d.Item})
	}
	it := &a.items[k]
	if w := SensitivityWeight(d.Sensitivity); w > it.weight {
		it.weight = w
	}
	if j, seen := slices.BinarySearch(it.rcpt, d.Recipient); !seen {
		it.rcpt = slices.Insert(it.rcpt, j, d.Recipient)
	}
	l.markDirty(i)
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
	for k := range a.items {
		it := &a.items[k]
		total += it.weight * math.Log2(1+float64(len(it.rcpt)))
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

// DirtyOwners returns the ascending owner ids whose ledger state changed
// since the last RefreshFacets — the privacy leg of the epoch tail's facet
// dirty set. The slice is owned by the ledger and valid until its next
// mutation; callers that need it past a refresh must copy it first.
func (l *Ledger) DirtyOwners() []int {
	l.dirtyIDs = l.dirtyIDs[:0]
	for _, i := range l.dirty {
		l.dirtyIDs = append(l.dirtyIDs, l.owners[i].id)
	}
	slices.Sort(l.dirtyIDs)
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
