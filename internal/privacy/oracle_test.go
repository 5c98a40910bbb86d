package privacy

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/social"
)

// refLedger is the nested-map ledger the flat per-owner aggregates
// replaced, kept as the differential oracle: owner→item→recipient-set maps,
// with Exposure sorting the item keys afresh on every call, and an
// owner-keyed facet cache and dirty set.
type refLedger struct {
	events      []Disclosure
	byOwner     map[int]map[string]map[int]bool
	sensByOwner map[int]map[string]float64
	consent     map[int]consentTally
	facetVal    map[int]float64
	facetScale  float64
	facetInit   bool
	facetDirty  map[int]bool
}

type consentTally struct{ total, ok int64 }

// setLedger drives a Ledger the way the set-based ledger was driven, one
// Disclosure at a time: it keeps every recipient each owner's item reached
// and tells the ledger whether a disclosure's recipient is new.
type setLedger struct {
	*Ledger
	seen map[reach]struct{}
}

func newSetLedger() *setLedger {
	return &setLedger{Ledger: NewLedger(), seen: make(map[reach]struct{})}
}

func (l *setLedger) Record(d Disclosure) {
	item := l.Item(d.Item)
	r := reach{d.Owner, item, d.Recipient}
	_, seen := l.seen[r]
	l.seen[r] = struct{}{}
	l.Ledger.Record(d.Owner, item, d.Sensitivity, d.Consented, !seen)
}

func newRefLedger() *refLedger {
	l := &refLedger{}
	l.SetState(refState{})
	return l
}

func (l *refLedger) Record(d Disclosure) {
	l.events = append(l.events, d)
	items := l.byOwner[d.Owner]
	if items == nil {
		items = make(map[string]map[int]bool)
		l.byOwner[d.Owner] = items
	}
	recips := items[d.Item]
	if recips == nil {
		recips = make(map[int]bool)
		items[d.Item] = recips
	}
	recips[d.Recipient] = true
	sens := l.sensByOwner[d.Owner]
	if sens == nil {
		sens = make(map[string]float64)
		l.sensByOwner[d.Owner] = sens
	}
	if w := SensitivityWeight(d.Sensitivity); w > sens[d.Item] {
		sens[d.Item] = w
	}
	t := l.consent[d.Owner]
	t.total++
	if d.Consented {
		t.ok++
	}
	l.consent[d.Owner] = t
	l.markDirty(d.Owner)
}

func (l *refLedger) markDirty(owner int) {
	if owner >= 0 {
		l.facetDirty[owner] = true
	}
}

func (l *refLedger) Exposure(owner int) float64 {
	items := l.byOwner[owner]
	if len(items) == 0 {
		return 0
	}
	sens := l.sensByOwner[owner]
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, item := range keys {
		total += float64(sens[item] * math.Log2(1+float64(len(items[item]))))
	}
	return total
}

func (l *refLedger) NormalizedExposure(owner int, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	x := l.Exposure(owner)
	return x / (x + scale)
}

func (l *refLedger) RespectRate(owner int) float64 {
	t := l.consent[owner]
	if t.total == 0 {
		return 1
	}
	return float64(t.ok) / float64(t.total)
}

func (l *refLedger) PrivacyFacet(owner int, scale float64) float64 {
	if v, ok := l.facetVal[owner]; ok && l.facetInit && scale == l.facetScale && !l.facetDirty[owner] {
		return v
	}
	return l.RespectRate(owner) * (1 - l.NormalizedExposure(owner, scale))
}

func (l *refLedger) DirtyOwners() []int {
	out := []int{}
	for owner := range l.facetDirty {
		out = append(out, owner)
	}
	slices.Sort(out)
	return out
}

func (l *refLedger) RefreshFacets(scale float64) {
	if !l.facetInit || scale != l.facetScale {
		clear(l.facetVal)
		l.facetScale = scale
		l.facetInit = true
		for owner := range l.consent {
			l.cacheFacet(owner, scale)
		}
	} else {
		for owner := range l.facetDirty {
			l.cacheFacet(owner, scale)
		}
	}
	clear(l.facetDirty)
}

func (l *refLedger) cacheFacet(owner int, scale float64) {
	if owner >= 0 {
		l.facetVal[owner] = l.RespectRate(owner) * (1 - l.NormalizedExposure(owner, scale))
	}
}

// refState is the oracle's own checkpoint: its event list and dirty set.
type refState struct {
	events []Disclosure
	dirty  []int
}

func (l *refLedger) State() refState {
	return refState{events: append([]Disclosure(nil), l.events...), dirty: l.DirtyOwners()}
}

func (l *refLedger) SetState(st refState) {
	l.events = nil
	l.byOwner = make(map[int]map[string]map[int]bool)
	l.sensByOwner = make(map[int]map[string]float64)
	l.consent = make(map[int]consentTally)
	l.facetVal = make(map[int]float64)
	l.facetInit = false
	l.facetDirty = make(map[int]bool)
	for _, e := range st.events {
		l.Record(e)
	}
	clear(l.facetDirty)
	for _, owner := range st.dirty {
		l.markDirty(owner)
	}
}

// ledgerState derives the aggregate form the production ledger captures:
// owners ascending; each owner's "feedback/…" items folded, in key order,
// into the feedback sum exactly as Exposure folds them; the other items
// ascending with their recipient counts.
func (l *refLedger) ledgerState() LedgerState {
	var st LedgerState
	owners := make([]int, 0, len(l.consent))
	for o := range l.consent {
		owners = append(owners, o)
	}
	slices.Sort(owners)
	for _, o := range owners {
		t := l.consent[o]
		os := OwnerState{Owner: o, Total: t.total, Consented: t.ok}
		keys := make([]string, 0, len(l.byOwner[o]))
		for k := range l.byOwner[o] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			recips := l.byOwner[o][k]
			if strings.HasPrefix(k, "feedback/") {
				os.Feedback += float64(l.sensByOwner[o][k] * math.Log2(1+float64(len(recips))))
				continue
			}
			os.Items = append(os.Items, ItemState{Key: k, Weight: l.sensByOwner[o][k], Recipients: int64(len(recips))})
		}
		st.Owners = append(st.Owners, os)
	}
	if dirty := l.DirtyOwners(); len(dirty) > 0 {
		st.FacetDirty = dirty
	}
	return st
}

// compareLedgers checks every owner query bitwise against the oracle, for
// the given owners and at each scale.
func compareLedgers(t *testing.T, where string, l *Ledger, ref *refLedger, owners []int, scales []float64) {
	t.Helper()
	bits := math.Float64bits
	for _, o := range owners {
		if got, want := l.Exposure(o), ref.Exposure(o); bits(got) != bits(want) {
			t.Fatalf("%s: Exposure(%d) = %v, want %v", where, o, got, want)
		}
		if got, want := l.RespectRate(o), ref.RespectRate(o); bits(got) != bits(want) {
			t.Fatalf("%s: RespectRate(%d) = %v, want %v", where, o, got, want)
		}
		for _, s := range scales {
			if got, want := l.PrivacyFacet(o, s), ref.PrivacyFacet(o, s); bits(got) != bits(want) {
				t.Fatalf("%s: PrivacyFacet(%d, %v) = %v, want %v", where, o, s, got, want)
			}
		}
	}
	// DirtyOwners keeps marking order, which the oracle does not model, so
	// both sides are compared as sorted sets.
	if got, want := slices.Sorted(slices.Values(l.DirtyOwners())), ref.DirtyOwners(); !slices.Equal(got, want) {
		t.Fatalf("%s: DirtyOwners = %v, want %v", where, got, want)
	}
	if l.Len() != len(ref.events) {
		t.Fatalf("%s: Len = %d, want %d", where, l.Len(), len(ref.events))
	}
}

// TestLedgerMatchesMapOracle drives random operation sequences through the
// flat ledger and the map oracle: shared feedback reports (a per-report
// "feedback/<owner>/<step>" item in the oracle, one RecordFeedback call in
// the ledger), repeated items and duplicate recipients,
// Public (weight 0) disclosures and sensitivity upgrades, recipient -1 and
// negative owners, facet refreshes at changing scales, and SetState both
// round-tripped and rewound mid-sequence. Owners beyond the dense index's
// bound when first seen (4500, 6000) and far outliers (1<<40) exercise the
// map fallback; a stream of fresh owners grows the dense index, which may
// come to cover 4500 and 6000 and move them out of the map. Every query is
// compared bitwise after every step.
func TestLedgerMatchesMapOracle(t *testing.T) {
	const lo, hi = -3, 14 // small owner range probed, including owners never seen
	outliers := []int{4500, 6000, 1 << 40}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		l, ref := newSetLedger(), newRefLedger()
		scales := []float64{0.5, 1, 2.5, 4}
		scale := scales[0]
		var saved LedgerState
		var refSaved refState
		seenSaved := make(map[reach]struct{})
		fresh := 0 // fresh owners recorded so far: ids 16, 32, 48, ...
		probe := func() []int {
			owners := append([]int(nil), outliers...)
			owners = append(owners, 1<<40+1, 16*fresh, 16*fresh+16) // last fresh owner and the next one
			for o := lo; o < hi; o++ {
				owners = append(owners, o)
			}
			return owners
		}
		for step := 0; step < 1200; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(40); {
			case op < 33:
				owner := rng.Intn(hi-lo-2) + lo + 1 // leaves lo and hi-1 unseen
				switch k := rng.Intn(10); {
				case k < 6:
					fresh++
					owner = 16 * fresh
				case k < 7:
					owner = outliers[rng.Intn(len(outliers))]
				}
				d := Disclosure{
					Owner:       owner,
					Item:        fmt.Sprintf("item/%d", rng.Intn(12)),
					Sensitivity: social.Sensitivity(rng.Intn(5)), // 0 is out of the enum
					Recipient:   rng.Intn(8) - 1,
					Consented:   rng.Bool(0.8),
				}
				if rng.Bool(0.2) {
					ref.Record(Disclosure{
						Owner:       owner,
						Item:        fmt.Sprintf("feedback/%d/%d", owner, step),
						Sensitivity: social.Low,
						Recipient:   -1,
						Purpose:     ReputationUse,
						Consented:   true,
					})
					l.RecordFeedback(owner)
					break
				}
				l.Record(d)
				ref.Record(d)
			case op < 36:
				if rng.Bool(0.3) {
					scale = scales[rng.Intn(len(scales))]
				}
				l.RefreshFacets(scale)
				ref.RefreshFacets(scale)
			case op < 38:
				st := l.State()
				if want := ref.ledgerState(); !reflect.DeepEqual(st, want) {
					t.Fatalf("%s: State differs from oracle:\n got %+v\nwant %+v", where, st, want)
				}
				saved, refSaved, seenSaved = st, ref.State(), maps.Clone(l.seen)
				if err := l.SetState(st); err != nil {
					t.Fatalf("%s: SetState of a captured state: %v", where, err)
				}
				ref.SetState(refSaved)
			default:
				if err := l.SetState(saved); err != nil {
					t.Fatalf("%s: SetState of a captured state: %v", where, err)
				}
				l.seen = maps.Clone(seenSaved)
				ref.SetState(refSaved)
			}
			compareLedgers(t, where, l.Ledger, ref, probe(), []float64{scale, 3})
		}
		if _, ok := l.slot[1<<40]; !ok {
			t.Fatalf("seed %d: owner 1<<40 is not in the map fallback", seed)
		}
	}
}

// TestLedgerQueriesAllocFree pins the interaction-path ledger operations at
// zero allocations: Exposure is one pass over the owner's items, and
// recording a disclosure of an item the owner already has, to a new
// recipient or a seen one, or a feedback report of a seen owner only
// updates that owner's aggregate.
func TestLedgerQueriesAllocFree(t *testing.T) {
	l := newSetLedger()
	for k := 0; k < 200; k++ {
		l.Record(Disclosure{Owner: k % 7, Item: fmt.Sprintf("item/%d", k%23), Sensitivity: social.Medium, Recipient: k % 5, Consented: true})
	}
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink = l.Exposure(3) }); a != 0 {
		t.Fatalf("Exposure allocates %v per call", a)
	}
	_ = sink
	l.Record(Disclosure{Owner: 3, Item: "item/3", Sensitivity: social.Medium, Recipient: 3, Consented: true})
	item := l.Item("item/3")
	for _, fresh := range []bool{false, true} {
		if a := testing.AllocsPerRun(1000, func() { l.Ledger.Record(3, item, social.Medium, true, fresh) }); a != 0 {
			t.Fatalf("recording a disclosure of a seen item (new recipient %v) allocates %v per call", fresh, a)
		}
	}
	if a := testing.AllocsPerRun(1000, func() { l.RecordFeedback(3) }); a != 0 {
		t.Fatalf("recording a feedback report allocates %v per call", a)
	}
}

// TestLedgerDenseIndexBounds pins the owner index's two regimes: an owner
// first seen beyond the dense bound lives in the map until enough owners
// arrive for the dense index to cover it, and then moves into it; far
// outliers never size the dense index past denseLimit(owners seen).
func TestLedgerDenseIndexBounds(t *testing.T) {
	l, ref := newSetLedger(), newRefLedger()
	record := func(owner int) {
		d := Disclosure{Owner: owner, Item: fmt.Sprintf("item/%d", owner%5), Sensitivity: social.High, Recipient: owner % 3, Consented: owner%4 != 0}
		l.Record(d)
		ref.Record(d)
	}
	record(6000)
	if _, ok := l.slot[6000]; !ok || len(l.dense) > 6000 {
		t.Fatalf("owner 6000 first seen with one owner: in map %v, dense len %d", ok, len(l.dense))
	}
	for owner := 0; len(l.dense) <= 6000; owner += 7 {
		record(owner)
		if len(l.dense) > denseLimit(len(l.owners)) {
			t.Fatalf("dense index len %d exceeds denseLimit(%d owners)", len(l.dense), len(l.owners))
		}
	}
	if _, ok := l.slot[6000]; ok || l.dense[6000] == 0 {
		t.Fatal("owner 6000 was not moved into the dense index")
	}
	for k := 0; k < 2000; k++ {
		record(1<<40 + 977*k)
		record(-1 - k)
		if len(l.dense) > denseLimit(len(l.owners)) {
			t.Fatalf("dense index len %d exceeds denseLimit(%d owners)", len(l.dense), len(l.owners))
		}
	}
	owners := []int{6000, 6001, -1, -2000, -2001, 1 << 40, 1<<40 + 977, 1<<40 + 1}
	for o := 0; o < 100; o++ {
		owners = append(owners, o)
	}
	compareLedgers(t, "dense bounds", l.Ledger, ref, owners, []float64{2})
	l.RefreshFacets(2)
	ref.RefreshFacets(2)
	compareLedgers(t, "dense bounds refreshed", l.Ledger, ref, owners, []float64{2})
}
