package privacy

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/social"
)

// refLedger is the nested-map ledger the per-owner records replaced, kept
// as the differential oracle: owner→item→recipient-set maps, with Exposure
// sorting the item keys afresh on every call.
type refLedger struct {
	events      []Disclosure
	byOwner     map[int]map[string]map[int]bool
	sensByOwner map[int]map[string]float64
	consent     map[int]consentTally
}

type consentTally struct{ total, ok int64 }

func newRefLedger() *refLedger {
	l := &refLedger{}
	l.SetState(nil)
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

func (l *refLedger) RespectRate(owner int) float64 {
	t := l.consent[owner]
	if t.total == 0 {
		return 1
	}
	return float64(t.ok) / float64(t.total)
}

func (l *refLedger) PrivacyFacet(owner int, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	x := l.Exposure(owner)
	return l.RespectRate(owner) * (1 - x/(x+scale))
}

// State returns the oracle's own checkpoint: its event list.
func (l *refLedger) State() []Disclosure { return append([]Disclosure(nil), l.events...) }

// SetState rebuilds the oracle by replaying a checkpointed event list.
func (l *refLedger) SetState(events []Disclosure) {
	l.events = nil
	l.byOwner = make(map[int]map[string]map[int]bool)
	l.sensByOwner = make(map[int]map[string]float64)
	l.consent = make(map[int]consentTally)
	for _, e := range events {
		l.Record(e)
	}
}

// compareLedgers checks every owner query of the service bitwise against the
// oracle, for the given owners and at each scale.
func compareLedgers(t *testing.T, where string, l *Service, ref *refLedger, owners []int, scales []float64) {
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
	if len(l.Events()) != len(ref.events) {
		t.Fatalf("%s: %d events, want %d", where, len(l.Events()), len(ref.events))
	}
}

// TestLedgerMatchesMapOracle records random disclosures in the service's
// per-owner records and in the map oracle: repeated items and duplicate
// recipients, Public (weight 0) disclosures and sensitivity upgrades,
// recipient -1, negative owners and far outliers (1<<40), and a stream of
// fresh owners. Every query is compared bitwise after every step.
func TestLedgerMatchesMapOracle(t *testing.T) {
	const lo, hi = -3, 14 // small owner range probed, including owners never seen
	outliers := []int{4500, 6000, 1 << 40}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		svc, _ := newTestService(t)
		ref := newRefLedger()
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
			svc.record(d)
			ref.Record(d)
			compareLedgers(t, fmt.Sprintf("seed %d step %d", seed, step), svc, ref, probe(), []float64{0.5, 1, 2.5, 4})
		}
	}
}

// TestLedgerQueriesAllocFree pins the service's ledger operations at zero
// allocations: Exposure is one pass over the owner's items, and recording a
// disclosure of an item the owner already has, to a recipient it reached,
// only appends to the trail (grown beforehand here) and updates that
// owner's record. Recording new recipients costs only the amortized growth
// of the item's recipient list.
func TestLedgerQueriesAllocFree(t *testing.T) {
	svc, _ := newTestService(t)
	for k := 0; k < 200; k++ {
		svc.record(Disclosure{Owner: k % 7, Item: fmt.Sprintf("item/%d", k%23), Sensitivity: social.Medium, Recipient: k % 5, Consented: true})
	}
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink = svc.Exposure(3) + svc.PrivacyFacet(3, 2) }); a != 0 {
		t.Fatalf("Exposure and PrivacyFacet allocate %v per call", a)
	}
	_ = sink
	svc.events = slices.Grow(svc.events, 2100)
	seen := Disclosure{Owner: 3, Item: "item/3", Sensitivity: social.Medium, Recipient: 3, Consented: true}
	if a := testing.AllocsPerRun(1000, func() { svc.record(seen) }); a != 0 {
		t.Fatalf("recording a disclosure of a seen item to a seen recipient allocates %v per call", a)
	}
	fresh := seen
	if a := testing.AllocsPerRun(1000, func() { fresh.Recipient++; svc.record(fresh) }); a != 0 {
		t.Fatalf("recording a disclosure of a seen item to a new recipient allocates %v per call", a)
	}
}
