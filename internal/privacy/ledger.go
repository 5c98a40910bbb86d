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

// Ledger is the PriServ service's accountability record behind the privacy
// facet (§2.3): per owner, consent tallies and the disclosed items in
// ascending key order, each with its maximum sensitivity weight and its
// number of distinct recipients. Who the recipients are is the Service's
// record, which tells Record whether a disclosure reached a new one; the
// per-event trail the OECD audit reads lives there too. So the ledger grows
// with the items disclosed, never with the number of disclosures, and a
// facet query reads only the owner's own record.
type Ledger struct {
	owners map[int]*ownerRecord
	n      int64
}

// ownerRecord is one owner's consent tallies and disclosed items.
type ownerRecord struct {
	total, ok int64 // disclosures: all, consented
	items     []ledgerItem
}

// ledgerItem is one disclosed item: the maximum sensitivity weight seen for
// it and the number of distinct recipients it reached.
type ledgerItem struct {
	key        string
	weight     float64
	recipients int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{owners: make(map[int]*ownerRecord)} }

// Record folds one disclosure of owner's item into the owner's record.
// newRecipient reports whether the disclosure reached a recipient the item
// had not reached before; the first disclosure of an item always does.
func (l *Ledger) Record(owner int, item string, sens social.Sensitivity, consented, newRecipient bool) {
	a := l.owners[owner]
	if a == nil {
		a = &ownerRecord{}
		l.owners[owner] = a
	}
	a.total++
	if consented {
		a.ok++
	}
	l.n++
	k, found := slices.BinarySearchFunc(a.items, item, func(it ledgerItem, key string) int { return strings.Compare(it.key, key) })
	if !found {
		a.items = slices.Insert(a.items, k, ledgerItem{key: item})
		newRecipient = true
	}
	it := &a.items[k]
	if w := SensitivityWeight(sens); w > it.weight {
		it.weight = w
	}
	if newRecipient {
		it.recipients++
	}
}

// Len returns the number of recorded disclosures.
func (l *Ledger) Len() int { return int(l.n) }

// Exposure returns owner's information exposure: the ItemExposure of each
// disclosed item, summed in ascending key order. A user whose
// high-sensitivity data reached many parties has high exposure.
func (l *Ledger) Exposure(owner int) float64 {
	total := 0.0
	if a := l.owners[owner]; a != nil {
		for _, it := range a.items {
			total += ItemExposure(it.weight, it.recipients)
		}
	}
	return total
}

// RespectRate returns the fraction of owner's disclosures that were
// consented (1 when there are none): the "policy respect" half of the
// privacy facet.
func (l *Ledger) RespectRate(owner int) float64 {
	a := l.owners[owner]
	if a == nil || a.total == 0 {
		return 1
	}
	return float64(a.ok) / float64(a.total)
}

// PrivacyFacet computes owner's privacy facet at the given exposure scale
// (see Facet). It only reads the ledger.
func (l *Ledger) PrivacyFacet(owner int, scale float64) float64 {
	return Facet(l.RespectRate(owner), l.Exposure(owner), scale)
}

// ItemExposure is the exposure one disclosed item adds: its sensitivity
// weight × log2(1 + its distinct recipients). The product is rounded on its
// own, so adding it to a running exposure never fuses into one rounding.
func ItemExposure(weight float64, recipients int64) float64 {
	return float64(weight * math.Log2(1+float64(recipients)))
}

// Facet is a user's privacy satisfaction P_u, the paper's "satisfaction in
// terms of privacy guarantees": the respect rate of the user's policies
// times how much information did NOT have to be shared, 1 − x/(x+scale) for
// exposure x. scale is the exposure at which a user counts as half exposed
// (clamped to >= 1). The PriServ ledger and the workload engine both
// compute their facets with it.
func Facet(respect, exposure, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return respect * (1 - exposure/(exposure+scale))
}
