package privacy

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dht"
	"repro/internal/sim"
	"repro/internal/social"
)

// ErrUnknownKey is returned when requesting a key that was never published
// or was withdrawn.
var ErrUnknownKey = errors.New("privacy: unknown key")

// ErrDenied is returned when the policy denies the request; the Decision
// carries the reason.
var ErrDenied = errors.New("privacy: access denied")

// itemMeta is the registry entry for a published item.
type itemMeta struct {
	owner       int
	sensitivity social.Sensitivity
	policy      Policy
	digest      [32]byte
	withdrawn   bool
}

// grantedCopy tracks a copy handed to a requester, for retention
// enforcement.
type grantedCopy struct {
	key     string
	expires sim.Time // zero = no limit
	deleted bool
}

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

// Notification is a NotifyOwner obligation execution record.
type Notification struct {
	Owner     int
	Key       string
	Requester int
	At        sim.Time
}

// Service is the PriServ-style privacy service (the paper's [12]): owners
// publish private data with a privacy policy; requesters must present
// operation, purpose and a sufficient trust level. Data lives on the DHT,
// sealed with an integrity MAC; every grant is ledgered; retention limits
// are enforced by simulation events. The service is its own ledger: each
// disclosure goes onto the per-event trail the OECD audit reads and into its
// owner's consent tallies and disclosed items, which the owner's privacy
// facet (§2.3) reads and which grow with the items and recipients, never
// with the number of disclosures.
type Service struct {
	ring *dht.Ring
	sim  *sim.Sim
	key  []byte // integrity MAC key

	registry map[string]*itemMeta
	accesses map[string]map[int]int // key -> requester -> count
	copies   []*grantedCopy
	notices  []Notification
	events   []Disclosure // every grant and leak, in recording order
	owners   map[int]*ownerRecord

	// Grants counts allowed requests; Denials tallies by reason.
	Grants  int64
	Denials map[DenyReason]int64
}

// ownerRecord is one owner's consent tallies and disclosed items, in
// ascending key order.
type ownerRecord struct {
	total, ok int64 // disclosures: all, consented
	items     []disclosedItem
}

// disclosedItem is one disclosed item: the maximum sensitivity weight seen
// for it and the distinct recipients it reached, in ascending order.
type disclosedItem struct {
	key        string
	weight     float64
	recipients []int
}

// NewService wires a privacy service over a DHT ring and the simulation
// clock.
func NewService(ring *dht.Ring, s *sim.Sim) (*Service, error) {
	if ring == nil || s == nil {
		return nil, fmt.Errorf("privacy: NewService requires ring and sim")
	}
	return &Service{
		ring:     ring,
		sim:      s,
		key:      []byte("priserv-integrity-key"),
		registry: make(map[string]*itemMeta),
		accesses: make(map[string]map[int]int),
		owners:   make(map[int]*ownerRecord),
		Denials:  make(map[DenyReason]int64),
	}, nil
}

func (s *Service) seal(data []byte) []byte {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(data)
	return append(mac.Sum(nil), data...)
}

func (s *Service) unseal(blob []byte) ([]byte, error) {
	if len(blob) < sha256.Size {
		return nil, fmt.Errorf("privacy: sealed blob too short")
	}
	tag, data := blob[:sha256.Size], blob[sha256.Size:]
	mac := hmac.New(sha256.New, s.key)
	mac.Write(data)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, fmt.Errorf("privacy: integrity check failed")
	}
	return data, nil
}

// Publish stores an owner's data item under key with its privacy policy.
// Re-publishing an existing live key is an error; republish after Withdraw
// is allowed.
func (s *Service) Publish(owner int, key string, data []byte, sens social.Sensitivity, pol Policy) error {
	if m, ok := s.registry[key]; ok && !m.withdrawn {
		return fmt.Errorf("privacy: key %q already published", key)
	}
	if err := s.ring.Put(key, s.seal(data)); err != nil {
		return fmt.Errorf("privacy: publish %q: %w", key, err)
	}
	s.registry[key] = &itemMeta{
		owner:       owner,
		sensitivity: sens,
		policy:      pol,
		digest:      sha256.Sum256(data),
	}
	return nil
}

// PolicyOf returns the policy of a published key (OECD openness: policies
// are not secret).
func (s *Service) PolicyOf(key string) (Policy, bool) {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return Policy{}, false
	}
	return m.policy, true
}

// OwnerOf returns the owner of a published key.
func (s *Service) OwnerOf(key string) (int, bool) {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return 0, false
	}
	return m.owner, true
}

// Request evaluates an access request against the key's policy and, if
// allowed, returns the data. Every grant is ledgered and obligations are
// executed (NotifyOwner appends a notification; retention schedules
// deletion of the granted copy).
func (s *Service) Request(requester int, key string, op Operation, purpose Purpose, trust float64, isFriend bool) ([]byte, Decision, error) {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return nil, Decision{}, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	prior := s.accesses[key][requester]
	req := Request{
		Requester:      requester,
		Owner:          m.owner,
		Operation:      op,
		Purpose:        purpose,
		RequesterTrust: trust,
		IsFriend:       isFriend,
		PriorAccesses:  prior,
	}
	dec := m.policy.Evaluate(req, s.sim.Now())
	if !dec.Allowed {
		s.Denials[dec.Reason]++
		return nil, dec, fmt.Errorf("%w: %q (%s)", ErrDenied, key, dec.Reason)
	}
	blob, err := s.ring.Get(key)
	if err != nil {
		return nil, dec, fmt.Errorf("privacy: fetch %q: %w", key, err)
	}
	data, err := s.unseal(blob)
	if err != nil {
		return nil, dec, err
	}
	s.Grants++
	if s.accesses[key] == nil {
		s.accesses[key] = make(map[int]int)
	}
	s.accesses[key][requester]++
	s.record(Disclosure{
		Owner:       m.owner,
		Item:        key,
		Sensitivity: m.sensitivity,
		Recipient:   requester,
		Purpose:     purpose,
		At:          s.sim.Now(),
		Consented:   true,
	})
	for _, ob := range dec.Obligations {
		if ob == NotifyOwner {
			s.notices = append(s.notices, Notification{
				Owner: m.owner, Key: key, Requester: requester, At: s.sim.Now(),
			})
		}
	}
	// Retention: track the granted copy and schedule its mandatory
	// deletion.
	copyRec := &grantedCopy{key: key, expires: dec.ExpiresAt}
	s.copies = append(s.copies, copyRec)
	if dec.ExpiresAt > 0 {
		s.sim.At(dec.ExpiresAt, func() { copyRec.deleted = true })
	}
	return data, dec, nil
}

// Withdraw lets an owner remove their own data (OECD individual
// participation). Only the owner may withdraw.
func (s *Service) Withdraw(owner int, key string) error {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	if m.owner != owner {
		return fmt.Errorf("privacy: %d is not the owner of %q", owner, key)
	}
	s.ring.Delete(key)
	m.withdrawn = true
	return nil
}

// Leak records an unconsented flow of key's data to a recipient (used by
// attack experiments to model a requester violating a NoForward
// obligation). The ledger keeps the system accountable for it.
func (s *Service) Leak(key string, recipient int) error {
	m, ok := s.registry[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	s.record(Disclosure{
		Owner:       m.owner,
		Item:        key,
		Sensitivity: m.sensitivity,
		Recipient:   recipient,
		Purpose:     CommercialUse,
		At:          s.sim.Now(),
		Consented:   false,
	})
	return nil
}

// record appends a disclosure to the trail and folds it into its owner's
// record.
func (s *Service) record(d Disclosure) {
	s.events = append(s.events, d)
	a := s.owners[d.Owner]
	if a == nil {
		a = &ownerRecord{}
		s.owners[d.Owner] = a
	}
	a.total++
	if d.Consented {
		a.ok++
	}
	k, found := slices.BinarySearchFunc(a.items, d.Item, func(it disclosedItem, key string) int { return strings.Compare(it.key, key) })
	if !found {
		a.items = slices.Insert(a.items, k, disclosedItem{key: d.Item})
	}
	it := &a.items[k]
	if w := SensitivityWeight(d.Sensitivity); w > it.weight {
		it.weight = w
	}
	if r, seen := slices.BinarySearch(it.recipients, d.Recipient); !seen {
		it.recipients = slices.Insert(it.recipients, r, d.Recipient)
	}
}

// Exposure returns owner's information exposure: the ItemExposure of each
// disclosed item, summed in ascending key order. A user whose
// high-sensitivity data reached many parties has high exposure.
func (s *Service) Exposure(owner int) float64 {
	total := 0.0
	if a := s.owners[owner]; a != nil {
		for _, it := range a.items {
			total += ItemExposure(it.weight, int64(len(it.recipients)))
		}
	}
	return total
}

// RespectRate returns the fraction of owner's disclosures that were
// consented (1 when there are none): the "policy respect" half of the
// privacy facet.
func (s *Service) RespectRate(owner int) float64 {
	a := s.owners[owner]
	if a == nil || a.total == 0 {
		return 1
	}
	return float64(a.ok) / float64(a.total)
}

// PrivacyFacet computes owner's privacy facet at the given exposure scale
// (see Facet) on read; nothing is cached.
func (s *Service) PrivacyFacet(owner int, scale float64) float64 {
	return Facet(s.RespectRate(owner), s.Exposure(owner), scale)
}

// Events returns every disclosure the service made, in recording order
// (shared; read-only).
func (s *Service) Events() []Disclosure { return s.events }

// EventsFor returns the disclosures of one owner's data, in recording order.
// This is the OECD "individual participation" query: an individual can see
// exactly what about them went where.
func (s *Service) EventsFor(owner int) []Disclosure {
	var out []Disclosure
	for _, e := range s.events {
		if e.Owner == owner {
			out = append(out, e)
		}
	}
	return out
}

// Violations returns the non-consented disclosures (accountability audit
// trail).
func (s *Service) Violations() []Disclosure {
	var out []Disclosure
	for _, e := range s.events {
		if !e.Consented {
			out = append(out, e)
		}
	}
	return out
}

// Notifications returns the NotifyOwner obligation executions.
func (s *Service) Notifications() []Notification { return s.notices }

// LiveCopies returns how many granted copies of key are currently allowed
// to exist (not yet past retention).
func (s *Service) LiveCopies(key string) int {
	n := 0
	for _, c := range s.copies {
		if c.key == key && !c.deleted {
			n++
		}
	}
	return n
}

// OverdueCopies returns granted copies that are past their retention time
// but not deleted — a correct system always returns zero after the
// simulation has run to the expiry times.
func (s *Service) OverdueCopies(now sim.Time) int {
	n := 0
	for _, c := range s.copies {
		if c.expires > 0 && now >= c.expires && !c.deleted {
			n++
		}
	}
	return n
}

// Keys returns all live published keys in sorted order, so every caller
// observes the registry deterministically.
func (s *Service) Keys() []string {
	out := make([]string, 0, len(s.registry))
	for k, m := range s.registry {
		if !m.withdrawn {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// VerifyIntegrity re-reads every live key from the DHT in sorted key order
// (so a run with several corruptions always reports the same one) and checks
// both the MAC seal and the publisher's digest (OECD data quality + security
// safeguards).
func (s *Service) VerifyIntegrity() error {
	for _, k := range s.Keys() {
		m := s.registry[k]
		blob, err := s.ring.Get(k)
		if err != nil {
			return fmt.Errorf("privacy: integrity: fetch %q: %w", k, err)
		}
		data, err := s.unseal(blob)
		if err != nil {
			return fmt.Errorf("privacy: integrity: %q: %w", k, err)
		}
		if sha256.Sum256(data) != m.digest {
			return fmt.Errorf("privacy: integrity: %q digest mismatch", k)
		}
	}
	return nil
}
