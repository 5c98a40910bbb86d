// Package core implements the paper's primary contribution: the correlated
// three-facet analysis of trust towards the system. A user's trust is a
// joint function of her satisfaction (§2.1), the power of the reputation
// mechanism (§2.2) and the respect of her privacy (§2.3); the facets are
// coupled by the feedback loops of §3; and §4's "generic metric" guides a
// designer to the settings that maximize trust under application
// constraints (the tradeoff explorer).
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Facets holds one user's three facet values, each in [0,1].
type Facets struct {
	// Satisfaction is the long-run satisfaction of §2.1.
	Satisfaction float64 `json:"satisfaction"`
	// Reputation is the perceived power of the reputation mechanism
	// ("reliability, efficiency and most of all, consistency with the
	// reality", §4).
	Reputation float64 `json:"reputation"`
	// Privacy is the satisfaction in terms of privacy guarantees (§4).
	Privacy float64 `json:"privacy"`
}

// Valid reports whether all facets are within [0,1].
func (f Facets) Valid() bool {
	for _, v := range []float64{f.Satisfaction, f.Reputation, f.Privacy} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// Weights weighs the facets in the combined metric. Weights must be
// non-negative and not all zero.
type Weights struct {
	Satisfaction float64 `json:"satisfaction"`
	Reputation   float64 `json:"reputation"`
	Privacy      float64 `json:"privacy"`
}

// DefaultWeights balances the three facets equally.
func DefaultWeights() Weights { return Weights{1, 1, 1} }

// Validate checks the weights.
func (w Weights) Validate() error {
	if w.Satisfaction < 0 || w.Reputation < 0 || w.Privacy < 0 {
		return fmt.Errorf("core: negative facet weight %+v", w)
	}
	if w.Satisfaction+w.Reputation+w.Privacy == 0 {
		return fmt.Errorf("core: all facet weights are zero")
	}
	return nil
}

// Context is an applicative context (§4: the right settings "depend on the
// applicative context requirements"); each context weighs the facets
// differently.
type Context int

// Applicative contexts with preset weight profiles.
const (
	// Balanced weighs all facets equally.
	Balanced Context = iota + 1
	// PrivacyCritical models, e.g., a health-data social network.
	PrivacyCritical
	// PerformanceCritical models, e.g., a file-sharing community where
	// service quality dominates.
	PerformanceCritical
	// MarketplaceContext models a transaction market where the reputation
	// mechanism's power dominates.
	MarketplaceContext
)

// String returns the context name.
func (c Context) String() string {
	switch c {
	case Balanced:
		return "balanced"
	case PrivacyCritical:
		return "privacy-critical"
	case PerformanceCritical:
		return "performance-critical"
	case MarketplaceContext:
		return "marketplace"
	default:
		return fmt.Sprintf("context(%d)", int(c))
	}
}

// ContextWeights returns the preset weights for a context.
func ContextWeights(c Context) Weights {
	switch c {
	case PrivacyCritical:
		return Weights{Satisfaction: 1, Reputation: 0.5, Privacy: 3}
	case PerformanceCritical:
		return Weights{Satisfaction: 3, Reputation: 1, Privacy: 0.5}
	case MarketplaceContext:
		return Weights{Satisfaction: 1, Reputation: 3, Privacy: 1}
	default:
		return DefaultWeights()
	}
}

// Combine is the generic metric Φ of §4: the weighted geometric mean of the
// facets. The geometric form encodes the paper's key observation that the
// facets are complementary AND antagonistic: a zero on any weighted facet
// zeroes trust — deficits cannot be traded away — while balanced facets
// combine multiplicatively.
func Combine(f Facets, w Weights) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if !f.Valid() {
		return 0, fmt.Errorf("core: facets %+v out of [0,1]", f)
	}
	total := w.Satisfaction + w.Reputation + w.Privacy
	// 0^0 := 1 (a zero-weighted facet is ignored entirely).
	term := func(v, wt float64) float64 {
		if wt == 0 {
			return 0
		}
		if v == 0 {
			return math.Inf(-1)
		}
		return wt * math.Log(v)
	}
	logSum := term(f.Satisfaction, w.Satisfaction) +
		term(f.Reputation, w.Reputation) +
		term(f.Privacy, w.Privacy)
	if math.IsInf(logSum, -1) {
		return 0, nil
	}
	return math.Exp(logSum / total), nil
}

// CombineArithmetic is the ablation variant of the metric: a weighted
// arithmetic mean, which allows one facet to compensate for another's
// collapse. The ablation benchmark contrasts the two.
func CombineArithmetic(f Facets, w Weights) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if !f.Valid() {
		return 0, fmt.Errorf("core: facets %+v out of [0,1]", f)
	}
	total := w.Satisfaction + w.Reputation + w.Privacy
	return (float64(w.Satisfaction*f.Satisfaction) + float64(w.Reputation*f.Reputation) + float64(w.Privacy*f.Privacy)) / total, nil
}

// TrustModel tracks per-user trust towards the system, smoothed with
// inertia: trust is a durable judgment, not an instantaneous readout.
// Users may carry individual weight profiles (§3: "each user of the system
// can have her own perception of the level of trust she can have in the
// system").
type TrustModel struct {
	weights     Weights         //trustlint:derived configuration, re-established when the model is rebuilt from the scenario
	userWeights map[int]Weights //trustlint:derived configuration, re-established when the model is rebuilt from the scenario
	inertia     float64         //trustlint:derived configuration, re-established when the model is rebuilt from the scenario
	trust       []float64
	started     []bool
	// settled[u] records that u's trust reached its bitwise fixed point under
	// inertia at her last update: inertia*t + (1-inertia)*Combine(f) == t
	// exactly. As long as u's facets do not change, re-updating her is a
	// provable no-op, so the sparse epoch tail may skip her entirely.
	settled []bool
	// settledCount / unsettled are indexes over settled, maintained by every
	// update path (and rebuilt by SetState) so the epoch tail can iterate the
	// not-yet-converged users without a Θ(n) scan.
	settledCount int              //trustlint:derived count of set bits in settled, recomputed on SetState
	unsettled    []int            //trustlint:derived ascending ids with settled[u]==false, rebuilt on SetState
	tree         *metrics.SumTree //trustlint:derived fixed-shape sum of trust, rebuilt from it on SetState
	// Reusable scratch for UpdateScattered, so settled-regime epoch
	// boundaries allocate nothing.
	errScratch     []error //trustlint:derived per-call scratch, dead between calls
	settledScratch []bool  //trustlint:derived per-call scratch, dead between calls
}

// NewTrustModel creates a model for n users. inertia in [0,1) is the weight
// of the previous trust value in each update (0 = memoryless).
func NewTrustModel(n int, w Weights, inertia float64) (*TrustModel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: trust model needs n > 0, got %d", n)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := checkInertia(inertia); err != nil {
		return nil, err
	}
	m := &TrustModel{weights: w, inertia: inertia}
	m.trust = make([]float64, n)
	m.started = make([]bool, n)
	m.settled = make([]bool, n)
	m.unsettled = make([]int, n)
	for i := range m.trust {
		m.trust[i] = 0.5 // initial neutral trust
		m.unsettled[i] = i
	}
	m.tree = metrics.NewSumTree(n)
	m.tree.FillUniform(0.5)
	return m, nil
}

func checkInertia(inertia float64) error {
	if inertia < 0 || inertia >= 1 {
		return fmt.Errorf("core: inertia %v out of [0,1)", inertia)
	}
	return nil
}

// N returns the number of users tracked.
func (m *TrustModel) N() int { return len(m.trust) }

// SetUserWeights installs an individual weight profile for one user,
// overriding the model default (a privacy-sensitive user may weigh the
// privacy facet far higher than her peers).
func (m *TrustModel) SetUserWeights(user int, w Weights) error {
	if user < 0 || user >= len(m.trust) {
		return fmt.Errorf("core: user %d out of range [0,%d)", user, len(m.trust))
	}
	if err := w.Validate(); err != nil {
		return err
	}
	if m.userWeights == nil {
		m.userWeights = make(map[int]Weights)
	}
	m.userWeights[user] = w
	// New weights change the user's fixed point: her settled proof no longer
	// holds, so she must rejoin the worklist until she converges again.
	m.unsettle(user)
	return nil
}

// unsettle drops user from the settled set, inserting her back into the
// ascending unsettled worklist.
func (m *TrustModel) unsettle(user int) {
	if !m.settled[user] {
		return
	}
	m.settled[user] = false
	m.settledCount--
	at := sort.SearchInts(m.unsettled, user)
	m.unsettled = append(m.unsettled, 0)
	copy(m.unsettled[at+1:], m.unsettled[at:])
	m.unsettled[at] = user
}

// UserWeights returns the weight profile in effect for a user: her
// individual profile when one is installed, the model default otherwise.
func (m *TrustModel) UserWeights(user int) Weights {
	return m.weightsFor(user)
}

func (m *TrustModel) weightsFor(user int) Weights {
	if w, ok := m.userWeights[user]; ok {
		return w
	}
	return m.weights
}

// fold computes user u's next trust value from the instant combination and
// reports whether the result is at its bitwise fixed point under inertia
// (re-folding the same instant would reproduce it exactly). Each product is
// rounded on its own (float64(...)), so no architecture fuses it into the
// add, and the fold and its settled test round alike.
func (m *TrustModel) fold(u int, instant float64) (t float64, settled bool) {
	if !m.started[u] {
		t = instant
	} else {
		t = float64(m.inertia*m.trust[u]) + float64((1-m.inertia)*instant)
	}
	return t, float64(m.inertia*t)+float64((1-m.inertia)*instant) == t
}

// UpdateScattered is the sparse trust-update pass behind the sub-linear
// epoch tail. It folds current facets into trust for a candidate subset:
// the ascending id list cands, or every user when all is set (cands is then
// ignored). facetOf returns a user's current facet triple and must be safe
// for concurrent calls; it is consulted only for visited users.
//
// Skipping a non-candidate is a provable no-op whenever candidates cover
// (a) every user whose facet triple changed since her last update and
// (b) every user not bitwise settled (see TrustModel.settled): a skipped
// user is then settled with unchanged facets, so Combine — a pure function —
// would reproduce her last instant value, and the settled fixed point makes
// the inertia fold return her trust unchanged, bit for bit. The dense pass
// (all=true) therefore produces an identical trust vector, tree, and
// settled state; it just visits users the sparse pass proved inert.
//
// The parallel phase writes only per-user cells (trust, started, and the
// settled scratch); the tree, the settled index, and the count are folded
// in a sequential pass, preserving the pipeline's any-shard-count
// determinism.
func (m *TrustModel) UpdateScattered(cands []int, all bool, facetOf func(int) Facets, shards int) error {
	n := len(m.trust)
	count := len(cands)
	if all {
		count = n
	}
	if count == 0 {
		return nil
	}
	if !all && (cands[0] < 0 || cands[count-1] >= n) {
		return fmt.Errorf("core: candidates %d..%d out of range [0,%d)", cands[0], cands[count-1], n)
	}
	errs := m.growErr(count)
	newSettled := m.growSettled(count)
	// Small batches run sequentially as a direct call: fanning out is slower
	// than the work, and the steady-state (settled-regime) epoch tail must
	// not allocate — the ForChunks closure below escapes to the heap.
	if shards <= 1 || count < sparseSeqCutoff {
		m.updateChunk(cands, all, facetOf, errs, newSettled, 0, count)
	} else {
		sim.ForChunks(shards, count, func(lo, hi int) {
			m.updateChunk(cands, all, facetOf, errs, newSettled, lo, hi)
		})
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Sequential fold: aggregate tree (staged, then flushed once), settled
	// flags/count, and the rebuilt unsettled worklist. Every
	// currently-unsettled user is a candidate (the caller's contract above),
	// so filtering the visited set rebuilds the whole worklist.
	m.unsettled = m.unsettled[:0]
	for k := 0; k < count; k++ {
		u := k
		if !all {
			u = cands[k]
		}
		m.tree.Stage(u, m.trust[u])
		if on := newSettled[k]; on != m.settled[u] {
			m.settled[u] = on
			if on {
				m.settledCount++
			} else {
				m.settledCount--
			}
		}
		if !m.settled[u] {
			m.unsettled = append(m.unsettled, u)
		}
	}
	m.tree.Flush()
	return nil
}

// sparseSeqCutoff is the candidate count below which UpdateScattered skips
// the parallel fan-out. Purely a scheduling decision: results are
// bit-identical either way (the chunk memo only reuses a pure function's
// result on equal inputs).
const sparseSeqCutoff = 2048

// updateChunk folds facets into trust for candidates [lo, hi). It writes
// only per-user cells (trust, started) and per-candidate scratch (errs,
// newSettled), so disjoint ranges are safe to run concurrently. Within the
// chunk the last Combine result is memoized for users without individual
// weight profiles, so runs of users with bit-identical facets (the common
// case: the reputation facet is global per epoch, and untouched users share
// default satisfaction and privacy) pay one geometric mean instead of one
// each. The memo only skips recomputing a pure function on equal inputs, so
// the trust vector is bit-for-bit identical to combining every user anew.
func (m *TrustModel) updateChunk(cands []int, all bool, facetOf func(int) Facets, errs []error, newSettled []bool, lo, hi int) {
	var lastF Facets
	var lastInstant float64
	lastOK := false
	for k := lo; k < hi; k++ {
		u := k
		if !all {
			u = cands[k]
		}
		f := facetOf(u)
		var instant float64
		if _, individual := m.userWeights[u]; !individual && lastOK && f == lastF {
			instant = lastInstant
		} else {
			var err error
			instant, err = Combine(f, m.weightsFor(u))
			if err != nil {
				errs[k] = err
				lastOK = false
				continue
			}
			if !individual {
				lastF, lastInstant, lastOK = f, instant, true
			}
		}
		t, settledNow := m.fold(u, instant)
		m.trust[u] = t
		m.started[u] = true
		newSettled[k] = settledNow
	}
}

func (m *TrustModel) growErr(count int) []error {
	if cap(m.errScratch) < count {
		m.errScratch = make([]error, count)
	}
	errs := m.errScratch[:count]
	for i := range errs {
		errs[i] = nil
	}
	return errs
}

func (m *TrustModel) growSettled(count int) []bool {
	if cap(m.settledScratch) < count {
		m.settledScratch = make([]bool, count)
	}
	return m.settledScratch[:count]
}

// SettledCount returns how many users are currently at their bitwise trust
// fixed point.
func (m *TrustModel) SettledCount() int { return m.settledCount }

// Settled reports whether one user is at her bitwise trust fixed point.
func (m *TrustModel) Settled(user int) bool {
	return user >= 0 && user < len(m.settled) && m.settled[user]
}

// UnsettledIDs returns the ascending ids of users not yet settled. The slice
// is owned by the model and valid until the next update.
func (m *TrustModel) UnsettledIDs() []int { return m.unsettled }

// Trust returns a user's current trust (0.5 before any update).
func (m *TrustModel) Trust(user int) float64 {
	if user < 0 || user >= len(m.trust) {
		return 0
	}
	return m.trust[user]
}

// Trusts returns all users' trust values.
func (m *TrustModel) Trusts() []float64 {
	out := make([]float64, len(m.trust))
	copy(out, m.trust)
	return out
}

// GlobalTrust is the system-level trust: the mean over users (§3
// distinguishes each user's perception from the system "considered globally
// as trusted or not"). It reads the fixed-shape summation tree maintained by
// every update path, so it is O(1) and bit-stable across sparse and dense
// update schedules.
func (m *TrustModel) GlobalTrust() float64 {
	return m.tree.Mean()
}

// SystemTrusted reports whether the system counts as globally trusted:
// the q-quantile of user trust reaches the threshold — i.e. at least
// (1−q) of users trust the system at `threshold` or more.
func (m *TrustModel) SystemTrusted(threshold, q float64) bool {
	return metrics.Quantile(m.trust, q) >= threshold
}
