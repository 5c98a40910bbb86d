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
	"math/bits"

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
	for _, v := range []float64{w.Satisfaction, w.Reputation, w.Privacy} {
		if !(0 <= v && v <= math.MaxFloat64) {
			return fmt.Errorf("core: facet weight %v in %+v is not a finite non-negative number", v, w)
		}
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
	// Bit u of settled records that u's trust reached its bitwise fixed point
	// under inertia at her last update: inertia*t + (1-inertia)*Combine(f) ==
	// t exactly. As long as u's facets do not change, re-updating her is a
	// provable no-op, so the sparse epoch tail may skip her entirely; the
	// clear bits are its worklist, read a word at a time (AppendCandidates).
	settled []uint64
	// settledCount is maintained by every update path (and recounted by
	// SetState), so the count needs no scan.
	settledCount int              //trustlint:derived count of set bits in settled, recomputed on SetState
	tree         *metrics.SumTree //trustlint:derived fixed-shape sum of trust, rebuilt from it on SetState
	// Reusable scratch for UpdateScattered, so settled-regime epoch
	// boundaries allocate nothing.
	settledScratch []bool //trustlint:derived per-call scratch, dead between calls
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
	m.settled = make([]uint64, (n+63)/64)
	for i := range m.trust {
		m.trust[i] = 0.5 // initial neutral trust
	}
	m.tree = metrics.NewSumTree(n, func(u int) float64 { return m.trust[u] })
	return m, nil
}

func checkInertia(inertia float64) error {
	if !(0 <= inertia && inertia < 1) {
		return fmt.Errorf("core: inertia %v out of [0,1)", inertia)
	}
	return nil
}

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

// unsettle drops user from the settled set, back onto the worklist.
func (m *TrustModel) unsettle(user int) {
	if m.isSettled(user) {
		m.settled[user>>6] &^= 1 << (user & 63)
		m.settledCount--
	}
}

// isSettled reports whether user is at her bitwise trust fixed point.
func (m *TrustModel) isSettled(user int) bool {
	return m.settled[user>>6]&(1<<(user&63)) != 0
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
// settled scratch); the tree and the settled flags and count are folded
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
	newSettled := m.growSettled(count)
	// Small batches run sequentially as a direct call: fanning out is slower
	// than the work, and the steady-state (settled-regime) epoch tail must
	// not allocate — the ForChunks closure below escapes to the heap. Each
	// chunk reports its first error; the chunks are in canonical order, so
	// the first non-nil one is the first error of the whole pass.
	if shards <= 1 || count < sparseSeqCutoff {
		if err := m.updateChunk(cands, all, facetOf, newSettled, 0, count); err != nil {
			return err
		}
	} else {
		chunk := sim.ChunkLen(shards, count)
		errs := make([]error, (count+chunk-1)/chunk)
		sim.ForChunks(shards, count, func(lo, hi int) {
			errs[lo/chunk] = m.updateChunk(cands, all, facetOf, newSettled, lo, hi)
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	// Sequential fold: aggregate tree (marked, then flushed once) and the
	// settled flags and count.
	for k := 0; k < count; k++ {
		u := k
		if !all {
			u = cands[k]
		}
		m.tree.Mark(u)
		if on := newSettled[k]; on != m.isSettled(u) {
			m.settled[u>>6] ^= 1 << (u & 63)
			if on {
				m.settledCount++
			} else {
				m.settledCount--
			}
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

// updateChunk folds facets into trust for candidates [lo, hi) and returns
// the first error among them; a user whose facets do not combine keeps her
// trust, and the others still fold. It writes only per-user cells (trust,
// started) and per-candidate scratch (newSettled), so disjoint ranges are
// safe to run concurrently. Within the
// chunk the last Combine result is memoized for users without individual
// weight profiles, so runs of users with bit-identical facets (the common
// case: the reputation facet is global per epoch, and untouched users share
// default satisfaction and privacy) pay one geometric mean instead of one
// each. The memo only skips recomputing a pure function on equal inputs, so
// the trust vector is bit-for-bit identical to combining every user anew.
func (m *TrustModel) updateChunk(cands []int, all bool, facetOf func(int) Facets, newSettled []bool, lo, hi int) error {
	var first error
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
				if first == nil {
					first = err
				}
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
	return first
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

// AppendCandidates appends to dst the candidates of a sparse update, in
// ascending order without duplicates: the ascending ids in dirty merged with
// every user not settled. It reads the settled flags a word at a time, so
// it costs O(n/64 + len(dirty) + unsettled users).
func (m *TrustModel) AppendCandidates(dst, dirty []int) []int {
	n, i := len(m.trust), 0
	for w, word := range m.settled {
		open := ^word
		if rest := n - w<<6; rest < 64 {
			open &= 1<<rest - 1
		}
		for ; open != 0; open &= open - 1 {
			u := w<<6 | bits.TrailingZeros64(open)
			for i < len(dirty) && dirty[i] < u {
				dst = append(dst, dirty[i])
				i++
			}
			if i < len(dirty) && dirty[i] == u {
				i++
			}
			dst = append(dst, u)
		}
	}
	return append(dst, dirty[i:]...)
}

// Trust returns a user's current trust (0.5 before any update).
func (m *TrustModel) Trust(user int) float64 {
	if user < 0 || user >= len(m.trust) {
		return 0
	}
	return m.trust[user]
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
