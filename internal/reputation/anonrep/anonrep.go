// Package anonrep implements an anonymity-preserving reputation mechanism
// in the spirit of the works the paper cites in §2.2 ([2] Androulaki et
// al., "Reputation systems for anonymous networks", PETS 2008; [4]
// Bethencourt et al., "Signatures of Reputation"): feedback is filed
// against rotating pseudonyms rather than identities, and reputation is
// carried across pseudonym changes through a bank that quantizes scores to
// coarse levels and adds calibrated noise, so that an observer cannot link
// a peer's new pseudonym to its old one by matching reputation values.
//
// The mechanism makes the paper's reputation/privacy trade-off directly
// measurable: more transfer noise and coarser levels mean less linkability
// (better anonymity) but a less accurate reputation signal.
package anonrep

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/crypto"
	"repro/internal/metrics"
	"repro/internal/reputation"
	"repro/internal/sim"
)

// Config parameterizes the mechanism.
type Config struct {
	// N is the number of peers.
	N int
	// Granularity is the score quantization step used when carrying
	// reputation across epochs (default 0.1): coarse levels are the
	// anonymity-set mechanism.
	Granularity float64
	// Noise is the standard deviation of the Gaussian perturbation added
	// to carried reputation (default 0.05).
	Noise float64
	// PriorStrength is how many ratings the carried score counts as when
	// blended with the new epoch's ratings (default 4).
	PriorStrength float64
	// Seed derives the mechanism's random stream (pseudonym seeds and
	// transfer noise).
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("anonrep: N must be positive, got %d", c.N)
	}
	if c.Granularity == 0 {
		c.Granularity = 0.1
	}
	if !(0 <= c.Granularity && c.Granularity <= 1) {
		return c, fmt.Errorf("anonrep: granularity %v out of (0,1]", c.Granularity)
	}
	if !(0 <= c.Noise && c.Noise <= math.MaxFloat64) {
		return c, fmt.Errorf("anonrep: noise %v is not a finite non-negative number", c.Noise)
	}
	if c.PriorStrength <= 0 {
		c.PriorStrength = 4
	}
	if !(0 < c.PriorStrength && c.PriorStrength <= math.MaxFloat64) {
		return c, fmt.Errorf("anonrep: prior strength %v is not a finite positive number", c.PriorStrength)
	}
	return c, nil
}

// account is the reputation state at the bank of one peer's current
// pseudonym.
type account struct {
	base    float64 // carried reputation
	hasBase bool
	sum     float64 // this epoch's ratings
	count   int
}

func (a *account) score(prior float64) float64 {
	if !a.hasBase && a.count == 0 {
		return 0.5
	}
	if !a.hasBase {
		return a.sum / float64(a.count)
	}
	return (float64(a.base*prior) + a.sum) / (prior + float64(a.count))
}

// Mechanism is the pseudonymous reputation engine.
type Mechanism struct {
	cfg  Config //trustlint:derived configuration, identical by construction on restore
	rng  *sim.RNG
	nyms []*crypto.PseudonymChain
	// accts[p] is the account of peer p's current pseudonym; a rotation
	// replaces it, since nothing can file against a retired pseudonym.
	accts []account
	epoch int
	// lastTransfer records, for the most recent epoch change, the
	// (oldScore, carriedScore) pair per peer — the adversary's view used
	// by LinkabilityAdvantage.
	lastTransfer []transfer
	scores       []float64
	dirty        bool
	// version counts the rewrites of scores (ScoresVersion).
	version uint64 //trustlint:derived process-local cursor, compared only against itself; never snapshotted
	// dirtyPeers tracks ratees touched since the last Compute; allDirty
	// forces a full refresh (epoch rotation re-bases every account, and a
	// restored snapshot does not say which cached scores are stale).
	dirtyPeers metrics.DirtySet //trustlint:derived restore resets it and sets allDirty, forcing a full cache rebuild
	allDirty   bool             //trustlint:derived set by restore, consumed by the next Compute
}

type transfer struct {
	peer    int
	oldObs  float64 // score observable on the old pseudonym
	carried float64 // score observable on the new pseudonym
}

var _ reputation.Mechanism = (*Mechanism)(nil)

// New builds the mechanism.
func New(cfg Config) (*Mechanism, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Mechanism{
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed ^ 0xa17e5),
		nyms:  make([]*crypto.PseudonymChain, cfg.N),
		accts: make([]account, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		m.nyms[i] = crypto.NewPseudonymChain(crypto.SeedFromUint64(cfg.Seed*7919 + uint64(i)))
	}
	m.scores = make([]float64, cfg.N)
	for i := range m.scores {
		m.scores[i] = 0.5
	}
	return m, nil
}

// Name implements reputation.Mechanism.
func (*Mechanism) Name() string { return "anonrep" }

// Epoch returns the current pseudonym epoch.
func (m *Mechanism) Epoch() int { return m.epoch }

// Pseudonym returns a peer's current pseudonym (what raters see).
func (m *Mechanism) Pseudonym(peer int) string {
	if peer < 0 || peer >= len(m.nyms) {
		return ""
	}
	return m.nyms[peer].Current()
}

// Submit implements reputation.Mechanism: the rating is credited to the
// ratee's *current pseudonym* account.
func (m *Mechanism) Submit(r reputation.Report) error {
	if err := r.Validate(m.cfg.N); err != nil {
		return fmt.Errorf("anonrep: %w", err)
	}
	v := r.Value
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	acct := &m.accts[r.Ratee]
	acct.sum += v
	acct.count++
	m.dirty = true
	m.dirtyPeers.Mark(r.Ratee)
	return nil
}

func (m *Mechanism) quantize(v float64) float64 {
	g := m.cfg.Granularity
	q := math.Round(v/g) * g
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// NextEpoch rotates every peer's pseudonym and carries its reputation to
// the new account through the bank: quantized to Granularity levels and
// perturbed with Gaussian noise. The pre-rotation observable scores are
// remembered as the adversary's view.
func (m *Mechanism) NextEpoch() {
	m.lastTransfer = m.lastTransfer[:0]
	for p := 0; p < m.cfg.N; p++ {
		old := &m.accts[p]
		oldObs := m.quantize(old.score(m.cfg.PriorStrength))
		carried := m.quantize(old.score(m.cfg.PriorStrength) + float64(m.rng.NormFloat64()*m.cfg.Noise))
		m.nyms[p].Advance()
		m.accts[p] = account{base: carried, hasBase: true}
		m.lastTransfer = append(m.lastTransfer, transfer{peer: p, oldObs: oldObs, carried: carried})
	}
	m.epoch++
	m.dirty = true
	m.allDirty = true // every account was re-based
}

// Compute implements reputation.Mechanism. Between epoch rotations only the
// peers rated since the last Compute are re-scored: each cached score is a
// pure function of the peer's own account, so skipping untouched peers is
// bit-identical to the full rescan.
func (m *Mechanism) Compute() int {
	if !m.dirty {
		return 0
	}
	if m.allDirty {
		for p := 0; p < m.cfg.N; p++ {
			m.scores[p] = m.accts[p].score(m.cfg.PriorStrength)
		}
		m.allDirty = false
	} else {
		for _, p := range m.dirtyPeers.Sorted() {
			m.scores[p] = m.accts[p].score(m.cfg.PriorStrength)
		}
	}
	m.dirtyPeers.Reset()
	m.dirty = false
	m.version++
	return 1
}

// Score implements reputation.Mechanism.
func (m *Mechanism) Score(peer int) float64 {
	if peer < 0 || peer >= len(m.scores) {
		return 0
	}
	return m.scores[peer]
}

// ScoresView implements reputation.Mechanism: the score cache, uncopied.
// Read-only; valid until the next Compute or restore.
func (m *Mechanism) ScoresView() []float64 { return m.scores }

// ScoresVersion implements reputation.Mechanism: it advances on every
// Compute that rescores a peer and on every restore.
func (m *Mechanism) ScoresVersion() uint64 { return m.version }

// TrustworthyFraction implements reputation.Mechanism.
func (m *Mechanism) TrustworthyFraction() float64 {
	rated, positive := 0, 0
	for p := 0; p < m.cfg.N; p++ {
		acct := &m.accts[p]
		if acct.count == 0 && !acct.hasBase {
			continue
		}
		rated++
		if acct.score(m.cfg.PriorStrength) >= 0.5 {
			positive++
		}
	}
	if rated == 0 {
		return 1
	}
	return float64(positive) / float64(rated)
}

// LinkabilityAdvantage plays the linking adversary of the cited works
// against the most recent epoch change: the adversary sees the multiset of
// pre-rotation scores (old pseudonyms) and post-rotation carried scores
// (new pseudonyms) and greedily matches nearest values. The result is the
// fraction of peers correctly linked; 1/N is random guessing, 1.0 is total
// linkability. It returns 0 if no epoch change happened yet.
func (m *Mechanism) LinkabilityAdvantage() float64 {
	n := len(m.lastTransfer)
	if n == 0 {
		return 0
	}
	// Adversary's inputs: two shuffled lists of (pseudonym, score). The
	// simulation keeps peer identity only to grade the adversary.
	olds := make([]transfer, n)
	copy(olds, m.lastTransfer)
	news := make([]transfer, n)
	copy(news, m.lastTransfer)
	sort.Slice(olds, func(i, j int) bool {
		if olds[i].oldObs != olds[j].oldObs {
			return olds[i].oldObs < olds[j].oldObs
		}
		return olds[i].peer < olds[j].peer
	})
	sort.Slice(news, func(i, j int) bool {
		if news[i].carried != news[j].carried {
			return news[i].carried < news[j].carried
		}
		return news[i].peer < news[j].peer
	})
	// Optimal-in-expectation assignment for 1-D values is the sorted
	// pairing; within ties the adversary can only guess, which we model by
	// a deterministic shuffle of the tied block.
	correct := 0
	i := 0
	for i < n {
		j := i
		for j < n && olds[j].oldObs == olds[i].oldObs {
			j++
		}
		// Tied block [i, j): shuffle the news block to model guessing.
		block := make([]transfer, j-i)
		copy(block, news[i:j])
		m.rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for k, nw := range block {
			if olds[i+k].peer == nw.peer {
				correct++
			}
		}
		i = j
	}
	return float64(correct) / float64(n)
}
