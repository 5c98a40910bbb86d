// Package trustme implements TrustMe (Singh & Liu, P2P 2003), the second
// reputation baseline the paper cites: anonymous management of trust
// relationships. Each peer's reputation reports are held by trust-holding
// agents (THAs) located through the DHT rather than by the peer itself, and
// every transaction requires a pairwise certificate established before it
// takes place, so reports can neither be forged nor bound to the wrong
// transaction. The THAs store bare rating values, never who rated,
// decoupling feedback from identity (the paper's reputation/privacy
// trade-off made concrete).
package trustme

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/crypto"
	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/reputation"
)

// Config parameterizes the mechanism.
type Config struct {
	// N is the number of peers.
	N int
	// Replicas is the THA replication factor (default 3).
	Replicas int
	// Window bounds how many most-recent ratings count per peer
	// (default 64).
	Window int
}

func (c Config) withDefaults() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("trustme: N must be positive, got %d", c.N)
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	return c, nil
}

// thaKey is the secret the trust-holding agents share for sealing
// transaction certificates. Nothing writes it.
var thaKey = []byte("trustme-tha-shared-key")

// ErrNoCertificate is returned when a report arrives for a transaction with
// no established certificate.
var ErrNoCertificate = errors.New("trustme: no transaction certificate")

// ErrCertMismatch is returned when a report's parties do not match its
// certificate (a forged or replayed report).
var ErrCertMismatch = errors.New("trustme: report does not match certificate")

// Mechanism is the TrustMe scoring engine.
type Mechanism struct {
	cfg   Config //trustlint:derived configuration, identical by construction on restore
	ring  *dht.Ring
	certs map[uint64]crypto.TransactionCert
	// Messages approximates protocol message cost: DHT routing hops plus
	// the certificate exchange per transaction.
	Messages int64
	// Rejected counts reports refused for certificate violations.
	Rejected int64
	scores   []float64
	dirty    bool
	// version counts the rewrites of scores (ScoresVersion).
	version uint64 //trustlint:derived process-local cursor, compared only against itself; never snapshotted
	// dirtyPeers tracks which ratees' THA histories changed since the last
	// Compute, so a refresh fetches only those; allDirty forces a full
	// refresh (after a restore, where the snapshot does not say which
	// cached scores are stale).
	dirtyPeers metrics.DirtySet //trustlint:derived restore resets it and sets allDirty, forcing a full cache rebuild
	allDirty   bool             //trustlint:derived set by restore, consumed by the next Compute
	// The community-assessment cache mirrors the per-peer history means the
	// same way, with incremental rated/positive tallies, so
	// TrustworthyFraction re-reads only changed histories. tfDirty is
	// tracked separately from dirtyPeers because the two consumers refresh
	// at different times.
	tfMean     []float64        //trustlint:derived cache rebuilt in full on the first TrustworthyFraction after restore (tfAll)
	tfHas      []bool           //trustlint:derived cache rebuilt in full on the first TrustworthyFraction after restore (tfAll)
	tfRated    int              //trustlint:derived cache rebuilt in full on the first TrustworthyFraction after restore (tfAll)
	tfPositive int              //trustlint:derived cache rebuilt in full on the first TrustworthyFraction after restore (tfAll)
	tfDirty    metrics.DirtySet //trustlint:derived cache rebuilt in full on the first TrustworthyFraction after restore (tfAll)
	tfAll      bool             //trustlint:derived set by restore, consumed by the next TrustworthyFraction
}

var _ reputation.Mechanism = (*Mechanism)(nil)

// New builds the mechanism and joins all N peers to the score-storage ring.
func New(cfg Config) (*Mechanism, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ring := dht.NewRing(cfg.Replicas)
	for i := 0; i < cfg.N; i++ {
		if err := ring.Join(i); err != nil {
			return nil, fmt.Errorf("trustme: join %d: %w", i, err)
		}
	}
	ring.Stabilize()
	m := &Mechanism{
		cfg:   cfg,
		ring:  ring,
		certs: make(map[uint64]crypto.TransactionCert),
	}
	m.scores = make([]float64, cfg.N)
	for i := range m.scores {
		m.scores[i] = 0.5
	}
	m.tfMean = make([]float64, cfg.N)
	m.tfHas = make([]bool, cfg.N)
	return m, nil
}

// Name implements reputation.Mechanism.
func (*Mechanism) Name() string { return "trustme" }

// Ring exposes the underlying DHT (for churn experiments).
func (m *Mechanism) Ring() *dht.Ring { return m.ring }

// BeginTransaction establishes the pairwise transaction certificate before
// the transaction takes place, as TrustMe requires. Calling it twice for the
// same txID returns the existing certificate. A certificate lives until the
// transaction's report is filed: Submit then drops it, so the mechanism
// holds only the certificates of transactions still waiting for a report,
// and a later report under the same txID needs a new one.
func (m *Mechanism) BeginTransaction(txID uint64, consumer, provider int) (crypto.TransactionCert, error) {
	if consumer < 0 || consumer >= m.cfg.N || provider < 0 || provider >= m.cfg.N {
		return crypto.TransactionCert{}, fmt.Errorf("trustme: parties %d,%d out of range", consumer, provider)
	}
	if cert, ok := m.certs[txID]; ok {
		return cert, nil
	}
	// Certificate issuance: locate the provider's THA, then a 2-message
	// exchange.
	hops, err := m.ring.LookupHops(scoreKey(provider))
	if err != nil {
		return crypto.TransactionCert{}, fmt.Errorf("trustme: locate THA: %w", err)
	}
	m.Messages += int64(hops) + 2
	cert := crypto.SealCert(thaKey, txID, peerName(consumer), peerName(provider))
	m.certs[txID] = cert
	return cert, nil
}

// Submit implements reputation.Mechanism. The report must correspond to an
// established certificate with matching parties; otherwise it is rejected.
// For harness convenience a missing certificate is auto-established (the
// certificate exchange always precedes the transaction in the real
// protocol), but a mismatched one is a hard error. Filing the report
// consumes the certificate.
func (m *Mechanism) Submit(r reputation.Report) error {
	if err := r.Validate(m.cfg.N); err != nil {
		return fmt.Errorf("trustme: %w", err)
	}
	cert, ok := m.certs[r.TxID]
	if !ok {
		var err error
		cert, err = m.BeginTransaction(r.TxID, r.Rater, r.Ratee)
		if err != nil {
			return err
		}
	}
	if err := crypto.VerifyCert(thaKey, cert); err != nil {
		m.Rejected++
		return fmt.Errorf("trustme: %w", err)
	}
	if cert.From != peerName(r.Rater) || cert.To != peerName(r.Ratee) {
		m.Rejected++
		return fmt.Errorf("%w: tx %d", ErrCertMismatch, r.TxID)
	}
	// Append the rating to the ratee's THA-stored history, clamped into
	// [0,1] so every score, a mean of the history, stays there.
	key := scoreKey(r.Ratee)
	existing, err := m.ring.Get(key)
	if err != nil && !errors.Is(err, dht.ErrNotFound) {
		return fmt.Errorf("trustme: fetch history: %w", err)
	}
	ratings := decodeRatings(existing)
	ratings = append(ratings, min(max(r.Value, 0), 1))
	if len(ratings) > m.cfg.Window {
		ratings = ratings[len(ratings)-m.cfg.Window:]
	}
	if err := m.ring.Put(key, encodeRatings(ratings)); err != nil {
		return fmt.Errorf("trustme: store history: %w", err)
	}
	m.Messages += 2 // store + ack (routing hops counted by ring)
	delete(m.certs, r.TxID)
	m.dirty = true
	m.dirtyPeers.Mark(r.Ratee)
	m.tfDirty.Mark(r.Ratee)
	return nil
}

// Compute refreshes the score cache from THA storage. TrustMe is not
// iterative, so it always completes in one round. Only peers whose stored
// history changed since the last Compute are re-fetched: each cached score
// is a pure function of the peer's own THA history, so skipping untouched
// peers is bit-identical to the full rescan.
func (m *Mechanism) Compute() int {
	if !m.dirty {
		return 0
	}
	if m.allDirty {
		for p := 0; p < m.cfg.N; p++ {
			m.scores[p] = m.fetchScore(p)
		}
		m.allDirty = false
	} else {
		for _, p := range m.dirtyPeers.Sorted() {
			m.scores[p] = m.fetchScore(p)
		}
	}
	m.dirtyPeers.Reset()
	m.dirty = false
	m.version++
	return 1
}

// fetchScore is peer's score: the mean of its THA-stored history, or the
// neutral 0.5 when it has none.
func (m *Mechanism) fetchScore(peer int) float64 {
	if mean, ok := m.historyMean(peer); ok {
		return mean
	}
	return 0.5
}

// historyMean reads peer's THA-stored history and returns its mean rating,
// or false when the peer has no rating stored.
func (m *Mechanism) historyMean(peer int) (float64, bool) {
	v, err := m.ring.Get(scoreKey(peer))
	if err != nil {
		return 0, false
	}
	ratings := decodeRatings(v)
	if len(ratings) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, r := range ratings {
		sum += r
	}
	return sum / float64(len(ratings)), true
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
// Compute that refreshes the cache and on every restore.
func (m *Mechanism) ScoresVersion() uint64 { return m.version }

// TrustworthyFraction implements reputation.Mechanism: the fraction
// of peers with THA-stored history whose mean rating is at least 0.5. The
// per-peer means and the rated/positive tallies are cached and refreshed
// only for peers whose history changed, so the assessment costs O(changed)
// ring reads instead of O(N). It mutates the cache and is meant for the
// sequential measurement barrier, not concurrent readers. Scores served via
// Score/Scores stay deliberately stale between Computes; the assessment
// cache is separate and never freshens them.
func (m *Mechanism) TrustworthyFraction() float64 {
	if m.tfAll {
		m.tfRated, m.tfPositive = 0, 0
		for p := 0; p < m.cfg.N; p++ {
			m.tfHas[p] = false
			m.refreshTF(p)
		}
		m.tfAll = false
	} else {
		for _, p := range m.tfDirty.Sorted() {
			m.refreshTF(p)
		}
	}
	m.tfDirty.Reset()
	if m.tfRated == 0 {
		return 1
	}
	return float64(m.tfPositive) / float64(m.tfRated)
}

// refreshTF re-derives one peer's assessment-cache entry from THA storage,
// keeping the rated/positive tallies exact.
func (m *Mechanism) refreshTF(p int) {
	if m.tfHas[p] {
		m.tfRated--
		if m.tfMean[p] >= 0.5 {
			m.tfPositive--
		}
		m.tfHas[p] = false
	}
	mean, ok := m.historyMean(p)
	if !ok {
		return
	}
	m.tfMean[p] = mean
	m.tfHas[p] = true
	m.tfRated++
	if m.tfMean[p] >= 0.5 {
		m.tfPositive++
	}
}

// Whitewash models a peer abandoning its identity: its THA-stored rating
// history is deleted. Because TrustMe defaults unknown peers to the neutral
// score 0.5, whitewashing launders a bad reputation back to neutral — the
// vulnerability the adversary taxonomy predicts for neutral-default,
// identity-bound scores.
func (m *Mechanism) Whitewash(peer int) {
	if peer < 0 || peer >= m.cfg.N {
		return
	}
	m.ring.Delete(scoreKey(peer))
	m.dirty = true
	m.dirtyPeers.Mark(peer)
	m.tfDirty.Mark(peer)
}

func peerName(p int) string { return "peer-" + strconv.Itoa(p) }

func scoreKey(p int) string { return "trustme/score/" + strconv.Itoa(p) }

func encodeRatings(rs []float64) []byte {
	buf := make([]byte, 8*len(rs))
	for i, r := range rs {
		binary.BigEndian.PutUint64(buf[i*8:], math.Float64bits(r))
	}
	return buf
}

func decodeRatings(b []byte) []float64 {
	out := make([]float64, 0, len(b)/8)
	for i := 0; i+8 <= len(b); i += 8 {
		out = append(out, math.Float64frombits(binary.BigEndian.Uint64(b[i:])))
	}
	return out
}
