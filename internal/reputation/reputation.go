// Package reputation defines the common framework the paper adopts from
// Marti & Garcia-Molina (§2.2): a reputation system decomposes into
// information gathering, scoring & ranking, and response. This package holds
// the shared pieces — feedback reports, the local-trust matrix, the
// disclosure-limited gatherer that ties reputation to the privacy facet, and
// response policies — while the eigentrust, powertrust and trustme
// subpackages implement the cited scoring mechanisms.
package reputation

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Report is one feedback report: rater's rating of ratee for transaction
// TxID, in [0,1]. The JSON encoding backs the serving API and the
// report-wave intervention's schedule envelope; TxID is omitted there —
// the engine assigns transaction ids when a report is applied.
type Report struct {
	TxID  uint64  `json:"-"`
	Rater int     `json:"rater"`
	Ratee int     `json:"ratee"`
	Value float64 `json:"value"`
}

// ValidateExternal checks a report submitted from outside the simulation
// (the serving API, a scheduled report wave) against an n-peer population:
// rater and ratee in range, no self-rating, and a value in [0,1], which
// also rules out NaN. It is the one definition of a valid external report.
func (r Report) ValidateExternal(n int) error {
	if r.Rater < 0 || r.Rater >= n {
		return fmt.Errorf("rater %d out of range [0,%d)", r.Rater, n)
	}
	if r.Ratee < 0 || r.Ratee >= n {
		return fmt.Errorf("ratee %d out of range [0,%d)", r.Ratee, n)
	}
	if r.Rater == r.Ratee {
		return fmt.Errorf("self-rating report by %d rejected", r.Rater)
	}
	if !(r.Value >= 0 && r.Value <= 1) {
		return fmt.Errorf("report value %v out of [0,1]", r.Value)
	}
	return nil
}

// Validate checks r against an n-peer population: both peers in range, no
// self-rating, and a value that is a number. Mechanisms clamp or threshold
// out-of-range values, but a NaN would poison every sum it enters.
func (r Report) Validate(n int) error {
	if r.Rater < 0 || r.Rater >= n || r.Ratee < 0 || r.Ratee >= n {
		return fmt.Errorf("report %d->%d out of range [0,%d)", r.Rater, r.Ratee, n)
	}
	if r.Rater == r.Ratee {
		return fmt.Errorf("self-rating by %d rejected", r.Rater)
	}
	if math.IsNaN(r.Value) {
		return fmt.Errorf("report %d->%d has a NaN value", r.Rater, r.Ratee)
	}
	return nil
}

// Mechanism is a pluggable scoring engine ("scoring and ranking" block).
// The methods here are the ones every mechanism has; capabilities only some
// have (batched submission, whitewashing, sharded or delegated compute,
// convergence diagnostics) are optional interfaces beside it.
type Mechanism interface {
	// Name identifies the mechanism in experiment output.
	Name() string
	// Submit feeds one gathered report into the mechanism.
	Submit(r Report) error
	// Compute recomputes global scores, returning the number of iterations
	// (rounds) the computation needed.
	Compute() int
	// Score returns the current global score of a peer in [0,1].
	Score(peer int) float64
	// ScoresView returns all peers' scores indexed by peer id, uncopied.
	// The slice is READ-ONLY and valid only until the mechanism's next
	// Compute or state restore: callers that keep scores across one clone
	// them.
	ScoresView() []float64
	// ScoresVersion identifies the contents of ScoresView. It must change
	// whenever they may have changed — on every Compute that rewrites a
	// score and on every RestoreMechanismState — and may stay put
	// otherwise. The workload engine computes its trust gate once per
	// version, so a custom mechanism must honour this contract: a version
	// that stays put while the scores move leaves the gate stale. It is a
	// process-local cursor, compared only against itself, and never part
	// of MechanismState.
	ScoresVersion() uint64
	// TrustworthyFraction returns, over peers with any feedback, the
	// fraction the mechanism concludes are trustworthy (1 when no peer has
	// feedback yet). Section 3 of the paper makes this a first-class
	// signal — "the set of those levels may indicate the trustworthy of the
	// global system": an efficient mechanism concluding that the majority
	// is untrustworthy must LOWER trust towards the system, not raise it.
	TrustworthyFraction() float64
	// MechanismState serializes the mechanism's mutable state (an empty
	// blob when it has none). It is the seam the engine-wide
	// snapshot/resume feature runs through: restore-then-run must be
	// bit-for-bit identical to an uninterrupted run.
	MechanismState() ([]byte, error)
	// RestoreMechanismState restores a blob captured from a mechanism with
	// identical configuration.
	RestoreMechanismState(data []byte) error
}

// SatThreshold is the rating at or above which a transaction counts as
// satisfactory for mechanisms with binary local trust (EigenTrust's
// sat/unsat bookkeeping).
const SatThreshold = 0.5

// BatchSubmitter is implemented by mechanisms that can fold a whole round's
// reports in one call, amortizing per-report overhead (the call itself, the
// mechanism's dirty bookkeeping) across the batch. Folding a batch must
// leave the mechanism in exactly the state that calling Submit for each
// report in order would; an invalid report aborts the batch with an error,
// the reports before it already folded. Callers that need per-report error
// isolation (reports of unvetted provenance) must use Submit.
type BatchSubmitter interface {
	SubmitBatch(rs []Report) error
}

// Convergence describes one iterative Compute run: how many iterations the
// solver performed, the final L1 residual when it stopped, and whether the
// iteration was warm-started from the previous fixed point.
type Convergence struct {
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	Warm       bool    `json:"warm"`
}

// ConvergenceReporter is implemented by mechanisms whose Compute is an
// iterative solver and can report the diagnostics of its most recent run.
type ConvergenceReporter interface {
	// LastConvergence returns the diagnostics of the most recent Compute
	// that actually ran an iteration; ok is false before the first such run.
	LastConvergence() (Convergence, bool)
}

// satCounts is one (rater, ratee) aggregate of the local-trust matrix: its
// satisfactory and unsatisfactory report counts.
type satCounts struct{ sat, unsat int32 }

// LocalTrust accumulates reports into EigenTrust-style local trust values:
// s_ij = sat(i,j) − unsat(i,j), and normalized rows
// c_ij = max(s_ij,0) / Σ_j max(s_ij,0).
//
// The matrix is stored sparsely in the shared Rows store, which tracks the
// rows changed since the mechanism last materialized them, so a recompute
// touches O(changed rows), not Θ(n²). Per-ratee net/seen tallies keep the
// community assessment O(1).
type LocalTrust struct {
	n    int
	rows Rows[satCounts]

	// net[j] and seen[j] are Σ_i (sat−unsat) and Σ_i (sat+unsat) over the
	// cells of column j; rated counts the ratees with seen != 0 and
	// positive those among them with net > 0.
	net      []int32 //trustlint:derived column tallies recomputed from the restored rows by SetState
	seen     []int32 //trustlint:derived column tallies recomputed from the restored rows by SetState
	rated    int     //trustlint:derived column tallies recomputed from the restored rows by SetState
	positive int     //trustlint:derived column tallies recomputed from the restored rows by SetState
}

// NewLocalTrust returns an empty matrix for n peers.
func NewLocalTrust(n int) *LocalTrust {
	if n < 0 {
		n = 0
	}
	return &LocalTrust{
		n:    n,
		rows: NewRows[satCounts](n),
		net:  make([]int32, n),
		seen: make([]int32, n),
	}
}

// tally adds a cell's (sat, unsat) delta to column j's tallies, keeping the
// rated/positive counts current.
func (l *LocalTrust) tally(j int32, dSat, dUnsat int32) {
	if l.seen[j] != 0 {
		l.rated--
		if l.net[j] > 0 {
			l.positive--
		}
	}
	l.net[j] += dSat - dUnsat
	l.seen[j] += dSat + dUnsat
	if l.seen[j] != 0 {
		l.rated++
		if l.net[j] > 0 {
			l.positive++
		}
	}
}

// Add folds a report into the matrix. Ratings >= SatThreshold count as
// satisfactory. Invalid reports (see Report.Validate) are rejected.
func (l *LocalTrust) Add(r Report) error { return l.AddBatch([]Report{r}) }

// AddBatch folds a batch of reports. The result is exactly that of calling
// Add for each report in order; the first invalid report aborts the batch
// with the reports before it already folded.
func (l *LocalTrust) AddBatch(rs []Report) error {
	for i := range rs {
		r := &rs[i]
		if err := r.Validate(l.n); err != nil {
			return fmt.Errorf("reputation: %w", err)
		}
		j := int32(r.Ratee)
		c := l.rows.Upsert(r.Rater, j)
		if r.Value >= SatThreshold {
			c.sat++
			l.tally(j, 1, 0)
		} else {
			c.unsat++
			l.tally(j, 0, 1)
		}
	}
	return nil
}

// AppendRow appends row i's positive local-trust entries — column indices
// ascending, values s_ij > 0 — to the given scratch slices and returns
// them. It is the materialization feed of the mechanisms' CSR rebuild.
func (l *LocalTrust) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	if i < 0 || i >= l.n {
		return cols, vals
	}
	for _, c := range l.rows.Row(i) {
		if c.Val.sat > c.Val.unsat {
			cols = append(cols, c.Col)
			vals = append(vals, float64(c.Val.sat-c.Val.unsat))
		}
	}
	return cols, vals
}

// NetPositiveFraction returns, over peers that received at least one
// rating, the fraction whose incoming net trust Σ_i (sat_i − unsat_i) is
// positive — the matrix's conclusion about community trustworthiness.
// It returns 1 when no peer has incoming ratings. Cost: O(1), from the
// column tallies every mutation keeps current.
func (l *LocalTrust) NetPositiveFraction() float64 {
	if l.rated == 0 {
		return 1
	}
	return float64(l.positive) / float64(l.rated)
}

// ResetPeer erases all local trust involving a peer — the matrix state a
// whitewasher's fresh identity would present (no one has rated it, it has
// rated no one). Every touched row joins the dirty set.
func (l *LocalTrust) ResetPeer(i int) {
	if i < 0 || i >= l.n {
		return
	}
	for _, c := range l.rows.Row(i) {
		l.tally(c.Col, -c.Val.sat, -c.Val.unsat)
	}
	l.rows.DropRow(i)
	for k := 0; k < l.n; k++ {
		if c, ok := l.rows.Delete(k, int32(i)); ok {
			l.tally(int32(i), -c.sat, -c.unsat)
		}
	}
}

// DirtyRows returns, in ascending order, the rows changed since the last
// ClearDirty (see Rows.DirtyRows).
func (l *LocalTrust) DirtyRows() []int { return l.rows.DirtyRows() }

// HasDirty reports whether any row changed since the last ClearDirty.
func (l *LocalTrust) HasDirty() bool { return l.rows.HasDirty() }

// ClearDirty empties the dirty set.
func (l *LocalTrust) ClearDirty() { l.rows.ClearDirty() }

// UniformPretrust returns the uniform distribution over n peers.
func UniformPretrust(n int) []float64 {
	p := make([]float64, n)
	if n == 0 {
		return p
	}
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

// PretrustOver returns the distribution concentrated uniformly on the given
// pre-trusted peers. The set must be non-empty, in range, and free of
// duplicates: an empty set would yield a degenerate all-zero vector (use
// UniformPretrust for uniform pre-trust), a silently-skipped invalid id
// would leave the distribution summing below 1, and a duplicated id would
// skew double weight onto one peer — all three are configuration mistakes
// the caller must hear about, not absorb.
func PretrustOver(n int, trusted []int) ([]float64, error) {
	if len(trusted) == 0 {
		return nil, fmt.Errorf("reputation: empty pre-trusted set (use UniformPretrust for uniform pre-trust)")
	}
	p := make([]float64, n)
	share := 1 / float64(len(trusted))
	for _, i := range trusted {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("reputation: pre-trusted peer %d out of range [0,%d)", i, n)
		}
		if p[i] != 0 {
			return nil, fmt.Errorf("reputation: duplicate pre-trusted peer %d", i)
		}
		p[i] = share
	}
	return p, nil
}

// Gatherer implements the "information gathering" block under privacy
// constraints: each rater's reports reach the mechanism only with the
// rater's disclosure probability. This is the operational link between the
// paper's privacy axis ("quantity of shared information") and reputation
// power.
type Gatherer struct {
	rng        *sim.RNG
	disclosure []float64
	// Gathered and Withheld count reports passed vs suppressed.
	Gathered, Withheld int64
}

// NewGatherer builds a gatherer. disclosure[i] is peer i's probability of
// sharing any given report, clamped to [0,1].
func NewGatherer(rng *sim.RNG, disclosure []float64) *Gatherer {
	d := make([]float64, len(disclosure))
	for i, v := range disclosure {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		d[i] = v
	}
	return &Gatherer{rng: rng, disclosure: d}
}

// SetDisclosure updates one rater's disclosure probability in place (clamped
// to [0,1]), preserving the gatherer's random stream and gathering counters.
// This is the delta-update seam the sparse §3 coupling uses: rebuilding the
// gatherer per epoch would recopy an n-length vector and re-split a random
// stream just to move a handful of cells. Out-of-range raters are ignored.
func (g *Gatherer) SetDisclosure(rater int, p float64) {
	if rater < 0 || rater >= len(g.disclosure) {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	g.disclosure[rater] = p
}

// Disclosure returns the rater's disclosure probability (1 for a rater
// outside the disclosure vector, whose reports are always shared).
func (g *Gatherer) Disclosure(rater int) float64 {
	if rater < 0 || rater >= len(g.disclosure) {
		return 1
	}
	return g.disclosure[rater]
}

// Admit performs the rater's disclosure draw without delivering anything:
// it returns whether the rater shares the report, counting Withheld when
// not. Callers deliver admitted reports to the mechanism and call Commit for
// each one delivered successfully.
func (g *Gatherer) Admit(rater int) bool {
	if !g.rng.Bool(g.Disclosure(rater)) {
		g.Withheld++
		return false
	}
	return true
}

// Commit records one admitted report as successfully delivered to the
// mechanism (the second half of the Admit/Commit pair).
func (g *Gatherer) Commit() { g.Gathered++ }

// SelectBest is the "response" block used by the experiments: choose the
// candidate with the highest score, breaking ties uniformly. It returns -1
// for an empty candidate list.
func SelectBest[C ~int | ~int32](rng *sim.RNG, scores []float64, candidates []C) int {
	best := -1
	bestScore := -1.0
	ties := 0
	for _, cand := range candidates {
		c := int(cand)
		if c < 0 || c >= len(scores) {
			continue
		}
		s := scores[c]
		switch {
		case s > bestScore:
			best, bestScore, ties = c, s, 1
		case s == bestScore:
			// Reservoir-sample among ties for uniformity.
			ties++
			if rng.Intn(ties) == 0 {
				best = c
			}
		}
	}
	return best
}

// SelectProportional chooses a candidate with probability proportional to
// its score (uniform when all scores are zero). It returns -1 for an empty
// list. EigenTrust's paper recommends this to avoid overloading the
// highest-reputation peers. Candidates out of range or with a negative
// score are skipped; the walk makes a second pass over the list instead of
// collecting the valid ones, so it allocates nothing.
func SelectProportional[C ~int | ~int32](rng *sim.RNG, scores []float64, candidates []C) int {
	valid := func(c int) bool { return c >= 0 && c < len(scores) && scores[c] >= 0 }
	total := 0.0
	count, last := 0, -1
	for _, cand := range candidates {
		if c := int(cand); valid(c) {
			total += scores[c]
			count++
			last = c
		}
	}
	if count == 0 {
		return -1
	}
	if total == 0 {
		pick := rng.Intn(count)
		for _, cand := range candidates {
			if c := int(cand); valid(c) {
				if pick == 0 {
					return c
				}
				pick--
			}
		}
	}
	x := rng.Float64() * total
	for _, cand := range candidates {
		if c := int(cand); valid(c) {
			x -= scores[c]
			if x <= 0 {
				return c
			}
		}
	}
	return last
}

// None is the no-reputation baseline: every peer scores the same neutral
// value, so response policies degrade to uniform choice.
type None struct {
	n      int       //trustlint:derived configuration, fixed by NewNone
	scores []float64 //trustlint:derived constant neutral vector, rebuilt identically by NewNone
}

// NewNone returns the baseline for n peers.
func NewNone(n int) *None {
	m := &None{n: n, scores: make([]float64, n)}
	for i := range m.scores {
		m.scores[i] = 0.5
	}
	return m
}

// Name implements Mechanism.
func (*None) Name() string { return "none" }

// Submit implements Mechanism (reports are discarded).
func (*None) Submit(Report) error { return nil }

// Compute implements Mechanism.
func (*None) Compute() int { return 0 }

// Score implements Mechanism.
func (*None) Score(int) float64 { return 0.5 }

// ScoresView implements Mechanism (the baseline's scores never change).
func (m *None) ScoresView() []float64 { return m.scores }

// ScoresVersion implements Mechanism: the baseline's scores never change,
// so neither does their version.
func (*None) ScoresVersion() uint64 { return 0 }

// TrustworthyFraction implements Mechanism: the baseline draws no
// conclusion about the population, which reads as no evidence against it.
func (*None) TrustworthyFraction() float64 { return 1 }

var _ Mechanism = (*None)(nil)
