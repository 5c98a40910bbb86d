// Package powertrust implements PowerTrust (Zhou & Hwang, TPDS 2007), the
// third reputation baseline the paper cites: it builds a trust overlay
// network (TON) from the feedback graph, elects the most-reputable "power
// nodes", and aggregates global reputation with a look-ahead random walk
// (LRW) that converges in fewer rounds than plain power iteration.
package powertrust

import (
	"fmt"
	"math"

	"repro/internal/reputation"
)

// Config parameterizes the mechanism.
type Config struct {
	// N is the number of peers.
	N int
	// M is the number of power nodes (default max(1, N/20)).
	M int
	// Alpha is the greedy-jump weight toward power nodes (default 0.15).
	Alpha float64
	// Epsilon is the L1 convergence threshold, default 1e-6.
	Epsilon float64
	// MaxIter bounds the iteration, default 200.
	MaxIter int
	// ColdStart restarts every walk from the uniform distribution instead
	// of warm-starting from the previous stationary point. Both converge to
	// the same distribution within Epsilon (the walk is ergodic for
	// alpha > 0); warm starts just take fewer rounds on incremental
	// recomputes.
	ColdStart bool
}

func (c Config) withDefaults() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("powertrust: N must be positive, got %d", c.N)
	}
	if c.M <= 0 {
		c.M = c.N / 20
		if c.M < 1 {
			c.M = 1
		}
	}
	if c.M > c.N {
		c.M = c.N
	}
	if c.Alpha == 0 {
		c.Alpha = 0.15
	}
	if !(0 <= c.Alpha && c.Alpha <= 1) {
		return c, fmt.Errorf("powertrust: alpha %v out of [0,1]", c.Alpha)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-6
	}
	if !(0 < c.Epsilon && c.Epsilon <= math.MaxFloat64) {
		return c, fmt.Errorf("powertrust: epsilon %v is not a finite positive number", c.Epsilon)
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.MaxIter < 0 {
		return c, fmt.Errorf("powertrust: max iterations %d is negative", c.MaxIter)
	}
	return c, nil
}

// pair aggregates ratings from one rater to one ratee.
type pair struct {
	sum   float64
	count int32
}

// ratings is the feedback graph as the solver's row feed: per rater, the
// aggregate of its ratings of each ratee in the shared sparse store, which
// also tracks the rows changed since the solver last materialized them. A
// row materializes as the rater's mean ratings; a rater whose ratings sum to
// zero is dangling, and the walk jumps its weight uniformly.
type ratings struct {
	reputation.Rows[pair]
}

// AppendRow implements reputation.RowFeed.
func (f *ratings) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	for _, c := range f.Row(i) {
		cols = append(cols, c.Col)
		vals = append(vals, c.Val.sum/float64(c.Val.count))
	}
	return cols, vals
}

var _ reputation.RowFeed = (*ratings)(nil)

// Mechanism is the PowerTrust scoring engine: the shared power-iteration
// Solver over the row-normalized feedback matrix R, with silent peers'
// weight jumping uniformly and the α-weighted teleport going to the
// elected power nodes. Compute elects the power nodes, then walks — two
// operator applications per round with look-ahead, one without.
type Mechanism struct {
	*reputation.Solver
	cfg       Config //trustlint:derived configuration, identical by construction on restore
	lookAhead bool   //trustlint:derived configuration, fixed by New or NewPlain
	feedback  ratings
	power     []int
	jump      []float64 //trustlint:derived recomputed from the power-node election each Compute
	// Power-node election scratch: per-peer rank and the elected heap.
	rank    []float64 //trustlint:derived scratch, refilled by every election
	elected []int     //trustlint:derived scratch, refilled by every election; power aliases it between elections
	// Community-assessment scratch, reused across calls.
	tfSums   []float64 //trustlint:derived scratch, zeroed at the top of every TrustworthyFraction
	tfCounts []int     //trustlint:derived scratch, zeroed at the top of every TrustworthyFraction
}

var _ reputation.Mechanism = (*Mechanism)(nil)

// New builds the mechanism with the look-ahead random walk.
func New(cfg Config) (*Mechanism, error) { return build(cfg, true) }

// NewPlain builds the mechanism with look-ahead disabled (the ablation
// baseline: plain first-order random walk).
func NewPlain(cfg Config) (*Mechanism, error) { return build(cfg, false) }

func build(cfg Config, lookAhead bool) (*Mechanism, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Mechanism{
		cfg:       cfg,
		lookAhead: lookAhead,
		feedback:  ratings{reputation.NewRows[pair](cfg.N)},
		jump:      make([]float64, cfg.N),
		rank:      make([]float64, cfg.N),
		elected:   make([]int, 0, cfg.M),
	}
	m.Solver = reputation.NewSolver(&m.feedback, reputation.UniformPretrust(cfg.N), m.jump,
		cfg.Alpha, cfg.Epsilon, cfg.MaxIter, cfg.ColdStart)
	return m, nil
}

// Name implements reputation.Mechanism.
func (m *Mechanism) Name() string {
	if m.lookAhead {
		return "powertrust"
	}
	return "powertrust-plain"
}

// Submit implements reputation.Mechanism.
func (m *Mechanism) Submit(r reputation.Report) error {
	return m.SubmitBatch([]reputation.Report{r})
}

// SubmitBatch implements reputation.BatchSubmitter: a whole round's reports
// fold in one call. The result is exactly that of calling Submit for each
// report in order; the first invalid report aborts the batch with the
// reports before it already folded.
func (m *Mechanism) SubmitBatch(rs []reputation.Report) error {
	for i := range rs {
		r := &rs[i]
		if err := r.Validate(m.cfg.N); err != nil {
			return fmt.Errorf("powertrust: %w", err)
		}
		v := r.Value
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		p := m.feedback.Upsert(r.Rater, int32(r.Ratee))
		p.sum += v
		p.count++
		m.MarkDirty()
	}
	return nil
}

var _ reputation.BatchSubmitter = (*Mechanism)(nil)

// electPowerNodes elects the m most reputable peers as power nodes, per the
// PowerTrust paper ("a small number of the most reputable power nodes").
// On the first election, before any global scores exist, it bootstraps from
// the trust overlay's weighted in-degree (sum of incoming mean ratings) —
// raw rater counts would let heavily-rated bad peers win. Ties break by id.
// The election runs on reusable buffers: one pass over the peers keeps the
// m strongest in a heap whose root is the weakest of them (O(n log m)), and
// sorting the heap in place leaves them strongest first. The returned slice
// is the mechanism's buffer, valid until the next election.
func (m *Mechanism) electPowerNodes() []int {
	rank := m.rank
	scores := m.RawView()
	uniform := 1 / float64(m.cfg.N)
	bootstrapped := true
	for _, s := range scores {
		if s > uniform*1.01 || s < uniform*0.99 {
			bootstrapped = false
			break
		}
	}
	if bootstrapped {
		clear(rank)
		for _, c := range m.feedback.All() {
			rank[c.Col] += c.Val.sum / float64(c.Val.count)
		}
	} else {
		copy(rank, scores)
	}
	heap := m.elected[:0]
	for id := range rank {
		if len(heap) < m.cfg.M {
			heap = append(heap, id)
			siftUp(heap, rank)
		} else if outranks(rank, id, heap[0]) {
			heap[0] = id
			siftDown(heap, rank)
		}
	}
	for end := len(heap) - 1; end > 0; end-- {
		heap[0], heap[end] = heap[end], heap[0]
		siftDown(heap[:end], rank)
	}
	m.elected = heap
	return heap
}

// outranks reports whether peer a is elected ahead of peer b: higher rank
// first, ties to the lower id.
func outranks(rank []float64, a, b int) bool {
	if rank[a] != rank[b] {
		return rank[a] > rank[b]
	}
	return a < b
}

// siftUp restores the weakest-at-root heap order after an append.
func siftUp(h []int, rank []float64) {
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !outranks(rank, h[parent], h[i]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the weakest-at-root heap order after the root changed.
func siftDown(h []int, rank []float64) {
	for i := 0; ; {
		weak := 2*i + 1
		if weak >= len(h) {
			return
		}
		if r := weak + 1; r < len(h) && outranks(rank, h[weak], h[r]) {
			weak = r
		}
		if !outranks(rank, h[i], h[weak]) {
			return
		}
		h[i], h[weak] = h[weak], h[i]
		i = weak
	}
}

// TrustworthyFraction implements reputation.Mechanism: the fraction of
// rated peers whose mean incoming rating is at least 0.5. The scan stays a
// full recompute in (rater, ratee) order (incremental cross-peer float
// accumulators would make results depend on fold order), but the
// accumulation buffers are reused across calls.
func (m *Mechanism) TrustworthyFraction() float64 {
	if m.tfSums == nil {
		m.tfSums = make([]float64, m.cfg.N)
		m.tfCounts = make([]int, m.cfg.N)
	}
	sums, counts := m.tfSums, m.tfCounts
	for j := range sums {
		sums[j] = 0
		counts[j] = 0
	}
	for _, c := range m.feedback.All() {
		sums[c.Col] += c.Val.sum
		counts[c.Col] += int(c.Val.count)
	}
	rated, positive := 0, 0
	for j := 0; j < m.cfg.N; j++ {
		if counts[j] == 0 {
			continue
		}
		rated++
		if sums[j]/float64(counts[j]) >= 0.5 {
			positive++
		}
	}
	if rated == 0 {
		return 1
	}
	return float64(positive) / float64(rated)
}

// PowerNodes returns a copy of the most recently elected power nodes.
func (m *Mechanism) PowerNodes() []int {
	out := make([]int, len(m.power))
	copy(out, m.power)
	return out
}

// PowerNodesView returns the most recently elected power nodes without
// copying — the read-only fast path for observer loops that poll each
// recompute (experiment drivers, metrics collection). The slice is valid
// until the next Compute or restore; callers that retain or mutate it must
// use PowerNodes.
func (m *Mechanism) PowerNodesView() []int { return m.power }

// Compute elects the power nodes, points the teleport at them, and runs the
// (look-ahead) random walk until the L1 change drops below Epsilon,
// returning the number of rounds (see reputation.Solver.Solve). The first
// Compute starts uniform, which is what the scores are initialized to;
// later ones warm-start from the previous stationary distribution unless
// Config.ColdStart is set.
func (m *Mechanism) Compute() int {
	if !m.Dirty() {
		return 0
	}
	m.power = m.electPowerNodes()
	clear(m.jump)
	share := 1 / float64(len(m.power))
	for _, p := range m.power {
		m.jump[p] = share
	}
	return m.Solve(m.lookAhead)
}
