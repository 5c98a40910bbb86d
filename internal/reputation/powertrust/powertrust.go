// Package powertrust implements PowerTrust (Zhou & Hwang, TPDS 2007), the
// third reputation baseline the paper cites: it builds a trust overlay
// network (TON) from the feedback graph, elects the most-reputable "power
// nodes", and aggregates global reputation with a look-ahead random walk
// (LRW) that converges in fewer rounds than plain power iteration.
package powertrust

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
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
	// LookAhead enables the look-ahead random walk (default on via
	// NewDefault; set false to ablate).
	LookAhead bool
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
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("powertrust: alpha %v out of [0,1]", c.Alpha)
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-6
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	return c, nil
}

// pair aggregates ratings from one rater to one ratee.
type pair struct {
	sum   float64
	count int
}

// Mechanism is the PowerTrust scoring engine. The row-normalized feedback
// matrix R lives in a CSR whose rows are rematerialized incrementally from
// a per-row dirty set; silent peers are dangling rows handled by the
// kernel's rank-one uniform correction instead of a dense uniform fill. The
// (look-ahead) random walk runs the shared shard-parallel SpMV on reusable
// buffers, bit-for-bit identical for every worker count.
type Mechanism struct {
	cfg      Config          //trustlint:derived configuration, identical by construction on restore
	feedback []map[int]*pair // feedback[i][j]: i's ratings of j
	scores   []float64
	power    []int
	dirty    bool

	// Sparse kernel state.
	csr          *linalg.CSR        //trustlint:derived rematerialized from the feedback matrix on first Compute after restore
	ws           linalg.Workspace   //trustlint:derived scratch, contents never outlive one Compute
	workers      int                //trustlint:derived configuration (SetWorkers), not part of the deterministic state
	materialized bool               //trustlint:derived cleared by restore to force a full CSR rebuild
	dirtyRows    map[int32]struct{} // rows whose CSR materialization is stale
	uniform      []float64          //trustlint:derived constant 1/n vector, rebuilt by New
	jump         []float64          //trustlint:derived recomputed from the power-node election each Compute
	// Reusable iteration and materialization scratch.
	vecA, vecB, vecMid []float64 //trustlint:derived scratch, contents never outlive one Compute
	colScratch         []int32   //trustlint:derived scratch, contents never outlive one Compute
	valScratch         []float64 //trustlint:derived scratch, contents never outlive one Compute
	// Power-node election scratch: per-peer rank and the elected heap.
	rank    []float64 //trustlint:derived scratch, refilled by every election
	elected []int     //trustlint:derived scratch, refilled by every election; power aliases it between elections
	// Max-normalized score cache backing ScoresView.
	norm    []float64 //trustlint:derived cache, recomputed from scores by refreshNorm on restore
	normMax float64   //trustlint:derived cache, recomputed from scores by refreshNorm on restore
	// Community-assessment scratch, reused across calls.
	tfSums   []float64 //trustlint:derived scratch, zeroed at the top of every TrustworthyFraction
	tfCounts []int     //trustlint:derived scratch, zeroed at the top of every TrustworthyFraction
	// Diagnostics of the most recent Compute that ran rounds.
	lastConv reputation.Convergence
	hasConv  bool

	spmv reputation.SpMVDelegate //trustlint:derived cluster-layer hook, re-attached by the owner after restore; bit-exact by contract
}

var _ reputation.Mechanism = (*Mechanism)(nil)

func newMech(cfg Config) *Mechanism {
	m := &Mechanism{
		cfg:          cfg,
		feedback:     make([]map[int]*pair, cfg.N),
		workers:      1,
		csr:          linalg.New(cfg.N),
		materialized: true, // a fresh CSR matches the empty feedback graph
		dirtyRows:    make(map[int32]struct{}),
		uniform:      reputation.UniformPretrust(cfg.N),
		jump:         make([]float64, cfg.N),
		vecA:         make([]float64, cfg.N),
		vecB:         make([]float64, cfg.N),
		vecMid:       make([]float64, cfg.N),
		rank:         make([]float64, cfg.N),
		elected:      make([]int, 0, cfg.M),
		norm:         make([]float64, cfg.N),
	}
	m.scores = make([]float64, cfg.N)
	for i := range m.scores {
		m.scores[i] = 1 / float64(cfg.N)
	}
	m.refreshNorm()
	return m
}

// New builds the mechanism with look-ahead enabled by default.
func New(cfg Config) (*Mechanism, error) {
	lookAheadSet := cfg.LookAhead
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if !lookAheadSet {
		cfg.LookAhead = true
	}
	return newMech(cfg), nil
}

// NewPlain builds the mechanism with look-ahead disabled (the ablation
// baseline: plain first-order random walk).
func NewPlain(cfg Config) (*Mechanism, error) {
	cfg.LookAhead = false
	cfgd, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfgd.LookAhead = false
	return newMech(cfgd), nil
}

// SetComputeShards implements reputation.ComputeSharder: Compute's SpMV
// scatters over k workers. Shards are a scheduling knob only — scores stay
// bit-for-bit identical for every k.
func (m *Mechanism) SetComputeShards(k int) {
	if k < 1 {
		k = 1
	}
	m.workers = k
}

var _ reputation.ComputeSharder = (*Mechanism)(nil)

// SetSpMVDelegate implements reputation.SpMVDelegator: route the walk's
// inner SpMV through fn (nil restores the local kernel). The delegate must
// be bit-exact per the reputation.SpMVDelegate contract.
func (m *Mechanism) SetSpMVDelegate(fn reputation.SpMVDelegate) { m.spmv = fn }

// SpMVBlocks implements reputation.BlockScatterer.
func (m *Mechanism) SpMVBlocks() int { return linalg.BlockCount(m.cfg.N) }

// SpMVScatterBlocks implements reputation.BlockScatterer: refresh any dirty
// CSR rows, then scatter blocks [lob, hib) of Rᵀx.
func (m *Mechanism) SpMVScatterBlocks(x []float64, lob, hib int) ([][]float64, []float64) {
	m.refreshMatrix()
	return m.csr.ScatterBlocks(x, lob, hib, &m.ws)
}

var (
	_ reputation.SpMVDelegator  = (*Mechanism)(nil)
	_ reputation.BlockScatterer = (*Mechanism)(nil)
)

// Name implements reputation.Mechanism.
func (m *Mechanism) Name() string {
	if m.cfg.LookAhead {
		return "powertrust"
	}
	return "powertrust-plain"
}

// Submit implements reputation.Mechanism.
func (m *Mechanism) Submit(r reputation.Report) error {
	if r.Rater < 0 || r.Rater >= m.cfg.N || r.Ratee < 0 || r.Ratee >= m.cfg.N {
		return fmt.Errorf("powertrust: report %d->%d out of range [0,%d)", r.Rater, r.Ratee, m.cfg.N)
	}
	if r.Rater == r.Ratee {
		return fmt.Errorf("powertrust: self-rating by %d rejected", r.Rater)
	}
	v := r.Value
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	if m.feedback[r.Rater] == nil {
		m.feedback[r.Rater] = make(map[int]*pair)
	}
	p := m.feedback[r.Rater][r.Ratee]
	if p == nil {
		p = &pair{}
		m.feedback[r.Rater][r.Ratee] = p
	}
	p.sum += v
	p.count++
	m.dirty = true
	m.dirtyRows[int32(r.Rater)] = struct{}{}
	return nil
}

// SubmitBatch implements reputation.BatchSubmitter: a whole round's reports
// fold in one call, reusing the rater's row map and dirty-row insert across
// consecutive reports by the same rater. The result is exactly that of
// calling Submit for each report in order; the first invalid report aborts
// the batch with the reports before it already folded.
func (m *Mechanism) SubmitBatch(rs []reputation.Report) error {
	lastRater := -1
	var row map[int]*pair
	for i := range rs {
		r := &rs[i]
		if r.Rater < 0 || r.Rater >= m.cfg.N || r.Ratee < 0 || r.Ratee >= m.cfg.N {
			return fmt.Errorf("powertrust: report %d->%d out of range [0,%d)", r.Rater, r.Ratee, m.cfg.N)
		}
		if r.Rater == r.Ratee {
			return fmt.Errorf("powertrust: self-rating by %d rejected", r.Rater)
		}
		v := r.Value
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		if r.Rater != lastRater {
			if m.feedback[r.Rater] == nil {
				m.feedback[r.Rater] = make(map[int]*pair)
			}
			row = m.feedback[r.Rater]
			m.dirtyRows[int32(r.Rater)] = struct{}{}
			lastRater = r.Rater
		}
		p := row[r.Ratee]
		if p == nil {
			p = &pair{}
			row[r.Ratee] = p
		}
		p.sum += v
		p.count++
		m.dirty = true
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
	uniform := 1 / float64(m.cfg.N)
	bootstrapped := true
	for _, s := range m.scores {
		if s > uniform*1.01 || s < uniform*0.99 {
			bootstrapped = false
			break
		}
	}
	if bootstrapped {
		clear(rank)
		for _, row := range m.feedback {
			for j, p := range row {
				rank[j] += p.sum / float64(p.count)
			}
		}
	} else {
		copy(rank, m.scores)
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

// TrustworthyFraction implements reputation.CommunityAssessor: the fraction
// of rated peers whose mean incoming rating is at least 0.5. The scan stays
// a full canonical recompute (incremental cross-peer float accumulators
// would make results depend on fold order), but the accumulation buffers
// are reused across calls.
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
	for _, row := range m.feedback {
		for j, p := range row {
			sums[j] += p.sum
			counts[j] += p.count
		}
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

var _ reputation.CommunityAssessor = (*Mechanism)(nil)

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

// refreshMatrix rematerializes the CSR rows of the row-normalized feedback
// matrix R (mean ratings) whose feedback changed since the last
// materialization — only the dirty set in steady state, every row after a
// snapshot restore. Rows whose ratings sum to zero are cleared: they are
// dangling, and the SpMV's rank-one correction jumps their weight uniformly
// instead of storing a dense uniform row. Materialization is a pure
// function of the row's current feedback, so the incremental matrix is
// bit-for-bit identical to a from-scratch rebuild.
func (m *Mechanism) refreshMatrix() {
	if m.materialized && len(m.dirtyRows) == 0 {
		return
	}
	setRow := func(i int) {
		cols, vals := m.colScratch[:0], m.valScratch[:0]
		for j := range m.feedback[i] {
			cols = append(cols, int32(j))
		}
		sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
		for _, j := range cols {
			p := m.feedback[i][int(j)]
			vals = append(vals, p.sum/float64(p.count))
		}
		m.colScratch, m.valScratch = cols, vals
		m.csr.SetRow(i, cols, vals)
		m.csr.NormalizeRow(i)
	}
	if !m.materialized {
		for i := 0; i < m.cfg.N; i++ {
			setRow(i)
		}
		m.materialized = true
	} else {
		rows := make([]int32, 0, len(m.dirtyRows))
		for i := range m.dirtyRows {
			rows = append(rows, i)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
		for _, i := range rows {
			setRow(int(i))
		}
	}
	clear(m.dirtyRows)
}

// step applies one walk operator application dst = (1−α)·(Rᵀsrc + mᵀ·u) + α·jump,
// with the dangling mass mᵀ jumping uniformly (u = 1/n).
func (m *Mechanism) step(dst, src []float64) {
	if m.spmv == nil || !m.spmv(dst, src, m.uniform) {
		m.csr.MulTranspose(dst, src, m.uniform, m.workers, &m.ws)
	}
	for j := range dst {
		dst[j] = (1-m.cfg.Alpha)*dst[j] + m.cfg.Alpha*m.jump[j]
	}
}

// refreshNorm rebuilds the max-normalized score cache behind ScoresView.
func (m *Mechanism) refreshNorm() {
	maxV := 0.0
	for _, v := range m.scores {
		if v > maxV {
			maxV = v
		}
	}
	m.normMax = maxV
	if maxV == 0 {
		for i := range m.norm {
			m.norm[i] = 0
		}
		return
	}
	for i, v := range m.scores {
		m.norm[i] = v / maxV
	}
}

// Compute elects power nodes and runs the (look-ahead) random walk until the
// L1 change drops below Epsilon. One look-ahead round applies the walk
// operator twice — each node aggregates its neighbors' own aggregated
// vectors, which is exactly one extra message exchange but halves the round
// count. Returns the number of rounds. By default the walk warm-starts from
// the previous stationary distribution (the first Compute starts uniform,
// which is what the scores are initialized to); Config.ColdStart restores
// the fixed uniform start. Epsilon is never loosened on warm starts. Only
// dirty CSR rows are rematerialized, the walk reuses the mechanism's
// buffers, and the SpMV scatters over the configured worker shards with a
// canonical fold, so the result is identical for every worker count.
func (m *Mechanism) Compute() int {
	if !m.dirty {
		return 0
	}
	n := m.cfg.N
	m.power = m.electPowerNodes()
	for j := range m.jump {
		m.jump[j] = 0
	}
	share := 1 / float64(len(m.power))
	for _, p := range m.power {
		m.jump[p] = share
	}
	m.refreshMatrix()
	t, next, mid := m.vecA, m.vecB, m.vecMid
	warm := !m.cfg.ColdStart
	if warm {
		copy(t, m.scores)
	} else {
		for i := range t {
			t[i] = 1 / float64(n)
		}
	}
	rounds := 0
	residual := 0.0
	for ; rounds < m.cfg.MaxIter; rounds++ {
		if m.cfg.LookAhead {
			m.step(mid, t)
			m.step(next, mid)
		} else {
			m.step(next, t)
		}
		diff := 0.0
		for j := 0; j < n; j++ {
			diff += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		residual = diff
		if diff < m.cfg.Epsilon {
			rounds++
			break
		}
	}
	copy(m.scores, t)
	m.vecA, m.vecB = t, next // keep the buffer pair owned by the mechanism
	m.refreshNorm()
	m.dirty = false
	m.lastConv = reputation.Convergence{Iterations: rounds, Residual: residual, Warm: warm}
	m.hasConv = true
	return rounds
}

// LastConvergence implements reputation.ConvergenceReporter.
func (m *Mechanism) LastConvergence() (reputation.Convergence, bool) {
	return m.lastConv, m.hasConv
}

var _ reputation.ConvergenceReporter = (*Mechanism)(nil)

// Raw returns the stationary distribution (sums to ~1).
func (m *Mechanism) Raw() []float64 {
	out := make([]float64, len(m.scores))
	copy(out, m.scores)
	return out
}

// Score implements reputation.Mechanism (max-normalized).
func (m *Mechanism) Score(peer int) float64 {
	if peer < 0 || peer >= len(m.scores) {
		return 0
	}
	if m.normMax == 0 {
		return 0
	}
	return m.scores[peer] / m.normMax
}

// Scores implements reputation.Mechanism.
func (m *Mechanism) Scores() []float64 {
	return append([]float64(nil), m.norm...)
}

// ScoresView implements reputation.ScoresViewer: the max-normalized scores
// without the copy. Read-only; valid until the next Compute or restore.
func (m *Mechanism) ScoresView() []float64 { return m.norm }

var _ reputation.ScoresViewer = (*Mechanism)(nil)
