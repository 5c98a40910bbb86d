// Package eigentrust implements the EigenTrust algorithm (Kamvar, Schlosser,
// Garcia-Molina, WWW 2003), the first reputation baseline the paper cites:
// a PageRank-like global reputation computed as the principal eigenvector of
// the normalized local-trust matrix, damped toward a pre-trusted peer set.
package eigentrust

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/overlay"
	"repro/internal/reputation"
)

// Config parameterizes the mechanism.
type Config struct {
	// N is the number of peers.
	N int
	// Alpha is the pre-trust blending weight (the paper's a), default 0.15.
	Alpha float64
	// Pretrusted lists the pre-trusted peer ids; empty means uniform
	// pre-trust. Ids must be in range and duplicate-free (New rejects
	// degenerate sets).
	Pretrusted []int
	// Epsilon is the L1 convergence threshold, default 1e-6.
	Epsilon float64
	// MaxIter bounds the power iteration, default 200.
	MaxIter int
	// ColdStart restarts every power iteration from the pretrust vector
	// instead of warm-starting from the previous fixed point. The fixed
	// point is unique for alpha > 0, so both starts converge to the same
	// scores within Epsilon; warm starts just take fewer iterations on
	// incremental recomputes. Cold starts reproduce the historical
	// iteration-for-iteration trajectory (useful for bitwise regression
	// baselines).
	ColdStart bool
}

func (c Config) withDefaults() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("eigentrust: N must be positive, got %d", c.N)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.15
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("eigentrust: alpha %v out of [0,1]", c.Alpha)
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-6
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	return c, nil
}

// Mechanism is the EigenTrust scoring engine. The normalized local-trust
// matrix C lives in a CSR whose rows are rematerialized incrementally from
// the LocalTrust dirty set, and the power iteration runs the shared sparse
// kernel: shard-parallel SpMV with a rank-one pretrust correction for
// dangling rows, on buffers reused across computes (zero steady-state
// allocation). Scores are bit-for-bit identical for every worker count.
type Mechanism struct {
	cfg      Config //trustlint:derived configuration, identical by construction on restore
	lt       *reputation.LocalTrust
	pretrust []float64 //trustlint:derived configuration, rebuilt by New from cfg.Pretrusted
	scores   []float64 // global trust distribution (sums to 1)
	dirty    bool

	// Sparse kernel state.
	csr          *linalg.CSR      //trustlint:derived rematerialized from the local-trust matrix on first Compute after restore
	ws           linalg.Workspace //trustlint:derived scratch, contents never outlive one Compute
	workers      int              //trustlint:derived configuration (SetWorkers), not part of the deterministic state
	materialized bool             //trustlint:derived cleared by restore to force a full CSR rebuild
	// Reusable iteration and materialization scratch.
	vecA, vecB []float64 //trustlint:derived scratch, contents never outlive one Compute
	colScratch []int32   //trustlint:derived scratch, contents never outlive one Compute
	valScratch []float64 //trustlint:derived scratch, contents never outlive one Compute
	// Max-normalized score cache backing ScoresView.
	norm    []float64 //trustlint:derived cache, recomputed from scores by refreshNorm on restore
	normMax float64   //trustlint:derived cache, recomputed from scores by refreshNorm on restore
	// spmv, when set, computes the power iteration's inner product remotely
	// (the cluster layer); nil or a false return runs the local kernel.
	spmv reputation.SpMVDelegate //trustlint:derived cluster-layer hook, re-attached by the owner after restore; bit-exact by contract
	// Diagnostics of the most recent Compute that ran iterations.
	lastConv reputation.Convergence
	hasConv  bool
}

var _ reputation.Mechanism = (*Mechanism)(nil)

// New builds the mechanism.
func New(cfg Config) (*Mechanism, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pretrust := reputation.UniformPretrust(cfg.N)
	if len(cfg.Pretrusted) > 0 {
		if pretrust, err = reputation.PretrustOver(cfg.N, cfg.Pretrusted); err != nil {
			return nil, fmt.Errorf("eigentrust: %w", err)
		}
	}
	m := &Mechanism{
		cfg:          cfg,
		lt:           reputation.NewLocalTrust(cfg.N),
		pretrust:     pretrust,
		csr:          linalg.New(cfg.N),
		workers:      1,
		materialized: true, // a fresh CSR matches the empty matrix
		vecA:         make([]float64, cfg.N),
		vecB:         make([]float64, cfg.N),
		norm:         make([]float64, cfg.N),
	}
	m.scores = append([]float64(nil), m.pretrust...)
	m.refreshNorm()
	return m, nil
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

// SetSpMVDelegate implements reputation.SpMVDelegator: Compute's inner
// product routes through fn (nil restores the local kernel). The delegate is
// bit-exact by contract, so delegated and local computes produce identical
// scores.
func (m *Mechanism) SetSpMVDelegate(fn reputation.SpMVDelegate) { m.spmv = fn }

// SpMVBlocks implements reputation.BlockScatterer.
func (m *Mechanism) SpMVBlocks() int { return linalg.BlockCount(m.cfg.N) }

// SpMVScatterBlocks implements reputation.BlockScatterer: it rematerializes
// any dirty rows, then computes the canonical block partials for
// y = Cᵀx. Because row materialization is a pure function of the current
// local trust, a replica that folded the same reports returns bit-identical
// partials.
func (m *Mechanism) SpMVScatterBlocks(x []float64, lob, hib int) ([][]float64, []float64) {
	m.refreshMatrix()
	return m.csr.ScatterBlocks(x, lob, hib, &m.ws)
}

var (
	_ reputation.SpMVDelegator  = (*Mechanism)(nil)
	_ reputation.BlockScatterer = (*Mechanism)(nil)
)

// Name implements reputation.Mechanism.
func (*Mechanism) Name() string { return "eigentrust" }

// LocalTrust exposes the accumulated matrix (read-only use).
func (m *Mechanism) LocalTrust() *reputation.LocalTrust { return m.lt }

// TrustworthyFraction implements reputation.CommunityAssessor: the fraction
// of rated peers with net-positive incoming local trust.
func (m *Mechanism) TrustworthyFraction() float64 {
	return m.lt.NetPositiveFraction()
}

var _ reputation.CommunityAssessor = (*Mechanism)(nil)

// Whitewash models a peer abandoning its identity and rejoining fresh: all
// local trust involving it is erased. Under EigenTrust a fresh identity has
// no incoming trust, so its global score collapses to its pre-trust share —
// whitewashing does not launder a bad EigenTrust reputation upward (the
// zero-default punishes newcomers).
func (m *Mechanism) Whitewash(peer int) {
	m.lt.ResetPeer(peer)
	m.dirty = true
}

// Submit implements reputation.Mechanism.
func (m *Mechanism) Submit(r reputation.Report) error {
	if err := m.lt.Add(r); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	m.dirty = true
	return nil
}

// SubmitBatch implements reputation.BatchSubmitter: a whole round's reports
// fold through LocalTrust.AddBatch, touching each dirty row once instead of
// per report.
func (m *Mechanism) SubmitBatch(rs []reputation.Report) error {
	if len(rs) == 0 {
		return nil
	}
	if err := m.lt.AddBatch(rs); err != nil {
		m.dirty = true // partial folds before the error still count
		return fmt.Errorf("eigentrust: %w", err)
	}
	m.dirty = true
	return nil
}

var _ reputation.BatchSubmitter = (*Mechanism)(nil)

// refreshMatrix rematerializes the CSR rows whose local trust changed since
// the last materialization — only the dirty set in steady state, every row
// after a snapshot restore. Row materialization is a pure function of the
// row's current local trust, so an incrementally maintained matrix is
// bit-for-bit identical to one rebuilt from scratch.
func (m *Mechanism) refreshMatrix() {
	if m.materialized && !m.lt.HasDirty() {
		return
	}
	setRow := func(i int) {
		m.colScratch, m.valScratch = m.lt.AppendRow(i, m.colScratch[:0], m.valScratch[:0])
		m.csr.SetRow(i, m.colScratch, m.valScratch)
		m.csr.NormalizeRow(i)
	}
	if !m.materialized {
		for i := 0; i < m.cfg.N; i++ {
			setRow(i)
		}
		m.materialized = true
	} else {
		for _, i := range m.lt.DirtyRows() {
			setRow(i)
		}
	}
	m.lt.ClearDirty()
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

// Compute runs the power iteration t ← (1−α)·(Cᵀt + mᵀ·p) + α·p — where m
// is the trust mass on dangling rows, folded in by the kernel's rank-one
// correction instead of a dense pretrust fill — until the L1 change drops
// below Epsilon, returning the number of iterations performed. By default
// the iteration warm-starts from the previous fixed point (the first
// Compute starts from pretrust, which is what the scores are initialized
// to), so an incremental recompute pays only as many iterations as the
// matrix actually moved; Config.ColdStart restores the fixed pretrust
// start. Epsilon is never loosened on warm starts — the stopping contract
// is identical either way. Only dirty CSR rows are rematerialized, the
// iteration reuses the mechanism's buffers, and the SpMV scatters over the
// configured worker shards with a canonical fold, so the result is
// identical for every worker count.
func (m *Mechanism) Compute() int {
	if !m.dirty {
		return 0
	}
	n := m.cfg.N
	m.refreshMatrix()
	t, next := m.vecA, m.vecB
	warm := !m.cfg.ColdStart
	if warm {
		copy(t, m.scores)
	} else {
		copy(t, m.pretrust)
	}
	iters := 0
	residual := 0.0
	for ; iters < m.cfg.MaxIter; iters++ {
		if m.spmv == nil || !m.spmv(next, t, m.pretrust) {
			m.csr.MulTranspose(next, t, m.pretrust, m.workers, &m.ws)
		}
		diff := 0.0
		for j := 0; j < n; j++ {
			next[j] = (1-m.cfg.Alpha)*next[j] + m.cfg.Alpha*m.pretrust[j]
			diff += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		residual = diff
		if diff < m.cfg.Epsilon {
			iters++
			break
		}
	}
	copy(m.scores, t)
	m.vecA, m.vecB = t, next // keep the buffer pair owned by the mechanism
	m.refreshNorm()
	m.dirty = false
	m.lastConv = reputation.Convergence{Iterations: iters, Residual: residual, Warm: warm}
	m.hasConv = true
	return iters
}

// LastConvergence implements reputation.ConvergenceReporter.
func (m *Mechanism) LastConvergence() (reputation.Convergence, bool) {
	return m.lastConv, m.hasConv
}

var _ reputation.ConvergenceReporter = (*Mechanism)(nil)

// Raw returns the global trust distribution (sums to 1).
func (m *Mechanism) Raw() []float64 {
	out := make([]float64, len(m.scores))
	copy(out, m.scores)
	return out
}

// Score implements reputation.Mechanism: the peer's global trust normalized
// by the maximum, so the best peer scores 1.
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

// DistributedResult reports the cost of a distributed computation.
type DistributedResult struct {
	Rounds   int
	Messages int64
	// MaxDiff is the final L1 distance to the centralized fixed point.
	MaxDiff float64
}

// RunDistributed executes the secure-free distributed EigenTrust iteration
// over the overlay: in each round every live peer i sends c_ij·t_i to every
// peer j it has an opinion about, and each receiver folds contributions into
// its next trust value. It runs until convergence or maxRounds, then leaves
// the distributed scores installed in the mechanism.
//
// This exercises the same message pattern as the published distributed
// algorithm (without the secure score-manager layer, which TrustMe's DHT
// variant covers) and lets experiments charge real message costs.
func (m *Mechanism) RunDistributed(net *overlay.Network, maxRounds int) (DistributedResult, error) {
	if net.Size() < m.cfg.N {
		return DistributedResult{}, fmt.Errorf("eigentrust: overlay has %d nodes, need %d", net.Size(), m.cfg.N)
	}
	if maxRounds <= 0 {
		maxRounds = m.cfg.MaxIter
	}
	n := m.cfg.N
	// Sync the sparse matrix; peers with no positive opinions follow the
	// pretrust distribution (the paper's dangling-row rule), iterated on
	// the fly instead of materialized as dense rows.
	m.refreshMatrix()
	t := append([]float64(nil), m.pretrust...)
	accum := make([]float64, n)

	type contrib struct{ value float64 }
	var res DistributedResult
	startMsgs := net.Stats().Sent

	for round := 0; round < maxRounds; round++ {
		for j := range accum {
			accum[j] = 0
		}
		// Install handlers that accumulate contributions this round.
		for j := 0; j < n; j++ {
			j := j
			if err := net.SetHandler(overlay.NodeID(j), func(msg overlay.Message) {
				if c, ok := msg.Payload.(contrib); ok {
					accum[j] += c.value
				}
			}); err != nil {
				return res, err
			}
		}
		for i := 0; i < n; i++ {
			if !net.Alive(overlay.NodeID(i)) || t[i] <= 0 {
				continue
			}
			if m.csr.RowEmpty(i) {
				for j, c := range m.pretrust {
					if c > 0 {
						net.Send(overlay.NodeID(i), overlay.NodeID(j), "et-contrib", contrib{value: c * t[i]})
					}
				}
				continue
			}
			cols, vals := m.csr.Row(i)
			for k, j := range cols {
				if vals[k] > 0 {
					net.Send(overlay.NodeID(i), overlay.NodeID(int(j)), "et-contrib", contrib{value: vals[k] * t[i]})
				}
			}
		}
		// Deliver this round's messages.
		if err := net.Sim().Run(0); err != nil {
			return res, err
		}
		diff := 0.0
		for j := 0; j < n; j++ {
			nv := (1-m.cfg.Alpha)*accum[j] + m.cfg.Alpha*m.pretrust[j]
			diff += math.Abs(nv - t[j])
			t[j] = nv
		}
		res.Rounds++
		if diff < m.cfg.Epsilon {
			break
		}
	}
	res.Messages = net.Stats().Sent - startMsgs

	// Compare against the centralized fixed point.
	m.dirty = true
	m.Compute()
	for j := 0; j < n; j++ {
		res.MaxDiff += math.Abs(t[j] - m.scores[j])
	}
	copy(m.scores, t)
	m.refreshNorm()
	return res, nil
}
