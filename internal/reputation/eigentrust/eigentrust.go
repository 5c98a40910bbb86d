// Package eigentrust implements the EigenTrust algorithm (Kamvar, Schlosser,
// Garcia-Molina, WWW 2003), the first reputation baseline the paper cites:
// a PageRank-like global reputation computed as the principal eigenvector of
// the normalized local-trust matrix, damped toward a pre-trusted peer set.
package eigentrust

import (
	"fmt"
	"math"

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
	if !(0 <= c.Alpha && c.Alpha <= 1) {
		return c, fmt.Errorf("eigentrust: alpha %v out of [0,1]", c.Alpha)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-6
	}
	if !(0 < c.Epsilon && c.Epsilon <= math.MaxFloat64) {
		return c, fmt.Errorf("eigentrust: epsilon %v is not a finite positive number", c.Epsilon)
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.MaxIter < 0 {
		return c, fmt.Errorf("eigentrust: max iterations %d is negative", c.MaxIter)
	}
	return c, nil
}

// Mechanism is the EigenTrust scoring engine: the shared power-iteration
// Solver over the normalized local-trust matrix C, fed by LocalTrust, with
// the pretrust vector as both the dangling-row and the teleport
// distribution.
type Mechanism struct {
	*reputation.Solver
	cfg Config //trustlint:derived configuration, identical by construction on restore
	lt  *reputation.LocalTrust
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
	lt := reputation.NewLocalTrust(cfg.N)
	return &Mechanism{
		Solver: reputation.NewSolver(lt, pretrust, pretrust, cfg.Alpha, cfg.Epsilon, cfg.MaxIter, cfg.ColdStart),
		cfg:    cfg,
		lt:     lt,
	}, nil
}

// Name implements reputation.Mechanism.
func (*Mechanism) Name() string { return "eigentrust" }

// LocalTrust exposes the accumulated matrix (read-only use).
func (m *Mechanism) LocalTrust() *reputation.LocalTrust { return m.lt }

// TrustworthyFraction implements reputation.Mechanism: the fraction of
// rated peers with net-positive incoming local trust.
func (m *Mechanism) TrustworthyFraction() float64 {
	return m.lt.NetPositiveFraction()
}

// Whitewash models a peer abandoning its identity and rejoining fresh: all
// local trust involving it is erased. Under EigenTrust a fresh identity has
// no incoming trust, so its global score collapses to its pre-trust share —
// whitewashing does not launder a bad EigenTrust reputation upward (the
// zero-default punishes newcomers).
func (m *Mechanism) Whitewash(peer int) {
	m.lt.ResetPeer(peer)
	m.MarkDirty()
}

// Submit implements reputation.Mechanism.
func (m *Mechanism) Submit(r reputation.Report) error {
	if err := m.lt.Add(r); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	m.MarkDirty()
	return nil
}

// SubmitBatch implements reputation.BatchSubmitter: a whole round's reports
// fold through LocalTrust.AddBatch, with the solver marked dirty once.
func (m *Mechanism) SubmitBatch(rs []reputation.Report) error {
	if len(rs) == 0 {
		return nil
	}
	m.MarkDirty() // partial folds before an error still count
	if err := m.lt.AddBatch(rs); err != nil {
		return fmt.Errorf("eigentrust: %w", err)
	}
	return nil
}

var _ reputation.BatchSubmitter = (*Mechanism)(nil)

// Compute runs the power iteration t ← (1−α)·(Cᵀt + mᵀ·p) + α·p, where p
// is the pretrust vector and m the trust mass on dangling rows, until the
// L1 change drops below Epsilon, and returns the number of iterations (see
// reputation.Solver.Solve). The first Compute starts from pretrust, which
// is what the scores are initialized to; later ones warm-start from the
// previous fixed point unless Config.ColdStart is set.
func (m *Mechanism) Compute() int { return m.Solve(false) }
