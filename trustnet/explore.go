package trustnet

import (
	"context"
	"errors"
	"fmt"
)

// Setting is one point in the settable-configuration space of §4 / Fig. 2:
// how much information participants share (the privacy/reputation
// antagonism's driver), and how strictly privacy policies gate service via
// their minimal-trust clause.
type Setting struct {
	// Disclosure δ ∈ [0,1]: the quantity of shared information.
	Disclosure float64
	// TrustGate σ ∈ [0,1): the strictness of the policies' MinTrustLevel
	// clause (quantile form, see PrivacyPolicy.TrustGate).
	TrustGate float64
}

// Point is an evaluated setting.
type Point struct {
	Setting Setting
	// Global holds the measured global facets at this setting.
	Global Facets
	// Trust is the generic metric Φ applied to the global facets.
	Trust float64
}

// Constraints are minimum facet levels an application context imposes (§4:
// "maximize the users' trust towards the system while respecting the
// system/application constrains").
type Constraints struct {
	MinSatisfaction, MinReputation, MinPrivacy float64
}

// ErrInfeasible is returned by Optimize when no explored setting meets the
// constraints.
var ErrInfeasible = errors.New("trustnet: no setting satisfies the constraints")

// ExploreResult is the outcome of a grid exploration: the full grid, the
// "Area A" intersection region of Fig. 2 (left), and the best points.
type ExploreResult struct {
	// Points is the full grid, disclosure-major then gate.
	Points []Point
	// AreaA are the points whose facets all reach the thresholds — the
	// intersection region of Fig. 2 (left).
	AreaA []Point
	// Best is the maximum-trust point over the whole grid.
	Best Point
	// BestInAreaA is the maximum-trust point inside Area A (zero Point
	// when the area is empty).
	BestInAreaA Point
	// AreaFraction is |AreaA| / |Points|.
	AreaFraction float64
}

// ExploreConfig configures the §4 tradeoff explorer over a declarative
// Scenario.
type ExploreConfig struct {
	// Scenario is the base spec; its disclosure and trust-gate settings
	// are overridden per evaluated point, and its mechanism spec builds a
	// fresh mechanism for every point. Each point runs one epoch of
	// EpochRounds rounds (default 30 here, not the engine's 10) and
	// combines its facets under the scenario's Weights or Context. Fields
	// that only apply to a live engine's coupled dynamics (Coupled, Epochs,
	// Inertia, BaseHonesty, UserWeights, Schedule) are rejected:
	// exploration measures settings, not feedback.
	Scenario Scenario
	// GridSize is the number of points per axis (default 5; a value below
	// 2 is an error).
	GridSize int
	// Thresholds define Area A membership: a setting belongs to the
	// intersection area when every measured global facet reaches its
	// threshold (default 0.5 each).
	Thresholds Facets
}

// withDefaults validates the explorer knobs. Zero means "default";
// explicit nonpositive or degenerate values are configuration errors,
// never silently clamped.
func (cfg ExploreConfig) withDefaults() (ExploreConfig, error) {
	sc := cfg.Scenario
	var dropped []string
	if sc.Coupled {
		dropped = append(dropped, "Coupled")
	}
	if sc.Epochs != 0 {
		dropped = append(dropped, "Epochs")
	}
	if sc.Inertia != nil {
		dropped = append(dropped, "Inertia")
	}
	if sc.BaseHonesty != nil {
		dropped = append(dropped, "BaseHonesty")
	}
	if len(sc.UserWeights) > 0 {
		dropped = append(dropped, "UserWeights")
	}
	if len(sc.Schedule) > 0 {
		dropped = append(dropped, "Schedule")
	}
	if len(dropped) > 0 {
		return cfg, fmt.Errorf(
			"trustnet: explorer scenarios do not support %v; exploration measures settings, not coupled dynamics", dropped)
	}
	if sc.EpochRounds == 0 {
		cfg.Scenario.EpochRounds = 30
	}
	if cfg.GridSize < 0 || cfg.GridSize == 1 {
		return cfg, fmt.Errorf("trustnet: explore grid needs at least 2 points per axis, got %d", cfg.GridSize)
	}
	if cfg.GridSize == 0 {
		cfg.GridSize = 5
	}
	if cfg.Thresholds == (Facets{}) {
		cfg.Thresholds = Facets{Satisfaction: 0.5, Reputation: 0.5, Privacy: 0.5}
	}
	return cfg, nil
}

// pointScenario compiles the explorer config into the single-epoch base
// scenario its sweeps expand.
func (cfg ExploreConfig) pointScenario() Scenario {
	sc := cfg.Scenario.clone()
	sc.Epochs = 1
	return sc
}

// evaluatePoints measures the given settings as one sweep: a VaryTuples
// axis over (disclosure, trustgate), one run per setting, folded in input
// order — identical for every worker count.
func evaluatePoints(ctx context.Context, base Scenario, settings []Setting) ([]Point, error) {
	tuples := make([][]float64, len(settings))
	for i, s := range settings {
		if !(0 <= s.Disclosure && s.Disclosure <= 1 && 0 <= s.TrustGate && s.TrustGate < 1) {
			return nil, fmt.Errorf("trustnet: setting %+v out of range", s)
		}
		tuples[i] = []float64{s.Disclosure, s.TrustGate}
	}
	res, err := Experiment{
		Base: base,
		Axes: []Axis{VaryTuples([]string{"disclosure", "trustgate"}, tuples...)},
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(res.Cells))
	for i, c := range res.Cells {
		points[i] = Point{
			Setting: settings[i],
			Global:  c.Runs[0].Global,
			Trust:   c.Runs[0].Trust,
		}
	}
	return points, nil
}

// EvaluateSetting measures the global facets and trust of one setting by
// running a fresh scenario.
func EvaluateSetting(cfg ExploreConfig, s Setting) (Point, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Point{}, err
	}
	points, err := evaluatePoints(context.Background(), cfg.pointScenario(), []Setting{s})
	if err != nil {
		return Point{}, err
	}
	return points[0], nil
}

// Explore sweeps the (disclosure, trust-gate) grid and classifies Area A.
// The grid is literally a Sweep: a disclosure axis × a trust-gate axis over
// the point scenario, each cell building a fresh mechanism via the spec's
// factory, executed on the bounded worker pool (the scenario's Workers
// field caps it; default GOMAXPROCS) and folded in grid order so the
// outcome is identical for every pool size. ctx cancels between
// evaluations.
func Explore(ctx context.Context, cfg ExploreConfig) (*ExploreResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := cfg.GridSize
	settings := make([]Setting, 0, g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			settings = append(settings, Setting{
				Disclosure: float64(i) / float64(g-1),
				TrustGate:  0.9 * float64(j) / float64(g-1),
			})
		}
	}
	points, err := evaluatePoints(ctx, cfg.pointScenario(), settings)
	if err != nil {
		return nil, err
	}
	res := &ExploreResult{Points: points}
	for _, p := range points {
		if p.Trust > res.Best.Trust {
			res.Best = p
		}
		if inArea(p.Global, cfg.Thresholds) {
			res.AreaA = append(res.AreaA, p)
			if p.Trust > res.BestInAreaA.Trust {
				res.BestInAreaA = p
			}
		}
	}
	if len(res.Points) > 0 {
		res.AreaFraction = float64(len(res.AreaA)) / float64(len(res.Points))
	}
	return res, nil
}

func inArea(f, thresholds Facets) bool {
	return f.Satisfaction >= thresholds.Satisfaction &&
		f.Reputation >= thresholds.Reputation &&
		f.Privacy >= thresholds.Privacy
}

// Optimize finds the maximum-trust setting subject to constraints: a
// coarse grid sweep followed by hill-climbing refinement around the best
// feasible point. Each neighbour batch is itself a small sweep, evaluated
// concurrently and folded in fixed direction order — deterministic for
// every pool size — honouring ctx between evaluations.
func Optimize(ctx context.Context, cfg ExploreConfig, cons Constraints) (Point, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Point{}, err
	}
	res, err := Explore(ctx, cfg)
	if err != nil {
		return Point{}, err
	}
	satisfied := func(f Facets) bool {
		return f.Satisfaction >= cons.MinSatisfaction &&
			f.Reputation >= cons.MinReputation &&
			f.Privacy >= cons.MinPrivacy
	}
	best := Point{Trust: -1}
	for _, p := range res.Points {
		if satisfied(p.Global) && p.Trust > best.Trust {
			best = p
		}
	}
	if best.Trust < 0 {
		return Point{}, ErrInfeasible
	}
	base := cfg.pointScenario()
	step := 1.0 / float64(cfg.GridSize-1)
	for iter := 0; iter < 4; iter++ {
		var batch []Setting
		for _, d := range [][2]float64{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
			s := Setting{
				Disclosure: clampTo(best.Setting.Disclosure+d[0], 0, 1),
				TrustGate:  clampTo(best.Setting.TrustGate+d[1], 0, 0.9),
			}
			if s == best.Setting {
				continue
			}
			batch = append(batch, s)
		}
		points, err := evaluatePoints(ctx, base, batch)
		if err != nil {
			return Point{}, err
		}
		improved := false
		for _, p := range points {
			if satisfied(p.Global) && p.Trust > best.Trust {
				best = p
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	return best, nil
}

func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
