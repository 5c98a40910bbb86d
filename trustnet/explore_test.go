package trustnet

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestExploreConfigValidation: explicit nonpositive knobs error instead of
// being silently clamped to defaults; zero still means "default".
func TestExploreConfigValidation(t *testing.T) {
	base := Scenario{Peers: 20, Seed: 1, EpochRounds: 3}
	cases := []struct {
		name    string
		cfg     ExploreConfig
		wantErr string
	}{
		{"negative rounds", ExploreConfig{Scenario: Scenario{Peers: 20, Seed: 1, EpochRounds: -1}, GridSize: 2}, "epoch rounds"},
		{"grid of one", ExploreConfig{Scenario: base, GridSize: 1}, "grid"},
		{"negative grid", ExploreConfig{Scenario: base, GridSize: -2}, "grid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Explore(context.Background(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
	// Zero-valued knobs still resolve to the documented defaults.
	if _, err := EvaluateSetting(ExploreConfig{Scenario: Scenario{Peers: 12, Seed: 1}}, Setting{Disclosure: 0.5}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func exploreScenario() Scenario {
	return Scenario{
		Peers:          30,
		Seed:           7,
		Mix:            &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}},
		Mechanism:      MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}},
		RecomputeEvery: 2,
		EpochRounds:    20,
	}
}

// TestExploreAreaA: every Area A member meets the thresholds, the area
// fraction is consistent, and the constrained best never beats the global
// best.
func TestExploreAreaA(t *testing.T) {
	cfg := ExploreConfig{
		Scenario:   exploreScenario(),
		GridSize:   3,
		Thresholds: Facets{Satisfaction: 0.3, Reputation: 0.3, Privacy: 0.1},
	}
	res, err := Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("grid size = %d", len(res.Points))
	}
	if len(res.AreaA) == 0 {
		t.Fatal("Area A empty with generous thresholds")
	}
	if res.AreaFraction <= 0 || res.AreaFraction > 1 {
		t.Fatalf("area fraction = %v", res.AreaFraction)
	}
	for _, p := range res.AreaA {
		if p.Global.Satisfaction < 0.3 || p.Global.Reputation < 0.3 || p.Global.Privacy < 0.1 {
			t.Fatalf("non-member in Area A: %+v", p)
		}
	}
	if res.BestInAreaA.Trust > res.Best.Trust {
		t.Fatal("area-constrained best exceeds global best")
	}
}

// TestOptimizeRespectsConstraints: the optimum satisfies the constraints,
// and relaxing them never hurts.
func TestOptimizeRespectsConstraints(t *testing.T) {
	cfg := ExploreConfig{Scenario: exploreScenario(), GridSize: 3}
	p, err := Optimize(context.Background(), cfg, Constraints{MinPrivacy: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Global.Privacy < 0.5 {
		t.Fatalf("optimizer violated privacy constraint: %+v", p)
	}
	free, err := Optimize(context.Background(), cfg, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if free.Trust < p.Trust-1e-9 {
		t.Fatalf("unconstrained optimum %v below constrained %v", free.Trust, p.Trust)
	}
}

// TestDifferentContextsDifferentOptima: §4 / E10 — the max-trust setting
// depends on the applicative context (privacy-critical must not disclose
// more than performance-critical; weak inequality, grids are coarse).
func TestDifferentContextsDifferentOptima(t *testing.T) {
	optimize := func(ctx AppContext) Point {
		w := ContextWeights(ctx)
		sc := exploreScenario()
		sc.Weights = &w
		cfg := ExploreConfig{Scenario: sc, GridSize: 3}
		p, err := Optimize(context.Background(), cfg, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pPriv := optimize(PrivacyCritical)
	pPerf := optimize(PerformanceCritical)
	if pPriv.Setting.Disclosure > pPerf.Setting.Disclosure {
		t.Fatalf("privacy-critical context disclosed more (%v) than performance-critical (%v)",
			pPriv.Setting.Disclosure, pPerf.Setting.Disclosure)
	}
}

func TestEvaluateSettingBounds(t *testing.T) {
	cfg := ExploreConfig{Scenario: exploreScenario()}
	if _, err := EvaluateSetting(cfg, Setting{Disclosure: -0.1}); err == nil {
		t.Fatal("negative disclosure accepted")
	}
	if _, err := EvaluateSetting(cfg, Setting{TrustGate: 1}); err == nil {
		t.Fatal("gate=1 accepted")
	}
	// The setting check itself refuses NaN, before any run is built.
	for _, s := range []Setting{{Disclosure: math.NaN()}, {Disclosure: 0.5, TrustGate: math.NaN()}} {
		if _, err := EvaluateSetting(cfg, s); err == nil || !strings.Contains(err.Error(), "setting") {
			t.Fatalf("EvaluateSetting(%+v) = %v, want a setting range error", s, err)
		}
	}
	p, err := EvaluateSetting(cfg, Setting{Disclosure: 0.8, TrustGate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Global.Valid() || p.Trust < 0 || p.Trust > 1 {
		t.Fatalf("point = %+v", p)
	}
}

func TestDisclosureAntinomy(t *testing.T) {
	// Figure 2 right: less shared information => higher privacy facet but
	// lower reputation power; full disclosure reverses both.
	cfg := ExploreConfig{Scenario: exploreScenario()}
	low, err := EvaluateSetting(cfg, Setting{Disclosure: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	high, err := EvaluateSetting(cfg, Setting{Disclosure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if low.Global.Privacy <= high.Global.Privacy {
		t.Fatalf("privacy not higher at low disclosure: %v vs %v",
			low.Global.Privacy, high.Global.Privacy)
	}
	if low.Global.Reputation >= high.Global.Reputation {
		t.Fatalf("reputation power not higher at full disclosure: %v vs %v",
			low.Global.Reputation, high.Global.Reputation)
	}
}

// TestExploreReadsItsScenario: a point runs the scenario's EpochRounds
// (default 30) and combines under its Weights or Context. The pinned
// values are what the explorer gave when rounds and weights were
// ExploreConfig fields of their own (Rounds 7, and Weights left zero or
// set to the privacy context's), so moving them into the Scenario moved
// no bit.
func TestExploreReadsItsScenario(t *testing.T) {
	sc := exploreScenario()
	sc.EpochRounds = 7
	rounds := 0
	res, err := Experiment{
		Base:   sc,
		Axes:   []Axis{VaryTuples([]string{"disclosure", "trustgate"}, []float64{0.5, 0.2})},
		Epochs: 1,
		Observe: func(eng *Engine) map[string]float64 {
			rounds = eng.Summary().Rounds
			return nil
		},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 7 {
		t.Fatalf("a 7-round scenario ran %d rounds", rounds)
	}
	wantGlobal := Facets{Satisfaction: 0.7563444108921041, Reputation: 0.5091811775571101, Privacy: 0.9624922776367306}
	if g := res.Cells[0].Runs[0].Global; g != wantGlobal {
		t.Fatalf("7-round run measured %+v, want %+v", g, wantGlobal)
	}

	w := ContextWeights(PrivacyCritical)
	byWeights, byContext := sc, sc
	byWeights.Weights = &w
	byContext.Context = "privacy"
	for _, tc := range []struct {
		name      string
		sc        Scenario
		wantTrust float64
	}{
		{"default weights", sc, 0.718339473901221},
		{"weights", byWeights, 0.8499836327541714},
		{"context", byContext, 0.8499836327541714},
	} {
		p, err := EvaluateSetting(ExploreConfig{Scenario: tc.sc}, Setting{Disclosure: 0.5, TrustGate: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if p.Global != wantGlobal || p.Trust != tc.wantTrust {
			t.Fatalf("%s: point %+v trust %v, want %+v trust %v", tc.name, p.Global, p.Trust, wantGlobal, tc.wantTrust)
		}
	}
}
