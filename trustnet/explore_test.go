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
	base := Scenario{Peers: 20, Seed: 1}
	cases := []struct {
		name    string
		cfg     ExploreConfig
		wantErr string
	}{
		{"negative rounds", ExploreConfig{Scenario: base, Rounds: -1, GridSize: 2}, "rounds"},
		{"grid of one", ExploreConfig{Scenario: base, Rounds: 3, GridSize: 1}, "grid"},
		{"negative grid", ExploreConfig{Scenario: base, Rounds: 3, GridSize: -2}, "grid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Explore(context.Background(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
	// Zero-valued knobs still resolve to the documented defaults.
	if _, err := EvaluateSetting(ExploreConfig{Scenario: Scenario{Peers: 12, Seed: 1, EpochRounds: 0}, Rounds: 2}, Setting{Disclosure: 0.5}); err != nil {
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
	}
}

// TestExploreAreaA: every Area A member meets the thresholds, the area
// fraction is consistent, and the constrained best never beats the global
// best.
func TestExploreAreaA(t *testing.T) {
	cfg := ExploreConfig{
		Scenario:   exploreScenario(),
		Rounds:     20,
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
	cfg := ExploreConfig{Scenario: exploreScenario(), Rounds: 20, GridSize: 3}
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
		cfg := ExploreConfig{
			Scenario: exploreScenario(),
			Rounds:   20,
			GridSize: 3,
			Weights:  ContextWeights(ctx),
		}
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
	cfg := ExploreConfig{Scenario: exploreScenario(), Rounds: 20}
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
	cfg := ExploreConfig{Scenario: exploreScenario(), Rounds: 20}
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
