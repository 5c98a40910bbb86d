package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCombineBasics(t *testing.T) {
	w := DefaultWeights()
	v, err := Combine(Facets{1, 1, 1}, w)
	if err != nil || v != 1 {
		t.Fatalf("Combine(1,1,1) = %v, %v", v, err)
	}
	v, err = Combine(Facets{0.5, 0.5, 0.5}, w)
	if err != nil || math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("Combine(0.5s) = %v", v)
	}
}

func TestCombineZeroFacetZeroesTrust(t *testing.T) {
	// The antinomic design: a collapsed facet cannot be traded away.
	w := DefaultWeights()
	for _, f := range []Facets{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		v, err := Combine(f, w)
		if err != nil || v != 0 {
			t.Fatalf("Combine(%+v) = %v, want 0", f, v)
		}
	}
	// The arithmetic ablation does allow compensation.
	v, err := CombineArithmetic(Facets{0, 1, 1}, w)
	if err != nil || v <= 0.5 {
		t.Fatalf("arithmetic ablation = %v, want 2/3", v)
	}
}

func TestCombineZeroWeightIgnoresFacet(t *testing.T) {
	w := Weights{Satisfaction: 1, Reputation: 1, Privacy: 0}
	v, err := Combine(Facets{0.8, 0.8, 0}, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.8) > 1e-12 {
		t.Fatalf("zero-weighted collapsed facet changed trust: %v", v)
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := Combine(Facets{0.5, 0.5, 0.5}, Weights{}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := Combine(Facets{0.5, 0.5, 0.5}, Weights{-1, 1, 1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := Combine(Facets{1.5, 0.5, 0.5}, DefaultWeights()); err == nil {
		t.Fatal("facet > 1 accepted")
	}
	if _, err := CombineArithmetic(Facets{-0.1, 0.5, 0.5}, DefaultWeights()); err == nil {
		t.Fatal("arithmetic accepted facet < 0")
	}
}

func TestCombineMonotoneInEachFacet(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		base := Facets{
			Satisfaction: 0.1 + 0.8*float64(a)/255,
			Reputation:   0.1 + 0.8*float64(b)/255,
			Privacy:      0.1 + 0.8*float64(c)/255,
		}
		bump := 0.01 + 0.1*float64(d)/255
		w := DefaultWeights()
		v0, err := Combine(base, w)
		if err != nil {
			return false
		}
		for _, improved := range []Facets{
			{clamp(base.Satisfaction + bump), base.Reputation, base.Privacy},
			{base.Satisfaction, clamp(base.Reputation + bump), base.Privacy},
			{base.Satisfaction, base.Reputation, clamp(base.Privacy + bump)},
		} {
			v1, err := Combine(improved, w)
			if err != nil || v1 < v0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func clamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

func TestCombineGeometricBelowArithmetic(t *testing.T) {
	// AM-GM: the geometric metric is always <= the arithmetic one —
	// unbalanced facet profiles are penalized.
	f := func(a, b, c uint8) bool {
		fc := Facets{
			Satisfaction: float64(a)/255*0.99 + 0.005,
			Reputation:   float64(b)/255*0.99 + 0.005,
			Privacy:      float64(c)/255*0.99 + 0.005,
		}
		g, err1 := Combine(fc, DefaultWeights())
		ar, err2 := CombineArithmetic(fc, DefaultWeights())
		return err1 == nil && err2 == nil && g <= ar+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestContextWeights(t *testing.T) {
	pc := ContextWeights(PrivacyCritical)
	if pc.Privacy <= pc.Satisfaction || pc.Privacy <= pc.Reputation {
		t.Fatalf("privacy-critical weights = %+v", pc)
	}
	perf := ContextWeights(PerformanceCritical)
	if perf.Satisfaction <= perf.Privacy {
		t.Fatalf("performance-critical weights = %+v", perf)
	}
	if ContextWeights(Balanced) != DefaultWeights() {
		t.Fatal("balanced != default")
	}
	mk := ContextWeights(MarketplaceContext)
	if mk.Reputation <= mk.Satisfaction {
		t.Fatalf("marketplace weights = %+v", mk)
	}
	for _, c := range []Context{Balanced, PrivacyCritical, PerformanceCritical, MarketplaceContext} {
		if c.String() == "" {
			t.Fatal("empty context name")
		}
		if err := ContextWeights(c).Validate(); err != nil {
			t.Fatalf("%v weights invalid: %v", c, err)
		}
	}
	if Context(42).String() == "" {
		t.Fatal("unknown context empty name")
	}
}

func TestContextChangesOptimum(t *testing.T) {
	// The same facet pair ranks differently under different contexts —
	// §4's "different settings depending on the applicative context".
	highPriv := Facets{Satisfaction: 0.6, Reputation: 0.5, Privacy: 0.95}
	highPerf := Facets{Satisfaction: 0.95, Reputation: 0.6, Privacy: 0.5}
	tP1, _ := Combine(highPriv, ContextWeights(PrivacyCritical))
	tP2, _ := Combine(highPerf, ContextWeights(PrivacyCritical))
	tF1, _ := Combine(highPriv, ContextWeights(PerformanceCritical))
	tF2, _ := Combine(highPerf, ContextWeights(PerformanceCritical))
	if tP1 <= tP2 {
		t.Fatalf("privacy context should prefer the private profile: %v vs %v", tP1, tP2)
	}
	if tF2 <= tF1 {
		t.Fatalf("performance context should prefer the performant profile: %v vs %v", tF2, tF1)
	}
}

func TestTrustModelValidation(t *testing.T) {
	if _, err := NewTrustModel(0, DefaultWeights(), 0.5); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewTrustModel(5, Weights{}, 0.5); err == nil {
		t.Fatal("zero weights accepted")
	}
	if _, err := NewTrustModel(5, DefaultWeights(), 1); err == nil {
		t.Fatal("inertia=1 accepted")
	}
	if _, err := NewTrustModel(5, DefaultWeights(), -0.1); err == nil {
		t.Fatal("negative inertia accepted")
	}
}

func TestTrustModelUpdateAndInertia(t *testing.T) {
	m, err := NewTrustModel(2, DefaultWeights(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trust(0) != 0.5 {
		t.Fatal("initial trust != 0.5")
	}
	// First update seeds directly.
	v, err := update(m, 0, Facets{1, 1, 1})
	if err != nil || v != 1 {
		t.Fatalf("first update = %v, %v", v, err)
	}
	// Second update is smoothed: 0.5*1 + 0.5*0 = 0.5.
	v, err = update(m, 0, Facets{0, 1, 1})
	if err != nil || v != 0.5 {
		t.Fatalf("smoothed update = %v", v)
	}
	if m.Trust(1) != 0.5 {
		t.Fatal("untouched user's trust changed")
	}
	if m.Trust(-1) != 0 || m.Trust(9) != 0 {
		t.Fatal("out-of-range trust != 0")
	}
	for _, u := range []int{-1, 9} {
		if _, err := update(m, u, Facets{1, 1, 1}); err == nil {
			t.Fatalf("out-of-range update of %d accepted", u)
		}
	}
}

func TestGlobalTrustAndSystemTrusted(t *testing.T) {
	m, err := NewTrustModel(4, DefaultWeights(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []Facets{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {0.1, 0.1, 0.1}} {
		if _, err := update(m, i, f); err != nil {
			t.Fatal(err)
		}
	}
	g := m.GlobalTrust()
	if g < 0.7 || g > 0.8 {
		t.Fatalf("global trust = %v", g)
	}
	// Mean is high but the bottom quartile is not: the quantile rule
	// distinguishes "globally trusted" from "most users trust it".
	if m.SystemTrusted(0.5, 0.1) {
		t.Fatal("system counted trusted despite distrustful decile")
	}
	if !m.SystemTrusted(0.5, 0.5) {
		t.Fatal("median-trusted system not recognized")
	}
	trusts := m.Trusts()
	if len(trusts) != 4 {
		t.Fatal("Trusts length")
	}
	trusts[0] = -5
	if m.Trust(0) == -5 {
		t.Fatal("Trusts exposed internal slice")
	}
}

func TestFacetsValid(t *testing.T) {
	if !(Facets{0, 0.5, 1}).Valid() {
		t.Fatal("valid facets rejected")
	}
	if (Facets{-0.1, 0.5, 0.5}).Valid() || (Facets{0.5, 1.1, 0.5}).Valid() {
		t.Fatal("invalid facets accepted")
	}
	if (Facets{math.NaN(), 0.5, 0.5}).Valid() {
		t.Fatal("NaN facet accepted")
	}
}
