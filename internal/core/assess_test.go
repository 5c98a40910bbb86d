package core

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
	"repro/internal/workload"
)

func assessEngine(t *testing.T, malicious float64, mech reputation.Mechanism) *workload.Engine {
	t.Helper()
	eng, err := workload.NewEngine(workload.Config{
		Seed:     5,
		NumPeers: 40,
		Mix: adversary.Mix{
			Fractions: map[adversary.Class]float64{
				adversary.Honest:    1 - malicious,
				adversary.Malicious: malicious,
			},
			ForceHonest: []int{0, 1},
		},
		RecomputeEvery: 2,
	}, mech)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(30)
	return eng
}

func TestAssessFacetsInRange(t *testing.T) {
	mech, err := eigentrust.New(eigentrust.Config{N: 40, Pretrusted: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	eng := assessEngine(t, 0.3, mech)
	a := Assess(eng)
	if len(a.PerUser) != 40 {
		t.Fatalf("per-user length = %d", len(a.PerUser))
	}
	for u, f := range a.PerUser {
		if !f.Valid() {
			t.Fatalf("user %d facets invalid: %+v", u, f)
		}
	}
	if a.Power < 0 || a.Power > 1 || math.IsNaN(a.Power) {
		t.Fatalf("power = %v", a.Power)
	}
	if a.Community < 0 || a.Community > 1 {
		t.Fatalf("community = %v", a.Community)
	}
	g := a.GlobalFacets()
	if !g.Valid() {
		t.Fatalf("global facets invalid: %+v", g)
	}
}

func TestAssessCommunityTracksHostility(t *testing.T) {
	mk := func() *eigentrust.Mechanism {
		m, err := eigentrust.New(eigentrust.Config{N: 40, Pretrusted: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	healthy := Assess(assessEngine(t, 0.1, mk()))
	hostile := Assess(assessEngine(t, 0.7, mk()))
	if hostile.Community >= healthy.Community {
		t.Fatalf("hostile community %v not below healthy %v", hostile.Community, healthy.Community)
	}
	// The gap must be substantial. (The hostile fraction does not reach the
	// true 0.3: the lying majority partially poisons the conclusion, which
	// is itself a §2.2 phenomenon.)
	if healthy.Community-hostile.Community < 0.1 {
		t.Fatalf("community gap too small: healthy %v vs hostile %v", healthy.Community, hostile.Community)
	}
	if healthy.Community < 0.7 {
		t.Fatalf("10%%-malicious community fraction = %v, want >= 0.7", healthy.Community)
	}
}

func TestAssessNoneMechanismNeutral(t *testing.T) {
	eng := assessEngine(t, 0.3, reputation.NewNone(40))
	a := Assess(eng)
	// None draws no community conclusion: community defaults to 1.
	if a.Community != 1 {
		t.Fatalf("community = %v for none", a.Community)
	}
	// Identical scores: separation is the tau fallback and tau is 0.
	if a.Power < 0.2 || a.Power > 0.8 {
		t.Fatalf("none power = %v, want near neutral", a.Power)
	}
}

func TestGlobalFacetsEmptyAssessment(t *testing.T) {
	a := Assessment{Power: 0.7}
	g := a.GlobalFacets()
	if g.Satisfaction != 0.5 || g.Reputation != 0.7 || g.Privacy != 1 {
		t.Fatalf("empty global facets = %+v", g)
	}
}

func TestAUC(t *testing.T) {
	// Assess reads the separation measure from metrics.RankSample, with the
	// observations whose truth is at least 0.5 as the positive class; pin
	// the semantics it depends on.
	auc := func(pos, neg []float64) float64 {
		var r metrics.RankSample
		for _, v := range pos {
			r.Add(v, 1)
		}
		for _, v := range neg {
			r.Add(v, 0)
		}
		_, a := r.Read()
		return a
	}
	if got := auc([]float64{0.9, 0.8}, []float64{0.1, 0.2}); got != 1 {
		t.Fatalf("perfect separation auc = %v", got)
	}
	if got := auc([]float64{0.1}, []float64{0.9}); got != 0 {
		t.Fatalf("inverted auc = %v", got)
	}
	if got := auc([]float64{0.5}, []float64{0.5}); got != 0.5 {
		t.Fatalf("tied auc = %v", got)
	}
	if !math.IsNaN(auc(nil, []float64{1})) || !math.IsNaN(auc([]float64{1}, nil)) {
		t.Fatal("single-class auc not NaN")
	}
}
