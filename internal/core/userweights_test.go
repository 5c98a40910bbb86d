package core

import "testing"

// update folds f into one user's trust through the production path, a
// one-candidate UpdateScattered, and returns the new value. The tests read
// trust values only, so the unsettled worklist the pass rebuilds from its
// candidates need not cover the other users.
func update(m *TrustModel, user int, f Facets) (float64, error) {
	err := m.UpdateScattered([]int{user}, false, func(int) Facets { return f }, 1)
	return m.Trust(user), err
}

func TestSetUserWeights(t *testing.T) {
	m, err := NewTrustModel(3, DefaultWeights(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// User 1 is privacy-obsessed.
	if err := m.SetUserWeights(1, ContextWeights(PrivacyCritical)); err != nil {
		t.Fatal(err)
	}
	f := Facets{Satisfaction: 0.9, Reputation: 0.9, Privacy: 0.2}
	t0, err := update(m, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := update(m, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	if t1 >= t0 {
		t.Fatalf("privacy-weighted user not more upset by privacy collapse: %v vs %v", t1, t0)
	}
	// And conversely for a privacy-respecting system.
	g := Facets{Satisfaction: 0.5, Reputation: 0.5, Privacy: 0.99}
	t0g, _ := update(m, 0, g)
	t1g, _ := update(m, 1, g)
	if t1g <= t0g {
		t.Fatalf("privacy-weighted user not happier with privacy: %v vs %v", t1g, t0g)
	}
}

func TestSetUserWeightsValidation(t *testing.T) {
	m, err := NewTrustModel(2, DefaultWeights(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetUserWeights(9, DefaultWeights()); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := m.SetUserWeights(0, Weights{}); err == nil {
		t.Fatal("zero weights accepted")
	}
}

func TestUserWeightsDoNotLeakToOthers(t *testing.T) {
	m, err := NewTrustModel(2, DefaultWeights(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetUserWeights(0, Weights{Satisfaction: 1, Reputation: 0, Privacy: 0}); err != nil {
		t.Fatal(err)
	}
	f := Facets{Satisfaction: 1, Reputation: 0.1, Privacy: 0.1}
	t0, _ := update(m, 0, f)
	t1, _ := update(m, 1, f)
	if t0 != 1 {
		t.Fatalf("satisfaction-only user trust = %v, want 1", t0)
	}
	if t1 >= 0.5 {
		t.Fatalf("default-weighted user unaffected by bad facets: %v", t1)
	}
}
