package eigentrust

import (
	"math"
	"testing"

	"repro/internal/reputation"
	"repro/internal/sim"
)

func feed(t *testing.T, m *Mechanism, rater, ratee int, value float64, times int) {
	t.Helper()
	for k := 0; k < times; k++ {
		if err := m.Submit(reputation.Report{Rater: rater, Ratee: ratee, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Config{N: 5, Alpha: 1.5}); err == nil {
		t.Fatal("alpha>1 accepted")
	}
	if _, err := New(Config{N: 5, Pretrusted: []int{9}}); err == nil {
		t.Fatal("bad pretrusted accepted")
	}
}

func TestScoresSeparateGoodFromBad(t *testing.T) {
	// Peers 0-3 good, peer 4 bad; everyone rates everyone truthfully.
	m, err := New(Config{N: 5, Pretrusted: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			v := 0.9
			if j == 4 {
				v = 0.1
			}
			feed(t, m, i, j, v, 3)
		}
	}
	iters := m.Compute()
	if iters == 0 {
		t.Fatal("no iterations performed")
	}
	scores := m.ScoresView()
	for j := 0; j < 4; j++ {
		if scores[j] <= scores[4] {
			t.Fatalf("good peer %d (%v) not above bad peer 4 (%v)", j, scores[j], scores[4])
		}
	}
	if m.Score(4) > 0.2 {
		t.Fatalf("bad peer score = %v, want near 0", m.Score(4))
	}
}

func TestRawDistributionSumsToOne(t *testing.T) {
	m, err := New(Config{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	for k := 0; k < 200; k++ {
		i, j := rng.Intn(10), rng.Intn(10)
		if i == j {
			continue
		}
		_ = m.Submit(reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()})
	}
	m.Compute()
	sum := 0.0
	for _, v := range m.Raw() {
		if v < 0 {
			t.Fatalf("negative trust %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("trust distribution sums to %v", sum)
	}
}

func TestComputeIdempotentWhenClean(t *testing.T) {
	m, err := New(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 0, 1, 0.9, 2)
	if m.Compute() == 0 {
		t.Fatal("dirty compute did no work")
	}
	if m.Compute() != 0 {
		t.Fatal("clean compute re-ran")
	}
}

func TestPretrustDampingLimitsCollusion(t *testing.T) {
	// Colluding clique {3,4} rate each other highly; honest peers {0,1,2}
	// rate the clique low. With pre-trusted honest peer 0, the clique must
	// not dominate.
	m, err := New(Config{N: 5, Pretrusted: []int{0}, Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{3, 4}, {4, 3}} {
		feed(t, m, pair[0], pair[1], 1.0, 20)
	}
	for _, i := range []int{0, 1, 2} {
		for _, j := range []int{3, 4} {
			feed(t, m, i, j, 0.1, 5)
		}
		for _, j := range []int{0, 1, 2} {
			if i != j {
				feed(t, m, i, j, 0.9, 5)
			}
		}
	}
	m.Compute()
	s := m.ScoresView()
	for _, h := range []int{0, 1, 2} {
		for _, c := range []int{3, 4} {
			if s[h] <= s[c] {
				t.Fatalf("honest %d (%v) not above colluder %d (%v): %v", h, s[h], c, s[c], s)
			}
		}
	}
}

func TestNoPretrustCollusionWins(t *testing.T) {
	// Ablation: without pre-trusted damping (uniform pretrust, tiny alpha)
	// a clique that absorbs trust without returning it captures top rank —
	// the known EigenTrust failure mode. Honest peers were fooled into a
	// few positive ratings of the clique; the clique only rates itself.
	m, err := New(Config{N: 5, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{3, 4}, {4, 3}} {
		feed(t, m, pair[0], pair[1], 1.0, 50)
	}
	for _, i := range []int{0, 1, 2} {
		for _, j := range []int{0, 1, 2} {
			if i != j {
				feed(t, m, i, j, 0.9, 5)
			}
		}
		// Leaked trust toward the clique (early fooled transactions).
		feed(t, m, i, 3, 0.9, 1)
	}
	m.Compute()
	s := m.Raw()
	for _, h := range []int{0, 1, 2} {
		for _, c := range []int{3, 4} {
			if s[c] <= s[h] {
				t.Fatalf("expected colluder %d (%v) above honest %d (%v) without pretrust: %v",
					c, s[c], h, s[h], s)
			}
		}
	}
}

func TestScoreOutOfRange(t *testing.T) {
	m, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(-1) != 0 || m.Score(5) != 0 {
		t.Fatal("out-of-range score != 0")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 0}); err == nil {
		t.Fatal("self-rating accepted")
	}
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 9}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

// TestSubmitRejectsNaN pins that a NaN rating is an error rather than an
// "unsatisfactory" vote. SubmitBatch keeps its rule that the reports before
// the invalid one stay folded.
func TestSubmitRejectsNaN(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 0, 1, 0.9, 2)
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 1, Value: math.NaN()}); err == nil {
		t.Fatal("NaN rating accepted by Submit")
	}
	batch := []reputation.Report{
		{Rater: 3, Ratee: 1, Value: 0.8},
		{Rater: 0, Ratee: 1, Value: math.NaN()},
		{Rater: 4, Ratee: 2, Value: 0.8},
	}
	if err := m.SubmitBatch(batch); err == nil {
		t.Fatal("NaN rating accepted by SubmitBatch")
	}
	s := func(i, j int) float64 {
		cols, vals := m.LocalTrust().AppendRow(i, nil, nil)
		for k, c := range cols {
			if int(c) == j {
				return vals[k]
			}
		}
		return 0
	}
	if got := s(0, 1); got != 2 {
		t.Fatalf("s(0,1) = %v after NaN ratings, want 2", got)
	}
	if s(3, 1) != 1 {
		t.Fatal("report before the NaN was not folded")
	}
	if s(4, 2) != 0 {
		t.Fatal("report after the NaN was folded")
	}
}
