package powertrust

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

// populate builds a 20-peer population where peers 15..19 are bad.
func populate(t *testing.T, m *Mechanism, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	for k := 0; k < 1500; k++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if i == j {
			continue
		}
		v := 0.85 + rng.Float64()*0.1
		if j >= 15 {
			v = 0.05 + rng.Float64()*0.1
		}
		if err := m.Submit(reputation.Report{Rater: i, Ratee: j, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Config{N: 5, Alpha: -0.1}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	m, err := New(Config{N: 10, M: 99})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 0, 1, 0.9, 1) // make it dirty so Compute elects
	m.Compute()
	if len(m.PowerNodes()) != 10 {
		t.Fatalf("M not clamped: %d", len(m.PowerNodes()))
	}
}

func TestSeparatesGoodFromBad(t *testing.T) {
	m, err := New(Config{N: 20, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, m, 1)
	rounds := m.Compute()
	if rounds == 0 {
		t.Fatal("no rounds")
	}
	s := m.ScoresView()
	worstGood, bestBad := 1.0, 0.0
	for i := 0; i < 15; i++ {
		if s[i] < worstGood {
			worstGood = s[i]
		}
	}
	for i := 15; i < 20; i++ {
		if s[i] > bestBad {
			bestBad = s[i]
		}
	}
	if worstGood <= bestBad {
		t.Fatalf("separation failed: worst good %v <= best bad %v", worstGood, bestBad)
	}
}

func TestLookAheadConvergesFaster(t *testing.T) {
	la, err := New(Config{N: 20, M: 3, Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPlain(Config{N: 20, M: 3, Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, la, 2)
	populate(t, plain, 2)
	rLA := la.Compute()
	rPlain := plain.Compute()
	if rLA >= rPlain {
		t.Fatalf("look-ahead rounds %d not fewer than plain %d", rLA, rPlain)
	}
	// Both walks must agree on the ranking of good vs bad peers.
	sLA, sPlain := la.ScoresView(), plain.ScoresView()
	for i := 0; i < 15; i++ {
		for j := 15; j < 20; j++ {
			if (sLA[i] > sLA[j]) != (sPlain[i] > sPlain[j]) {
				t.Fatalf("rankings disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestNames(t *testing.T) {
	la, _ := New(Config{N: 5})
	plain, _ := NewPlain(Config{N: 5})
	if la.Name() != "powertrust" || plain.Name() != "powertrust-plain" {
		t.Fatalf("names: %s / %s", la.Name(), plain.Name())
	}
}

func TestPowerNodesAreMostRated(t *testing.T) {
	m, err := New(Config{N: 10, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Peers 3 and 7 receive feedback from everyone; others from nobody.
	for i := 0; i < 10; i++ {
		for _, j := range []int{3, 7} {
			if i != j {
				feed(t, m, i, j, 0.9, 1)
			}
		}
	}
	m.Compute()
	pn := m.PowerNodes()
	if len(pn) != 2 {
		t.Fatalf("power nodes = %v", pn)
	}
	want := map[int]bool{3: true, 7: true}
	for _, p := range pn {
		if !want[p] {
			t.Fatalf("unexpected power node %d", p)
		}
	}
}

func TestRawSumsToOne(t *testing.T) {
	m, err := New(Config{N: 20, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, m, 3)
	m.Compute()
	sum := 0.0
	for _, v := range m.Raw() {
		if v < 0 {
			t.Fatalf("negative score %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("stationary distribution sums to %v", sum)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := New(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(reputation.Report{Rater: 1, Ratee: 1}); err == nil {
		t.Fatal("self-rating accepted")
	}
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 9}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	// Out-of-range values are clamped, not rejected.
	if err := m.Submit(reputation.Report{Rater: 0, Ratee: 1, Value: 7}); err != nil {
		t.Fatal(err)
	}
	m.Compute()
	if m.Score(1) != 1 {
		t.Fatalf("clamped rating score = %v", m.Score(1))
	}
}

func TestComputeIdempotentWhenClean(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 0, 1, 0.9, 1)
	if m.Compute() == 0 {
		t.Fatal("dirty compute did nothing")
	}
	if m.Compute() != 0 {
		t.Fatal("clean compute re-ran")
	}
}

func TestScoreBounds(t *testing.T) {
	m, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(-1) != 0 || m.Score(9) != 0 {
		t.Fatal("out-of-range score != 0")
	}
	feed(t, m, 0, 1, 0.9, 3)
	m.Compute()
	for i, v := range m.ScoresView() {
		if v < 0 || v > 1 {
			t.Fatalf("score[%d] = %v out of [0,1]", i, v)
		}
	}
}

// TestSubmitRejectsNaN pins that a NaN rating is an error, not a value:
// clamping lets NaN through into the pair sums, and one NaN then zeroes
// every score. SubmitBatch keeps its rule that the reports before the
// invalid one stay folded.
func TestSubmitRejectsNaN(t *testing.T) {
	m, err := New(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, 0, 1, 0.9, 1)
	if err := m.Submit(reputation.Report{Rater: 2, Ratee: 1, Value: math.NaN()}); err == nil {
		t.Fatal("NaN rating accepted by Submit")
	}
	m.Compute()
	if got := m.Score(1); got != 1 {
		t.Fatalf("score of the only rated peer = %v, want 1 (scores %v)", got, m.ScoresView())
	}
	batch := []reputation.Report{
		{Rater: 3, Ratee: 4, Value: 0.1},
		{Rater: 3, Ratee: 2, Value: math.NaN()},
		{Rater: 4, Ratee: 2, Value: 0.1},
	}
	if err := m.SubmitBatch(batch); err == nil {
		t.Fatal("NaN rating accepted by SubmitBatch")
	}
	// Peer 1 rated well, peer 4 badly by the report before the NaN; peer 2
	// unrated, because the report after the NaN was not folded.
	if got := m.TrustworthyFraction(); got != 0.5 {
		t.Fatalf("trustworthy fraction = %v, want 0.5", got)
	}
}
