package reputation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLocalTrustAdd(t *testing.T) {
	lt := NewLocalTrust(3)
	if err := lt.Add(Report{Rater: 0, Ratee: 1, Value: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := lt.Add(Report{Rater: 0, Ratee: 1, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := lt.Add(Report{Rater: 0, Ratee: 2, Value: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got := lt.S(0, 1); got != 2 {
		t.Fatalf("S(0,1) = %v, want 2", got)
	}
	if got := lt.S(0, 2); got != 0 {
		t.Fatalf("S(0,2) = %v, want 0 (clamped)", got)
	}
}

func TestLocalTrustRejects(t *testing.T) {
	lt := NewLocalTrust(2)
	if err := lt.Add(Report{Rater: 0, Ratee: 0, Value: 1}); err == nil {
		t.Fatal("self-rating accepted")
	}
	if err := lt.Add(Report{Rater: 0, Ratee: 5, Value: 1}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := lt.Add(Report{Rater: -1, Ratee: 1, Value: 1}); err == nil {
		t.Fatal("negative rater accepted")
	}
}

func TestNormalizedRowSumsToOne(t *testing.T) {
	f := func(seed uint16) bool {
		rng := sim.NewRNG(uint64(seed))
		n := 5 + rng.Intn(10)
		lt := NewLocalTrust(n)
		for k := 0; k < 50; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			_ = lt.Add(Report{Rater: i, Ratee: j, Value: rng.Float64()})
		}
		pre := UniformPretrust(n)
		for i := 0; i < n; i++ {
			row := lt.NormalizedRow(i, pre)
			sum := 0.0
			for _, v := range row {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedRowEmptyFallsBackToPretrust(t *testing.T) {
	lt := NewLocalTrust(3)
	pre, err := PretrustOver(3, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	row := lt.NormalizedRow(0, pre)
	if row[2] != 1 || row[0] != 0 {
		t.Fatalf("empty row = %v, want pretrust", row)
	}
	if lt.HasOutgoing(0) {
		t.Fatal("HasOutgoing on empty row")
	}
}

func TestPretrustOver(t *testing.T) {
	p, err := PretrustOver(4, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != 0.5 || p[3] != 0.5 || p[0] != 0 {
		t.Fatalf("pretrust = %v", p)
	}
}

func TestPretrustOverRejectsDegenerateSets(t *testing.T) {
	// An empty set would produce an all-zero vector: the caller must choose
	// UniformPretrust explicitly.
	if _, err := PretrustOver(4, nil); err == nil {
		t.Fatal("empty trusted set accepted")
	}
	// A silently-skipped invalid id would leave the distribution summing
	// below 1.
	if _, err := PretrustOver(2, []int{0, 5}); err == nil {
		t.Fatal("out-of-range trusted id accepted")
	}
	if _, err := PretrustOver(2, []int{-1}); err == nil {
		t.Fatal("negative trusted id accepted")
	}
	// A duplicate would skew double weight onto one peer.
	if _, err := PretrustOver(4, []int{1, 1}); err == nil {
		t.Fatal("duplicate trusted id accepted")
	}
}

func TestLocalTrustDirtySet(t *testing.T) {
	lt := NewLocalTrust(4)
	if lt.HasDirty() {
		t.Fatal("fresh matrix dirty")
	}
	_ = lt.Add(Report{Rater: 2, Ratee: 1, Value: 0.9})
	_ = lt.Add(Report{Rater: 0, Ratee: 3, Value: 0.2})
	if got := lt.DirtyRows(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("dirty rows = %v, want [0 2]", got)
	}
	lt.ClearDirty()
	if lt.HasDirty() {
		t.Fatal("dirty set survived ClearDirty")
	}
	// ResetPeer dirties the peer's own row and every row that rated it.
	lt.ResetPeer(1)
	if got := lt.DirtyRows(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dirty rows after reset = %v, want [2]", got)
	}
}

func TestLocalTrustAppendRow(t *testing.T) {
	lt := NewLocalTrust(5)
	_ = lt.Add(Report{Rater: 0, Ratee: 3, Value: 0.9})
	_ = lt.Add(Report{Rater: 0, Ratee: 1, Value: 0.9})
	_ = lt.Add(Report{Rater: 0, Ratee: 1, Value: 0.8})
	// Net-negative pairs are excluded (s clamped at 0).
	_ = lt.Add(Report{Rater: 0, Ratee: 2, Value: 0.1})
	cols, vals := lt.AppendRow(0, nil, nil)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 {
		t.Fatalf("cols = %v, want [1 3]", cols)
	}
	if vals[0] != 2 || vals[1] != 1 {
		t.Fatalf("vals = %v, want [2 1]", vals)
	}
}

func TestLocalTrustStateRoundTrip(t *testing.T) {
	lt := NewLocalTrust(4)
	_ = lt.Add(Report{Rater: 0, Ratee: 1, Value: 0.9})
	_ = lt.Add(Report{Rater: 3, Ratee: 2, Value: 0.1})
	lt.ClearDirty()
	_ = lt.Add(Report{Rater: 2, Ratee: 0, Value: 0.7}) // pending dirty row
	st := lt.State()
	if len(st.Dirty) != 1 || st.Dirty[0] != 2 {
		t.Fatalf("state dirty = %v, want [2]", st.Dirty)
	}
	restored := NewLocalTrust(4)
	if err := restored.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if restored.S(i, j) != lt.S(i, j) {
				t.Fatalf("S(%d,%d) mismatch after round-trip", i, j)
			}
		}
	}
	if got := restored.DirtyRows(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("restored dirty rows = %v, want [2]", got)
	}
	// Equal matrices must encode to equal (canonical) states.
	st2 := restored.State()
	if len(st2.Entries) != len(st.Entries) {
		t.Fatalf("entry count changed: %d vs %d", len(st2.Entries), len(st.Entries))
	}
	for k := range st.Entries {
		if st.Entries[k] != st2.Entries[k] {
			t.Fatalf("entry %d changed: %+v vs %+v", k, st.Entries[k], st2.Entries[k])
		}
	}
	if err := restored.SetState(LocalTrustState{N: 9}); err == nil {
		t.Fatal("wrong-dimension state accepted")
	}
}

// The gatherer tests drive the engine's delivery path: Admit draws the
// disclosure, and Commit records a report the mechanism then accepted.

func TestGathererDisclosureZeroAndOne(t *testing.T) {
	rng := sim.NewRNG(3)
	g := NewGatherer(rng, []float64{0, 1})
	shared0 := 0
	for i := 0; i < 200; i++ {
		if g.Admit(0) {
			g.Commit()
			shared0++
		}
	}
	if shared0 != 0 {
		t.Fatalf("disclosure 0 shared %d reports", shared0)
	}
	shared1 := 0
	for i := 0; i < 200; i++ {
		if g.Admit(1) {
			g.Commit()
			shared1++
		}
	}
	if shared1 != 200 {
		t.Fatalf("disclosure 1 shared %d/200", shared1)
	}
	if g.Gathered != 200 || g.Withheld != 200 {
		t.Fatalf("counters: gathered=%d withheld=%d", g.Gathered, g.Withheld)
	}
}

func TestGathererFraction(t *testing.T) {
	rng := sim.NewRNG(4)
	g := NewGatherer(rng, []float64{0.3})
	shared := 0
	for i := 0; i < 5000; i++ {
		if g.Admit(0) {
			g.Commit()
			shared++
		}
	}
	frac := float64(shared) / 5000
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("shared fraction = %v, want ~0.3", frac)
	}
}

func TestGathererClampsAndDefaults(t *testing.T) {
	rng := sim.NewRNG(5)
	g := NewGatherer(rng, []float64{-1, 2})
	if g.Admit(0) {
		t.Fatal("clamped-to-0 rater shared")
	}
	if !g.Admit(1) {
		t.Fatal("clamped-to-1 rater withheld")
	}
	// Rater beyond the disclosure vector defaults to full disclosure.
	if !g.Admit(2) {
		t.Fatal("unknown rater withheld")
	}
}

func TestSelectBest(t *testing.T) {
	rng := sim.NewRNG(6)
	scores := []float64{0.1, 0.9, 0.5}
	if got := SelectBest(rng, scores, []int{0, 1, 2}); got != 1 {
		t.Fatalf("SelectBest = %d", got)
	}
	if got := SelectBest[int](rng, scores, nil); got != -1 {
		t.Fatal("empty candidates should return -1")
	}
	if got := SelectBest(rng, scores, []int{7, -1}); got != -1 {
		t.Fatal("invalid candidates should return -1")
	}
}

func TestSelectBestTieBreaksUniformly(t *testing.T) {
	rng := sim.NewRNG(7)
	scores := []float64{0.5, 0.5, 0.1}
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		counts[SelectBest(rng, scores, []int{0, 1, 2})]++
	}
	if counts[2] != 0 {
		t.Fatal("lower-scored candidate selected")
	}
	if counts[0] < 800 || counts[1] < 800 {
		t.Fatalf("tie not uniform: %v", counts)
	}
}

func TestSelectProportional(t *testing.T) {
	rng := sim.NewRNG(8)
	scores := []float64{0.75, 0.25}
	counts := map[int]int{}
	for i := 0; i < 8000; i++ {
		counts[SelectProportional(rng, scores, []int{0, 1})]++
	}
	frac := float64(counts[0]) / 8000
	if math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("proportional selection fraction = %v", frac)
	}
}

func TestSelectProportionalZeroScores(t *testing.T) {
	rng := sim.NewRNG(9)
	scores := []float64{0, 0, 0}
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		c := SelectProportional(rng, scores, []int{0, 1, 2})
		if c == -1 {
			t.Fatal("zero scores returned -1")
		}
		counts[c]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] < 800 {
			t.Fatalf("zero-score selection not uniform: %v", counts)
		}
	}
	if got := SelectProportional[int](rng, scores, nil); got != -1 {
		t.Fatal("empty candidates != -1")
	}
}

func TestNoneBaseline(t *testing.T) {
	m := NewNone(3)
	if m.Name() != "none" {
		t.Fatal("name")
	}
	if err := m.Submit(Report{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if m.Compute() != 0 {
		t.Fatal("Compute should be 0 rounds")
	}
	for i, s := range m.ScoresView() {
		if s != 0.5 {
			t.Fatalf("score[%d] = %v", i, s)
		}
	}
	if m.Score(0) != 0.5 {
		t.Fatal("Score != 0.5")
	}
	if got := m.TrustworthyFraction(); got != 1 {
		t.Fatalf("TrustworthyFraction = %v, want 1", got)
	}
}
