package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/reputation"
)

// countingMech wraps a batch-submitting mechanism and counts, per rater,
// the reports it accepted: the reports the engine delivered.
type countingMech struct {
	reputation.Mechanism
	reports []int
}

func newCounting(t *testing.T, n int) *countingMech {
	t.Helper()
	return &countingMech{Mechanism: newEigen(t, n), reports: make([]int, n)}
}

func (m *countingMech) Submit(r reputation.Report) error {
	if err := m.Mechanism.Submit(r); err != nil {
		return err
	}
	m.reports[r.Rater]++
	return nil
}

func (m *countingMech) SubmitBatch(rs []reputation.Report) error {
	if err := m.Mechanism.(reputation.BatchSubmitter).SubmitBatch(rs); err != nil {
		return err
	}
	for _, r := range rs {
		m.reports[r.Rater]++
	}
	return nil
}

// privacyFacetFormula is §2.3's privacy facet of user u written out from
// its inputs: every engine flow is consented, so the respect rate is 1, and
// the exposure is one 0.2 (a Low item reaching the mechanism) per delivered
// report, added one at a time, plus 0.5·log2(1+r) for the Medium profile
// reaching the r providers the consumer's overrides flag.
func privacyFacetFormula(e *Engine, u, reports int) float64 {
	flagged := 0
	for _, o := range e.consumers[u].State().Overrides {
		if o.Disclosed {
			flagged++
		}
	}
	x := 0.0
	for range reports {
		x += 0.2
	}
	x += float64(0.5 * math.Log2(1+float64(flagged)))
	scale := max(e.LedgerScale(), 1)
	return 1 - x/(x+scale)
}

// checkFacets compares every user's PrivacyFacetOf with the formula, bit for
// bit.
func checkFacets(t *testing.T, where string, e *Engine, reports []int) {
	t.Helper()
	for u := range reports {
		got, want := e.PrivacyFacetOf(u), privacyFacetFormula(e, u, reports[u])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: user %d privacy facet %v, formula %v", where, u, got, want)
		}
	}
}

// TestPrivacyFacetsMatchFormula runs rounds with colluders' ballot stuffing
// and external reports through a mechanism that counts each rater's
// delivered reports, and checks every user's privacy facet against the
// formula built from the consumers' flags and those counts: with touched
// users pending, after the first refresh (which fills the whole cache) and
// after a later one (which refreshes the touched users only), after a
// mid-epoch snapshot restored into an engine whose cache holds another
// run's facets (its touched set must equal the original's), after a scale
// change before and after the next refresh, and after more rounds on both.
func TestPrivacyFacetsMatchFormula(t *testing.T) {
	const n = 60
	cfg := Config{Seed: 43, NumPeers: n, RecomputeEvery: 2, Disclosure: 0.7, Mix: adversary.Mix{Fractions: map[adversary.Class]float64{
		adversary.Honest: 0.7, adversary.Malicious: 0.2, adversary.Colluder: 0.1,
	}}}
	m := newCounting(t, n)
	e, err := NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	checkFacets(t, "fresh engine", e, m.reports)
	e.Run(6)
	for u := 0; u < n; u += 9 {
		if err := e.SubmitExternalReport(u, (u+1)%n, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	checkFacets(t, "touched users pending", e, m.reports)
	e.RefreshPrivacyFacets()
	if len(e.PrivacyTouched()) != 0 {
		t.Fatal("the refresh left users touched")
	}
	checkFacets(t, "after the first refresh", e, m.reports)
	e.Run(3)
	checkFacets(t, "touched users pending again", e, m.reports)
	e.RefreshPrivacyFacets()
	checkFacets(t, "after a refresh of the touched users", e, m.reports)
	e.Run(3)
	st, err := e.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PrivacyDirty) == 0 || len(st.Feedback) == 0 {
		t.Fatal("the snapshot has no touched users or no feedback, so the restore would prove little")
	}
	m2 := newCounting(t, n)
	e2, err := NewEngine(cfg, m2)
	if err != nil {
		t.Fatal(err)
	}
	e2.Run(2)
	e2.RefreshPrivacyFacets()
	copy(m2.reports, m.reports)
	if err := e2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got, want := e2.PrivacyTouched(), e.PrivacyTouched(); !slices.Equal(got, want) {
		t.Fatalf("restored touched users %v, want %v", got, want)
	}
	if e2.Disclosures() != e.Disclosures() {
		t.Fatalf("restored disclosure count %d, want %d", e2.Disclosures(), e.Disclosures())
	}
	for i, eng := range []*Engine{e, e2} {
		reports := [][]int{m.reports, m2.reports}[i]
		where := []string{"original", "restored"}[i]
		checkFacets(t, where+" mid-epoch", eng, reports)
		if err := eng.SetLedgerScale(3); err != nil {
			t.Fatal(err)
		}
		checkFacets(t, where+" after a scale change", eng, reports)
		eng.RefreshPrivacyFacets()
		checkFacets(t, where+" after the refresh at the new scale", eng, reports)
		eng.Run(4)
		checkFacets(t, where+" after more rounds", eng, reports)
	}
	if !slices.Equal(m.reports, m2.reports) || e.Disclosures() != e2.Disclosures() {
		t.Fatal("the restored engine's continuation differs from the original's")
	}
}

// TestRepeatServedInteractionZeroAllocs pins the gather's bookkeeping for a
// served interaction between a consumer and a provider its profile already
// reached — the satisfaction updates, the ground-truth tallies, the
// disclosure count and touched mark, the report's admission and, through
// the flush, its feedback exposure — at zero allocations.
func TestRepeatServedInteractionZeroAllocs(t *testing.T) {
	e, err := NewEngine(Config{Seed: 5, NumPeers: 100}, reputation.NewNone(100))
	if err != nil {
		t.Fatal(err)
	}
	cands := []int32{40, 41, 42, 43, 44}
	serve := func() {
		e.plans = append(e.plans[:0], interactionPlan{consumer: 7})
		e.results = append(e.results[:0], interactionResult{provider: 42, status: served, quality: 0.6, rating: 0.6})
		e.cands = append(e.cands[:0], cands...)
		var st RoundStats
		e.gather(&st)
		e.flushReports()
	}
	serve() // the first disclosure inserts the override and sizes the buffers
	before := e.Disclosures()
	allocs := testing.AllocsPerRun(1000, serve)
	if allocs != 0 {
		t.Fatalf("a repeat served interaction allocates %v objects/op, want 0", allocs)
	}
	if e.consumers[7].Disclosed() != 1 || e.Disclosures() <= before || e.feedback[7] == 0 {
		t.Fatalf("repeat interactions not accounted: %d recipients, %d disclosures, feedback %v",
			e.consumers[7].Disclosed(), e.Disclosures(), e.feedback[7])
	}
}

// BenchmarkGather merges one round's simulated interactions among 20k
// peers — ground truth, satisfaction, the privacy record and the reports'
// admission — into the engine, per interaction. The reports stay buffered
// rather than flushed, so the mechanism's own cost is not measured.
func BenchmarkGather(b *testing.B) {
	const n = 20000
	e, err := NewEngine(Config{Seed: 7, NumPeers: n}, reputation.NewNone(n))
	if err != nil {
		b.Fatal(err)
	}
	e.Run(10) // every consumer has met a few providers
	e.planRound(e.activePool())
	e.scatter(roundInputs{scores: e.mech.ScoresView(), gate: -1, round: len(e.rounds)})
	plans, results := slices.Clone(e.plans), slices.Clone(e.results)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(plans) {
		k := min(len(plans), b.N-done)
		e.plans, e.results = plans[:k], results[:k]
		var st RoundStats
		e.gather(&st)
		e.pending = e.pending[:0]
	}
}
