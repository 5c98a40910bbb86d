package trustnet

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"
)

// settledSchedule exercises every intervention class the sub-linear epoch
// tail must survive: churn (leave/join), base-disclosure and base-honesty
// rewrites, coupling toggles, and a full policy change (which moves the
// exposure scale and so reprices every privacy facet).
func settledSchedule() Schedule {
	return Schedule{}.
		At(2, LeaveWave{Users: []int{10, 11, 12, 13}}).
		At(3, DisclosureChange{Base: 0.6}).
		At(4, HonestyChange{Base: 0.7}).
		At(5, CouplingChange{Enabled: false}).
		At(6, JoinWave{Users: []int{10, 11, 12, 13}}).
		At(7, CouplingChange{Enabled: true}).
		At(8, PolicyChange{Policy: PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.1, ExposureScale: 30}})
}

// runScheduled drives a fresh engine through the schedule and returns its
// full history plus a copy of the final trust vector.
func runScheduled(t *testing.T, epochs int, dense bool, sc Scenario) ([]EpochStats, []float64) {
	t.Helper()
	eng := newEngine(t, sc)
	eng.SetDenseReference(dense)
	s, err := eng.Session(context.Background(), WithMaxEpochs(epochs), WithSchedule(settledSchedule()))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
	}
	return eng.History(), append([]float64(nil), eng.TrustModel().Trusts()...)
}

// TestSettledMatchesDenseGolden is the tentpole's acceptance invariant: the
// settled-set/sparse epoch tail produces bit-for-bit the same EpochStats
// history and final trust vector as the dense reference that recomputes
// every user every epoch — across seeds, shard counts, an intervention-heavy
// schedule, and both inertia regimes.
func TestSettledMatchesDenseGolden(t *testing.T) {
	const epochs = 10
	for _, seed := range []uint64{101, 202, 303} {
		for _, inertia := range []float64{0.5, 0} {
			opts := func(shards int) Scenario {
				sc := sessionScenario(seed)
				sc.Shards = shards
				sc.Inertia = floatPtr(inertia)
				return sc
			}
			wantHist, wantTrust := runScheduled(t, epochs, true, opts(1))
			want := histBytes(t, wantHist)
			for _, shards := range []int{1, 4} {
				gotHist, gotTrust := runScheduled(t, epochs, false, opts(shards))
				if !bytes.Equal(histBytes(t, gotHist), want) {
					t.Fatalf("seed=%d inertia=%v shards=%d: sparse history diverged from dense reference", seed, inertia, shards)
				}
				if !bytes.Equal(f64Bytes(t, gotTrust), f64Bytes(t, wantTrust)) {
					t.Fatalf("seed=%d inertia=%v shards=%d: sparse trust vector diverged from dense reference", seed, inertia, shards)
				}
			}
		}
	}
}

// f64Bytes gob-encodes a float vector for bit-exact comparison (== would
// mis-handle equal NaNs).
func f64Bytes(t *testing.T, v []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode floats: %v", err)
	}
	return buf.Bytes()
}

// quiescentScenario builds the settled-regime scenario: a None mechanism
// keeps the shared reputation facet constant after epoch 0, and a leave wave
// shrinks the active set to a handful of users, so everyone else reaches a
// bitwise trust fixed point and drops out of the epoch tail entirely.
func quiescentScenario(seed uint64, shards int) Scenario {
	return Scenario{
		Peers:       60,
		Seed:        seed,
		Mix:         &MixSpec{Fractions: map[string]float64{"honest": 0.8, "malicious": 0.2}, ForceHonest: []int{0, 1, 2}},
		Privacy:     &PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.1},
		Coupled:     true,
		EpochRounds: 4,
		Mechanism:   MechanismSpec{Kind: "none"},
		Shards:      shards,
	}
}

func runQuiescent(t *testing.T, epochs int, dense bool, sc Scenario) *Engine {
	t.Helper()
	eng := newEngine(t, sc)
	eng.SetDenseReference(dense)
	sched := Schedule{}.At(1, LeaveWave{Users: cohortIDs(5, 60)})
	s, err := eng.Session(context.Background(), WithMaxEpochs(epochs), WithSchedule(sched))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func cohortIDs(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for u := lo; u < hi; u++ {
		out = append(out, u)
	}
	return out
}

// TestSettledRegimeSkipsWork proves the sparse path actually engages — and
// still matches the dense reference — in the regime it was built for: a
// quiescent population where the reputation facet is constant and most
// users are inactive. Late epochs must report a settled majority and a
// dirty-facet count far below the population.
func TestSettledRegimeSkipsWork(t *testing.T) {
	const epochs = 80
	sparse := runQuiescent(t, epochs, false, quiescentScenario(9, 1))
	dense := runQuiescent(t, epochs, true, quiescentScenario(9, 1))
	if !bytes.Equal(histBytes(t, sparse.History()), histBytes(t, dense.History())) {
		t.Fatal("quiescent sparse history diverged from dense reference")
	}
	hist := sparse.History()
	last := hist[len(hist)-1]
	if last.SettledUsers < 40 {
		t.Errorf("final epoch settled %d/60 users, want a settled majority", last.SettledUsers)
	}
	if last.DirtyFacets >= 30 {
		t.Errorf("final epoch has %d dirty facets, want far below the population of 60", last.DirtyFacets)
	}
	// The counters are schedule-independent: the dense reference reports the
	// same ones.
	dlast := dense.History()[len(hist)-1]
	if dlast.SettledUsers != last.SettledUsers || dlast.DirtyFacets != last.DirtyFacets {
		t.Errorf("dense reference counters (%d, %d) != sparse (%d, %d)",
			dlast.SettledUsers, dlast.DirtyFacets, last.SettledUsers, last.DirtyFacets)
	}
}

// TestSnapshotResumeMidSettled pins the tentpole's snapshot story: a
// snapshot taken deep in the settled regime — when most users are being
// skipped — restores (across shard counts) into a run that continues
// bit-for-bit like the uninterrupted one, settled flags, dirty accounting
// and aggregate trees included.
func TestSnapshotResumeMidSettled(t *testing.T) {
	const totalEpochs, boundary = 70, 50
	want := histBytes(t, runQuiescent(t, totalEpochs, false, quiescentScenario(9, 1)).History())

	first := runQuiescent(t, boundary, false, quiescentScenario(9, 1))
	if st := first.History()[boundary-1]; st.SettledUsers == 0 {
		t.Fatalf("boundary epoch %d has no settled users; snapshot would not cover the settled regime", boundary)
	}
	snap := snapshotRoundTrip(t, first)
	for _, resumeShards := range []int{1, 4} {
		second, err := quiescentScenario(9, resumeShards).NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := second.Restore(snap); err != nil {
			t.Fatal(err)
		}
		// The leave wave fired before the boundary; the remaining epochs are
		// schedule-free.
		s, err := second.Session(context.Background(), WithMaxEpochs(totalEpochs-boundary))
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range s.Epochs() {
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(histBytes(t, second.History()), want) {
			t.Fatalf("resume at settled boundary (shards=%d) diverged from uninterrupted run", resumeShards)
		}
	}
}
