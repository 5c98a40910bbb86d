package trustnet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"testing"
)

// sessionScenario is the shared scenario of the session tests: coupled
// dynamics, a mixed adversary population, gating and activity skew, so that
// every engine subsystem (including the colluder clique and the ledger) is
// exercised.
func sessionScenario(seed uint64) Scenario {
	return Scenario{
		Peers: 60,
		Seed:  seed,
		Mix: &MixSpec{
			Fractions: map[string]float64{
				"honest":    0.6,
				"malicious": 0.2,
				"selfish":   0.05,
				"traitor":   0.05,
				"colluder":  0.1,
			},
			ForceHonest: []int{0, 1, 2},
		},
		Privacy:        &PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.1},
		Coupled:        true,
		EpochRounds:    4,
		RecomputeEvery: 2,
		ActivitySkew:   0.8,
	}
}

// histBytes gob-encodes a history so comparisons are bit-exact on every
// float64 (== would mis-handle equal NaNs).
func histBytes(t *testing.T, h []EpochStats) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatalf("encode history: %v", err)
	}
	return buf.Bytes()
}

func TestSessionMatchesRun(t *testing.T) {
	batch, err := sessionScenario(7).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Run(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := sessionScenario(7).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []EpochStats
	for i := 0; i < 6; i++ {
		st, err := s.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if st.Epoch != i {
			t.Fatalf("epoch %d reported as %d", i, st.Epoch)
		}
		got = append(got, st)
	}
	if !bytes.Equal(histBytes(t, want), histBytes(t, got)) {
		t.Fatal("streamed history differs from batch Run history on equal seeds")
	}
	if s.Delivered() != 6 {
		t.Fatalf("Delivered = %d, want 6", s.Delivered())
	}
}

func TestSessionEpochsIterator(t *testing.T) {
	eng, err := sessionScenario(11).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Session(context.Background(), WithMaxEpochs(4))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for st, err := range s.Epochs() {
		if err != nil {
			t.Fatalf("epoch %d: %v", n, err)
		}
		if st.Epoch != n {
			t.Fatalf("epoch index %d, want %d", st.Epoch, n)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("iterator yielded %d epochs, want 4", n)
	}
	if _, err := s.Next(); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("Next after budget = %v, want ErrSessionDone", err)
	}

	// Breaking out of the range keeps the session usable for more pulls.
	s2, err := eng.Session(context.Background(), WithMaxEpochs(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s2.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if _, err := s2.Next(); err != nil {
		t.Fatalf("Next after break: %v", err)
	}
	if s2.Delivered() != 2 {
		t.Fatalf("Delivered = %d, want 2", s2.Delivered())
	}
}

func TestSessionObserversDoNotPerturb(t *testing.T) {
	plain, err := sessionScenario(13).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}

	observed, err := sessionScenario(13).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	epochs, rounds := 0, 0
	s, err := observed.Session(context.Background(),
		WithMaxEpochs(5),
		OnEpoch(func(EpochStats) { epochs++ }),
		OnRound(func(RoundStats) { rounds++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
	}
	if epochs != 5 {
		t.Fatalf("OnEpoch fired %d times, want 5", epochs)
	}
	if rounds != 5*4 {
		t.Fatalf("OnRound fired %d times, want %d", rounds, 5*4)
	}
	if !bytes.Equal(histBytes(t, want), histBytes(t, observed.History())) {
		t.Fatal("observers perturbed the epoch history")
	}
}

func TestSessionContextCancel(t *testing.T) {
	eng, err := sessionScenario(17).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := eng.Session(ctx, WithMaxEpochs(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	// The error sticks.
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel = %v, want context.Canceled", err)
	}
}

// TestSessionCancelMidEpoch pins the between-rounds cancellation check: a
// context cancelled while an epoch is in flight stops the session within a
// round, instead of stalling shutdown behind the rest of a large epoch.
func TestSessionCancelMidEpoch(t *testing.T) {
	sc := sessionScenario(23)
	sc.EpochRounds = 1000
	eng := newEngine(t, sc)
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	s, err := eng.Session(ctx, WithMaxEpochs(1), OnRound(func(RoundStats) {
		rounds++
		if rounds == 2 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next with mid-epoch cancel = %v, want context.Canceled", err)
	}
	if rounds >= 1000 {
		t.Fatalf("epoch ran to completion (%d rounds) despite cancellation", rounds)
	}
	// The error sticks, like every other session failure.
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after mid-epoch cancel = %v, want context.Canceled", err)
	}
}

func TestLeaveJoinWaveChangesLoad(t *testing.T) {
	eng, err := sessionScenario(19).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	leavers := make([]int, 0, 30)
	for u := 20; u < 50; u++ {
		leavers = append(leavers, u)
	}
	sched := Schedule{}.
		At(2, LeaveWave{Users: leavers}).
		At(4, JoinWave{Users: leavers})

	perEpoch := make(map[int]int) // epoch -> interactions
	activeAt := make(map[int]int) // epoch -> present peers while it ran
	epoch := 0
	s, err := eng.Session(context.Background(),
		WithMaxEpochs(6),
		WithSchedule(sched),
		OnEpoch(func(st EpochStats) { activeAt[st.Epoch] = eng.ActivePeers(); epoch = st.Epoch + 1 }),
		OnRound(func(rs RoundStats) { perEpoch[epoch] += rs.Interactions }),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
	}
	if activeAt[1] != 60 || activeAt[2] != 30 || activeAt[5] != 60 {
		t.Fatalf("active-peer trajectory %v, want 60 before, 30 during, 60 after", activeAt)
	}
	// Half the population gone: epochs 2-3 must carry clearly less load than
	// epochs 0-1, and the load must recover after the join wave.
	before := perEpoch[0] + perEpoch[1]
	during := perEpoch[2] + perEpoch[3]
	after := perEpoch[4] + perEpoch[5]
	if during >= before*3/4 {
		t.Fatalf("leave wave did not reduce load: before=%d during=%d", before, during)
	}
	if after <= during {
		t.Fatalf("join wave did not restore load: during=%d after=%d", during, after)
	}
}

func TestBehaviorChangeActivatesAdversaries(t *testing.T) {
	eng := newEngine(t, Scenario{Peers: 60, Seed: 23, Coupled: true, EpochRounds: 4, RecomputeEvery: 2})
	// All honest; at epoch 3, half the population turns malicious.
	turned := make([]int, 0, 30)
	for u := 30; u < 60; u++ {
		turned = append(turned, u)
	}
	s, err := eng.Session(context.Background(),
		WithMaxEpochs(6),
		WithSchedule(Schedule{}.At(3, BehaviorChange{Users: turned, Class: Malicious})),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
	}
	hist := eng.History()
	if hist[2].BadRate != 0 {
		// All-honest epochs deliver good-quality service (quality >= 0.5
		// given default noise), so any bad service means the swap leaked.
		t.Fatalf("bad service before activation: %v", hist[2].BadRate)
	}
	if hist[3].BadRate <= 0.1 {
		t.Fatalf("adversary activation had no effect: bad rate %v", hist[3].BadRate)
	}
	classes := eng.Classes()
	for _, u := range turned {
		if classes[u] != Malicious {
			t.Fatalf("user %d class = %v, want malicious", u, classes[u])
		}
	}
}

func TestPolicyChangeMidRun(t *testing.T) {
	eng, err := sessionScenario(29).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{}.
		At(2, DisclosureChange{Base: 0}). // go silent
		At(4, PolicyChange{Policy: PrivacyPolicy{Disclosure: 1, ExposureScale: 50}})
	s, err := eng.Session(context.Background(), WithMaxEpochs(6), WithSchedule(sched))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
	}
	hist := eng.History()
	if hist[2].Disclosure != 0 {
		t.Fatalf("epoch 2 disclosure = %v, want 0 after silence intervention", hist[2].Disclosure)
	}
	if hist[4].Disclosure <= hist[2].Disclosure {
		t.Fatalf("policy restore did not raise disclosure: %v -> %v", hist[2].Disclosure, hist[4].Disclosure)
	}
}

func TestScheduleValidation(t *testing.T) {
	eng, err := sessionScenario(31).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	cases := []Schedule{
		Schedule{}.At(-1, JoinWave{Users: []int{1}}),
		Schedule{}.At(2, LeaveWave{Users: []int{999}}),
		Schedule{}.At(2, LeaveWave{}),
		Schedule{}.At(2, TrustGateChange{Gate: 1.5}),
		Schedule{}.At(2, HonestyChange{Base: -0.1}),
		// NaN fails every comparison, so each check must refuse it.
		Schedule{}.At(2, TrustGateChange{Gate: math.NaN()}),
		Schedule{}.At(2, HonestyChange{Base: math.NaN()}),
		Schedule{}.At(2, DisclosureChange{Base: math.NaN()}),
		Schedule{}.At(2, PolicyChange{Policy: PrivacyPolicy{Disclosure: math.NaN()}}),
		Schedule{}.At(2, PolicyChange{Policy: PrivacyPolicy{Disclosure: 1, TrustGate: math.NaN()}}),
		Schedule{}.At(2, PolicyChange{Policy: PrivacyPolicy{Disclosure: 1, ExposureScale: math.NaN()}}),
		Schedule{}.At(2, PolicyChange{Policy: PrivacyPolicy{Disclosure: 1, ExposureScale: math.Inf(1)}}),
		Schedule{}.At(2, BehaviorChange{Users: []int{1}, Class: Class(99)}),
		{ScheduledIntervention{Epoch: 1, Action: nil}},
	}
	for i, sched := range cases {
		if _, err := eng.Session(context.Background(), WithSchedule(sched)); err == nil {
			t.Errorf("case %d: bad schedule accepted", i)
		}
	}
	// Whitewash requires a Whitewasher mechanism; the None baseline is not.
	plain := newEngine(t, Scenario{Peers: 10, Mechanism: MechanismSpec{Kind: "none"}})
	if _, err := plain.Session(context.Background(),
		WithSchedule(Schedule{}.At(1, WhitewashWave{Users: []int{3}}))); err == nil {
		t.Error("whitewash wave accepted for non-whitewashing mechanism")
	}
}

func TestScheduleBranchesIndependently(t *testing.T) {
	base := Schedule{}.At(1, JoinWave{Users: []int{1}})
	s1 := base.At(5, LeaveWave{Users: []int{2}})
	s2 := base.At(5, LeaveWave{Users: []int{3}})
	if got := s1[1].Action.(LeaveWave).Users[0]; got != 2 {
		t.Fatalf("branched schedule s1 sees user %d, want 2 (shared backing array)", got)
	}
	if got := s2[1].Action.(LeaveWave).Users[0]; got != 3 {
		t.Fatalf("branched schedule s2 sees user %d, want 3", got)
	}
	if len(base) != 1 {
		t.Fatalf("base schedule mutated to length %d", len(base))
	}
}

func TestHistoryReturnsCopy(t *testing.T) {
	eng, err := sessionScenario(37).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	h := eng.History()
	h[0].Trust = -999
	h[1] = EpochStats{}
	fresh := eng.History()
	if fresh[0].Trust == -999 || fresh[1] == (EpochStats{}) {
		t.Fatal("History exposes the engine's internal record")
	}
}

// sessionWith is the session scenario under another mechanism.
func sessionWith(seed uint64, m MechanismSpec) Scenario {
	sc := sessionScenario(seed)
	sc.Mechanism = m
	return sc
}

// sessionSharded is the session scenario at a shard count.
func sessionSharded(seed uint64, shards int) Scenario {
	sc := sessionScenario(seed)
	sc.Shards = shards
	return sc
}
