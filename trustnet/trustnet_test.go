package trustnet

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/reputation"
)

// mix is the honest/malicious composition most tests run, with peers 0–2
// forced honest.
func mix(malicious float64) *MixSpec {
	return &MixSpec{
		Fractions:   map[string]float64{"honest": 1 - malicious, "malicious": malicious},
		ForceHonest: []int{0, 1, 2},
	}
}

// newEngine builds the scenario's engine, failing the test on error.
func newEngine(t testing.TB, sc Scenario) *Engine {
	t.Helper()
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name    string
		sc      Scenario
		wantErr string
	}{
		{"defaults", Scenario{}, ""},
		// A Scenario's zero count is unset and takes its default; a
		// negative one is refused.
		{"zero epoch rounds", Scenario{EpochRounds: 0}, ""},
		{"zero interactions", Scenario{InteractionsPerRound: 0}, ""},
		{"zero candidates", Scenario{CandidateSize: 0}, ""},
		{"zero recompute", Scenario{RecomputeEvery: 0}, ""},
		{"zero shards", Scenario{Shards: 0}, ""},
		// Names match exactly.
		{"unknown graph kind", Scenario{Graph: &GraphSpec{Kind: "Barabasi-Albert", Param: 4}}, "graph kind"},
		{"unknown selection", Scenario{Selection: "Best"}, "selection"},
		{"peers too small", Scenario{Peers: 1}, "NumPeers"},
		{"negative graph param", Scenario{Graph: &GraphSpec{Kind: "barabasi-albert"}}, "graph parameter"},
		{"too few peers for BA", Scenario{Peers: 4}, "barabasi-albert graph with m=4"},
		{"too few peers for WS", Scenario{Peers: 2, Graph: &GraphSpec{Kind: "watts-strogatz", Param: 4}}, "watts-strogatz graph with k=4"},
		{"disclosure above one", Scenario{Privacy: &PrivacyPolicy{Disclosure: 1.5}}, "disclosure"},
		{"negative disclosure", Scenario{Privacy: &PrivacyPolicy{Disclosure: -0.1}}, "disclosure"},
		{"negative disclosure of one", Scenario{Privacy: &PrivacyPolicy{Disclosure: -1}}, "disclosure"},
		{"gate at one", Scenario{Privacy: &PrivacyPolicy{TrustGate: 1}}, "trust gate"},
		{"negative exposure scale", Scenario{Privacy: &PrivacyPolicy{ExposureScale: -1}}, "exposure scale"},
		{"bad satisfaction memory", Scenario{Satisfaction: &SatisfactionModel{Memory: 1}}, "memory"},
		{"NaN satisfaction memory", Scenario{Peers: 50, Satisfaction: &SatisfactionModel{Memory: math.NaN()}}, "memory"},
		{"zero weights", Scenario{Weights: &Weights{}}, "zero"},
		{"negative weight", Scenario{Weights: &Weights{Satisfaction: -1, Reputation: 1, Privacy: 1}}, "negative"},
		{"negative user", Scenario{UserWeights: map[int]Weights{-1: DefaultWeights()}}, "user"},
		{"user weights out of range", Scenario{Peers: 10, UserWeights: map[int]Weights{10: DefaultWeights()}}, "out of range"},
		{"bad user weights", Scenario{UserWeights: map[int]Weights{3: {}}}, "zero"},
		{"inertia at one", Scenario{Inertia: floatPtr(1)}, "inertia"},
		{"negative inertia", Scenario{Inertia: floatPtr(-1)}, "inertia"},
		{"base honesty above one", Scenario{BaseHonesty: floatPtr(1.1)}, "honesty"},
		{"negative base honesty", Scenario{BaseHonesty: floatPtr(-1)}, "honesty"},
		{"negative interactions", Scenario{InteractionsPerRound: -1}, "interactions"},
		{"negative candidates", Scenario{CandidateSize: -1}, "candidate"},
		{"negative skew", Scenario{ActivitySkew: -1}, "skew"},
		{"BA over the int32 friend index", Scenario{Peers: 70000, Graph: &GraphSpec{Kind: "barabasi-albert", Param: 65000}}, "int32 friend index"},
		{"WS over the int32 friend index", Scenario{Peers: 1 << 20, Graph: &GraphSpec{Kind: "watts-strogatz", Param: 1 << 12}}, "int32 friend index"},
		{"peers over the int32 id range", Scenario{Peers: math.MaxInt32 + 1}, "int32 id range"},
		{"bad mechanism parameter", Scenario{Mechanism: MechanismSpec{Pretrusted: []int{100}}}, "mechanism"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sc.NewEngine()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewEngine() = %v, want success", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewEngine() err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestFirstOptionErrorWins: a scenario with several bad values reports the
// population's before the dynamics'.
func TestFirstOptionErrorWins(t *testing.T) {
	_, err := Scenario{Peers: -1, Inertia: floatPtr(5)}.NewEngine()
	if err == nil || !strings.Contains(err.Error(), "NumPeers") {
		t.Fatalf("err = %v, want the population error first", err)
	}
}

// TestMechanismSwapping builds every mechanism kind into the same
// scenario; each must run and report scores for the full population under
// its own name.
func TestMechanismSwapping(t *testing.T) {
	const peers = 40
	for _, spec := range []MechanismSpec{
		{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		{Kind: "trustme"},
		{Kind: "powertrust"},
		{Kind: "powertrust-plain"},
		{Kind: "anonrep", Seed: 5},
		{Kind: "none"},
	} {
		eng := newEngine(t, Scenario{
			Peers:          peers,
			Seed:           3,
			Mix:            mix(0.3),
			Mechanism:      spec,
			RecomputeEvery: 2,
		})
		eng.RunRounds(10)
		name := strings.TrimSuffix(spec.Kind, "-plain")
		if got := eng.Mechanism().Name(); !strings.HasPrefix(got, name) {
			t.Fatalf("mechanism name = %q, want prefix %q", got, name)
		}
		if got := len(eng.Mechanism().ScoresView()); got != peers {
			t.Fatalf("%s: scores length = %d, want %d", spec.Kind, got, peers)
		}
		a := eng.Assess()
		if len(a.PerUser) != peers {
			t.Fatalf("%s: assessment covers %d users, want %d", spec.Kind, len(a.PerUser), peers)
		}
	}
}

// TestWhitewasherSeam checks the standalone mechanisms that advertise the
// identity reset a WhitewashWave needs.
func TestWhitewasherSeam(t *testing.T) {
	et, err := NewEigenTrust(EigenTrustConfig{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTrustMe(TrustMeConfig{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []reputation.Whitewasher{et, tm} {
		w.Whitewash(0) // must not panic on fresh state
	}
}

// TestDeterministicSeededRuns: equal seeds and settings reproduce the
// coupled trajectory and the batch assessment bit for bit; a different
// seed diverges.
func TestDeterministicSeededRuns(t *testing.T) {
	build := func(seed uint64) *Engine {
		return newEngine(t, Scenario{
			Peers:          60,
			Seed:           seed,
			Mix:            mix(0.3),
			Mechanism:      MechanismSpec{Pretrusted: []int{0, 1, 2}},
			Privacy:        &PrivacyPolicy{Disclosure: 0.8},
			RecomputeEvery: 2,
			Coupled:        true,
			EpochRounds:    4,
		})
	}
	ctx := context.Background()
	a := build(7)
	b := build(7)
	ha, err := a.Run(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Run(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ha) != len(hb) {
		t.Fatalf("history lengths differ: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("epoch %d diverged under equal seeds:\n%+v\n%+v", i, ha[i], hb[i])
		}
	}
	ua, err := a.AssessAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := b.AssessAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("user %d assessment diverged under equal seeds", i)
		}
	}

	c := build(8)
	hc, err := c.Run(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ha {
		if ha[i] != hc[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestAssessAllCoversEveryUser: the batch path assesses every user of a
// 1200-user population, in user order, and agrees with the single-shot
// path.
func TestAssessAllCoversEveryUser(t *testing.T) {
	const peers = 1200
	eng := newEngine(t, Scenario{
		Peers:          peers,
		Seed:           11,
		Mix:            mix(0.3),
		Mechanism:      MechanismSpec{Pretrusted: []int{0, 1, 2}},
		UserWeights:    map[int]Weights{5: {Satisfaction: 1, Reputation: 0.5, Privacy: 3}},
		RecomputeEvery: 2,
	})
	eng.RunRounds(4)
	all, err := eng.AssessAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != peers {
		t.Fatalf("AssessAll covered %d users, want %d", len(all), peers)
	}
	for i, u := range all {
		if u.User != i {
			t.Fatalf("user %d assessment landed at index %d", u.User, i)
		}
		if u.Trust < 0 || u.Trust > 1 || math.IsNaN(u.Trust) {
			t.Fatalf("user %d trust %v out of [0,1]", i, u.Trust)
		}
		if !u.Facets.Valid() {
			t.Fatalf("user %d facets %+v invalid", i, u.Facets)
		}
	}
	// The batch path must agree with the single-shot path combined under
	// each user's effective weights.
	a := eng.Assess()
	for _, u := range []int{0, 5, peers - 1} {
		want, err := Combine(a.PerUser[u], eng.dyn.TrustModel().UserWeights(u))
		if err != nil {
			t.Fatal(err)
		}
		if got := all[u].Trust; got != want {
			t.Fatalf("user %d batch trust %v != single-shot %v", u, got, want)
		}
	}
}

func TestAssessAllHonoursContext(t *testing.T) {
	eng := newEngine(t, Scenario{Peers: 50, Seed: 2, Mix: mix(0.2)})
	eng.RunRounds(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AssessAll(ctx); err == nil {
		t.Fatal("AssessAll ignored a cancelled context")
	}
}

func TestRunHonoursContext(t *testing.T) {
	eng := newEngine(t, Scenario{Peers: 30, Seed: 2, Mix: mix(0.2)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, 5); err == nil {
		t.Fatal("Run ignored a cancelled context")
	}
	if got := len(eng.History()); got != 0 {
		t.Fatalf("cancelled run still recorded %d epochs", got)
	}
}

// TestZeroDisclosure: a scenario can express a true zero base disclosure,
// which the raw config's zero value cannot; nothing reaches the mechanism.
func TestZeroDisclosure(t *testing.T) {
	sc := Scenario{Peers: 30, Seed: 4, Mix: mix(0.2), Privacy: &PrivacyPolicy{Disclosure: 0}}
	eng := newEngine(t, sc)
	if _, err := eng.Epoch(); err != nil {
		t.Fatal(err)
	}
	if got := eng.SharedReports(); got != 0 {
		t.Fatalf("zero disclosure still shared %d reports", got)
	}

	// The guarantee must also hold on the RunRounds path, which never
	// installs the dynamics' per-epoch disclosure vector.
	eng2 := newEngine(t, sc)
	eng2.RunRounds(10)
	if got := eng2.SharedReports(); got != 0 {
		t.Fatalf("zero disclosure still shared %d reports on the RunRounds path", got)
	}
}

func TestUserWeightsChangeAssessment(t *testing.T) {
	build := func(userWeights map[int]Weights) *Engine {
		eng := newEngine(t, Scenario{
			Peers:       40,
			Seed:        6,
			Mix:         mix(0.3),
			Privacy:     &PrivacyPolicy{Disclosure: 0.5},
			UserWeights: userWeights,
		})
		eng.RunRounds(10)
		return eng
	}
	plain := build(nil)
	weighted := build(map[int]Weights{3: {Satisfaction: 0.1, Reputation: 0.1, Privacy: 5}})
	ctx := context.Background()
	ap, err := plain.AssessAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := weighted.AssessAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ap[3].Trust == aw[3].Trust {
		t.Fatal("per-user weights did not change the user's combined trust")
	}
	if ap[4].Trust != aw[4].Trust {
		t.Fatal("per-user weights leaked into another user's trust")
	}
}

// TestExploreAndOptimize runs a tiny grid end to end through the facade.
func TestExploreAndOptimize(t *testing.T) {
	cfg := ExploreConfig{
		Scenario: Scenario{
			Peers:          24,
			Seed:           5,
			Mix:            &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}},
			Mechanism:      MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
			RecomputeEvery: 2,
			EpochRounds:    6,
		},
		GridSize: 2,
	}
	ctx := context.Background()
	res, err := Explore(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("explored %d points, want 4", len(res.Points))
	}
	if res.Best.Trust <= 0 {
		t.Fatalf("best trust %v, want > 0", res.Best.Trust)
	}
	pt, err := Optimize(ctx, cfg, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Trust < res.Best.Trust {
		t.Fatalf("optimizer (%v) fell below the grid best (%v)", pt.Trust, res.Best.Trust)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Explore(cancelled, cfg); err == nil {
		t.Fatal("Explore ignored a cancelled context")
	}
	if _, err := Optimize(ctx, cfg, Constraints{MinPrivacy: 2}); err != ErrInfeasible {
		t.Fatalf("Optimize err = %v, want ErrInfeasible", err)
	}
}

// TestExplicitZeroInertia: an explicit zero Inertia must really run
// memoryless, not silently fall back to the core default of 0.5.
func TestExplicitZeroInertia(t *testing.T) {
	build := func(inertia *float64) []EpochStats {
		eng := newEngine(t, Scenario{
			Peers: 40, Seed: 3, Mix: mix(0.3),
			Privacy:     &PrivacyPolicy{Disclosure: 0.8},
			EpochRounds: 3,
			Inertia:     inertia,
		})
		h, err := eng.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	def := build(nil)            // inertia defaults to 0.5
	zero := build(floatPtr(0))   // memoryless
	half := build(floatPtr(0.5)) // explicit default
	for i := range def {
		if def[i] != half[i] {
			t.Fatalf("explicit 0.5 diverged from default at epoch %d", i)
		}
	}
	same := true
	for i := range def {
		if def[i].Trust != zero[i].Trust {
			same = false
		}
	}
	if same {
		t.Fatal("Inertia 0 produced the default-inertia trajectory; the explicit zero was swallowed")
	}
}

// TestExplorerRejectsDynamicsFields: coupled-dynamics fields in an
// explorer scenario fail loudly instead of being silently dropped.
func TestExplorerRejectsDynamicsFields(t *testing.T) {
	half := 0.5
	for _, tc := range []struct {
		name string
		mut  func(*Scenario)
	}{
		{"Coupled", func(sc *Scenario) { sc.Coupled = true }},
		{"Epochs", func(sc *Scenario) { sc.Epochs = 3 }},
		{"Inertia", func(sc *Scenario) { sc.Inertia = &half }},
		{"BaseHonesty", func(sc *Scenario) { sc.BaseHonesty = &half }},
		{"UserWeights", func(sc *Scenario) { sc.UserWeights = map[int]Weights{0: DefaultWeights()} }},
		{"Schedule", func(sc *Scenario) { sc.Schedule = Schedule{}.At(1, CouplingChange{Enabled: true}) }},
	} {
		sc := Scenario{Peers: 20, Seed: 1}
		tc.mut(&sc)
		cfg := ExploreConfig{Scenario: sc, GridSize: 2}
		if _, err := EvaluateSetting(cfg, Setting{}); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s: err = %v, want rejection naming the field", tc.name, err)
		}
	}
}

// TestEvaluateSettingDeterministic: the explorer builds a fresh mechanism
// per point, so re-evaluating a setting reproduces it exactly.
func TestEvaluateSettingDeterministic(t *testing.T) {
	cfg := ExploreConfig{
		Scenario: Scenario{
			Peers:          24,
			Seed:           5,
			Mix:            &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}},
			RecomputeEvery: 2,
			EpochRounds:    6,
		},
	}
	s := Setting{Disclosure: 0.5, TrustGate: 0.2}
	p1, err := EvaluateSetting(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := EvaluateSetting(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("re-evaluated setting diverged:\n%+v\n%+v", p1, p2)
	}
}
