package trustnet

import (
	"context"
	"math"
	"strings"
	"testing"
)

func mix(malicious float64) Mix {
	return Mix{
		Fractions: map[Class]float64{
			Honest:    1 - malicious,
			Malicious: malicious,
		},
		ForceHonest: []int{0, 1, 2},
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		wantErr string
	}{
		{"defaults", nil, ""},
		{"nil option", []Option{nil}, "nil option"},
		{"peers too small", []Option{WithPeers(1)}, "peers"},
		{"negative graph param", []Option{WithGraph(BarabasiAlbert, 0)}, "graph parameter"},
		{"too few peers for BA", []Option{WithPeers(4)}, "barabasi-albert graph with m=4"},
		{"too few peers for WS", []Option{WithPeers(2), WithGraph(WattsStrogatz, 4)}, "watts-strogatz graph with k=4"},
		{"unknown graph kind", []Option{WithGraph(GraphKind(99), 4)}, "graph kind"},
		{"nil factory", []Option{WithReputationMechanism(nil)}, "factory"},
		{"disclosure above one", []Option{WithPrivacyPolicy(PrivacyPolicy{Disclosure: 1.5})}, "disclosure"},
		{"negative disclosure", []Option{WithPrivacyPolicy(PrivacyPolicy{Disclosure: -0.1})}, "disclosure"},
		{"gate at one", []Option{WithPrivacyPolicy(PrivacyPolicy{TrustGate: 1})}, "trust gate"},
		{"negative exposure scale", []Option{WithPrivacyPolicy(PrivacyPolicy{ExposureScale: -1})}, "exposure scale"},
		{"bad satisfaction memory", []Option{WithSatisfactionModel(SatisfactionModel{Memory: 1})}, "memory"},
		{"NaN satisfaction memory", []Option{WithPeers(50), WithSatisfactionModel(SatisfactionModel{Memory: math.NaN()})}, "memory"},
		{"zero weights", []Option{WithWeights(Weights{})}, "zero"},
		{"negative weight", []Option{WithWeights(Weights{Satisfaction: -1, Reputation: 1, Privacy: 1})}, "negative"},
		{"negative user", []Option{WithUserWeights(-1, DefaultWeights())}, "user"},
		{"user weights out of range", []Option{WithPeers(10), WithUserWeights(10, DefaultWeights())}, "out of range"},
		{"inertia at one", []Option{WithInertia(1)}, "inertia"},
		{"base honesty above one", []Option{WithBaseHonesty(1.1)}, "honesty"},
		{"zero epoch rounds", []Option{WithEpochRounds(0)}, "epoch rounds"},
		{"unknown selection", []Option{WithSelection(Selection(7))}, "selection"},
		{"zero interactions", []Option{WithInteractionsPerRound(0)}, "interactions"},
		{"zero candidates", []Option{WithCandidateSize(0)}, "candidate"},
		{"zero recompute", []Option{WithRecomputeEvery(0)}, "recompute"},
		{"negative skew", []Option{WithActivitySkew(-1)}, "skew"},
		{"zero shards", []Option{WithShards(0)}, "shard"},
		{"BA over the int32 friend index", []Option{WithPeers(70000), WithGraph(BarabasiAlbert, 65000)}, "int32 friend index"},
		{"WS over the int32 friend index", []Option{WithPeers(1 << 20), WithGraph(WattsStrogatz, 1<<12)}, "int32 friend index"},
		{"peers over the int32 id range", []Option{WithPeers(math.MaxInt32 + 1)}, "int32 id range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New() = %v, want success", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New() err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestFirstOptionErrorWins(t *testing.T) {
	_, err := New(WithPeers(0), WithInertia(5))
	if err == nil || !strings.Contains(err.Error(), "peers") {
		t.Fatalf("err = %v, want the first failing option (peers)", err)
	}
}

// TestMechanismSwapping plugs every shipped factory into the same scenario;
// each must run and report scores for the full population under its own
// name.
func TestMechanismSwapping(t *testing.T) {
	const peers = 40
	factories := []struct {
		name    string
		factory MechanismFactory
	}{
		{"eigentrust", EigenTrust(EigenTrustConfig{Pretrusted: []int{0, 1, 2}})},
		{"trustme", TrustMe(TrustMeConfig{})},
		{"powertrust", PowerTrust(PowerTrustConfig{})},
		{"powertrust", PowerTrustPlain(PowerTrustConfig{})},
		{"anonrep", AnonRep(AnonRepConfig{Seed: 5})},
		{"none", NoReputation()},
	}
	for _, f := range factories {
		eng, err := New(
			WithPeers(peers),
			WithRNGSeed(3),
			WithMix(mix(0.3)),
			WithReputationMechanism(f.factory),
			WithRecomputeEvery(2),
		)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		eng.RunRounds(10)
		if got := eng.Mechanism().Name(); !strings.HasPrefix(got, f.name) {
			t.Fatalf("mechanism name = %q, want prefix %q", got, f.name)
		}
		if got := len(eng.Mechanism().ScoresView()); got != peers {
			t.Fatalf("%s: scores length = %d, want %d", f.name, got, peers)
		}
		a := eng.Assess()
		if len(a.PerUser) != peers {
			t.Fatalf("%s: assessment covers %d users, want %d", f.name, len(a.PerUser), peers)
		}
	}
}

func TestUseMechanismKeepsHandle(t *testing.T) {
	mech, err := NewEigenTrust(EigenTrustConfig{N: 30})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(
		WithPeers(30),
		WithRNGSeed(9),
		WithMix(mix(0.2)),
		WithReputationMechanism(UseMechanism(mech)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Mechanism() != Mechanism(mech) {
		t.Fatal("engine did not keep the provided mechanism handle")
	}
}

// TestWhitewasherSeam checks the mechanisms that advertise identity resets
// through the facade interface.
func TestWhitewasherSeam(t *testing.T) {
	et, err := NewEigenTrust(EigenTrustConfig{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTrustMe(TrustMeConfig{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Whitewasher{et, tm} {
		w.Whitewash(0) // must not panic on fresh state
	}
}

// TestDeterministicSeededRuns: equal seeds and settings reproduce the
// coupled trajectory and the batch assessment bit for bit; a different
// seed diverges.
func TestDeterministicSeededRuns(t *testing.T) {
	build := func(seed uint64) *Engine {
		eng, err := New(
			WithPeers(60),
			WithRNGSeed(seed),
			WithMix(mix(0.3)),
			WithReputationMechanism(EigenTrust(EigenTrustConfig{Pretrusted: []int{0, 1, 2}})),
			WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0.8}),
			WithRecomputeEvery(2),
			WithCoupling(true),
			WithEpochRounds(4),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng
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
	eng, err := New(
		WithPeers(peers),
		WithRNGSeed(11),
		WithMix(mix(0.3)),
		WithReputationMechanism(EigenTrust(EigenTrustConfig{Pretrusted: []int{0, 1, 2}})),
		WithUserWeights(5, Weights{Satisfaction: 1, Reputation: 0.5, Privacy: 3}),
		WithRecomputeEvery(2),
	)
	if err != nil {
		t.Fatal(err)
	}
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
		want, err := Combine(a.PerUser[u], eng.TrustModel().UserWeights(u))
		if err != nil {
			t.Fatal(err)
		}
		if got := all[u].Trust; got != want {
			t.Fatalf("user %d batch trust %v != single-shot %v", u, got, want)
		}
	}
}

func TestAssessAllHonoursContext(t *testing.T) {
	eng, err := New(WithPeers(50), WithRNGSeed(2), WithMix(mix(0.2)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AssessAll(ctx); err == nil {
		t.Fatal("AssessAll ignored a cancelled context")
	}
}

func TestRunHonoursContext(t *testing.T) {
	eng, err := New(WithPeers(30), WithRNGSeed(2), WithMix(mix(0.2)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, 5); err == nil {
		t.Fatal("Run ignored a cancelled context")
	}
	if got := len(eng.History()); got != 0 {
		t.Fatalf("cancelled run still recorded %d epochs", got)
	}
}

// TestZeroDisclosure: the option layer can express a true zero base
// disclosure, which the raw config cannot; nothing reaches the mechanism.
func TestZeroDisclosure(t *testing.T) {
	eng, err := New(
		WithPeers(30),
		WithRNGSeed(4),
		WithMix(mix(0.2)),
		WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Epoch(); err != nil {
		t.Fatal(err)
	}
	if got := eng.SharedReports(); got != 0 {
		t.Fatalf("zero disclosure still shared %d reports", got)
	}

	// The guarantee must also hold on the RunRounds path, which never
	// installs the dynamics' per-epoch disclosure vector.
	eng2, err := New(
		WithPeers(30),
		WithRNGSeed(4),
		WithMix(mix(0.2)),
		WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0}),
	)
	if err != nil {
		t.Fatal(err)
	}
	eng2.RunRounds(10)
	if got := eng2.SharedReports(); got != 0 {
		t.Fatalf("zero disclosure still shared %d reports on the RunRounds path", got)
	}
}

func TestUserWeightsChangeAssessment(t *testing.T) {
	build := func(opts ...Option) *Engine {
		base := []Option{
			WithPeers(40),
			WithRNGSeed(6),
			WithMix(mix(0.3)),
			WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0.5}),
		}
		eng, err := New(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunRounds(10)
		return eng
	}
	plain := build()
	weighted := build(WithUserWeights(3, Weights{Satisfaction: 0.1, Reputation: 0.1, Privacy: 5}))
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
		},
		Rounds:   6,
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

// TestUseMechanismSingleUse: a shared instance cannot masquerade as a
// fresh-per-point factory; the second construction fails loudly instead of
// cross-contaminating evaluations.
func TestUseMechanismSingleUse(t *testing.T) {
	mech, err := NewEigenTrust(EigenTrustConfig{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	factory := UseMechanism(mech)
	opts := []Option{WithPeers(20), WithRNGSeed(1), WithReputationMechanism(factory)}
	if _, err := New(opts...); err != nil {
		t.Fatalf("first use: %v", err)
	}
	if _, err := New(opts...); err == nil || !strings.Contains(err.Error(), "single-use") {
		t.Fatalf("second use err = %v, want single-use error", err)
	}
}

// TestUseMechanismSurvivesFailedNew: a construction that fails validation
// must not consume the single-use factory — retrying with corrected
// options succeeds.
func TestUseMechanismSurvivesFailedNew(t *testing.T) {
	mech, err := NewEigenTrust(EigenTrustConfig{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	factory := UseMechanism(mech)
	bad := Mix{Fractions: map[Class]float64{Honest: -1}}
	if _, err := New(WithPeers(20), WithMix(bad), WithReputationMechanism(factory)); err == nil {
		t.Fatal("negative mix fraction accepted")
	}
	if _, err := New(WithPeers(20), WithRNGSeed(1), WithReputationMechanism(factory)); err != nil {
		t.Fatalf("retry after failed New: %v (single-use reservation leaked)", err)
	}
}

// TestExplicitZeroInertia: WithInertia(0) must really run memoryless, not
// silently fall back to the core default of 0.5.
func TestExplicitZeroInertia(t *testing.T) {
	build := func(opts ...Option) []EpochStats {
		base := []Option{
			WithPeers(40), WithRNGSeed(3), WithMix(mix(0.3)),
			WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0.8}),
			WithEpochRounds(3),
		}
		eng, err := New(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		h, err := eng.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	def := build()                  // inertia defaults to 0.5
	zero := build(WithInertia(0))   // memoryless
	half := build(WithInertia(0.5)) // explicit default
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
		t.Fatal("WithInertia(0) produced the default-inertia trajectory; the explicit zero was swallowed")
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
		{"EpochRounds", func(sc *Scenario) { sc.EpochRounds = 5 }},
		{"Epochs", func(sc *Scenario) { sc.Epochs = 3 }},
		{"Inertia", func(sc *Scenario) { sc.Inertia = &half }},
		{"BaseHonesty", func(sc *Scenario) { sc.BaseHonesty = &half }},
		{"UserWeights", func(sc *Scenario) { sc.UserWeights = map[int]Weights{0: DefaultWeights()} }},
		{"Schedule", func(sc *Scenario) { sc.Schedule = Schedule{}.At(1, CouplingChange{Enabled: true}) }},
	} {
		sc := Scenario{Peers: 20, Seed: 1}
		tc.mut(&sc)
		cfg := ExploreConfig{Scenario: sc, Rounds: 3, GridSize: 2}
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
		},
		Rounds: 6,
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
