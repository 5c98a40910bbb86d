package trustnet

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// roundTripScenario is a spec exercising every serializable surface,
// including an intervention schedule.
func roundTripScenario() Scenario {
	inertia := 0.4
	return Scenario{
		Name:  "round-trip",
		Peers: 40,
		Seed:  9,
		Mix: &MixSpec{
			Fractions:   map[string]float64{"honest": 0.7, "malicious": 0.2, "selfish": 0.1},
			ForceHonest: []int{0, 1},
		},
		Graph:          &GraphSpec{Kind: "watts-strogatz", Param: 4},
		Mechanism:      MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}},
		Privacy:        &PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.1},
		Coupled:        true,
		Inertia:        &inertia,
		EpochRounds:    4,
		Epochs:         5,
		RecomputeEvery: 2,
		Schedule: Schedule{}.
			At(1, LeaveWave{Users: []int{5, 6}}).
			At(2, DisclosureChange{Base: 0.5}).
			At(3, JoinWave{Users: []int{5, 6}}, BehaviorChange{Users: []int{7}, Class: Malicious}).
			At(4, PolicyChange{Policy: PrivacyPolicy{Disclosure: 0.6, TrustGate: 0.2, ExposureScale: 40}}),
	}
}

// TestScenarioJSONRoundTrip: marshal → unmarshal must reproduce the spec
// exactly — concrete intervention types included — and the round-tripped
// spec must produce bit-for-bit the run of the original.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := roundTripScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ScenarioFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, rt) {
		t.Fatalf("round trip diverged:\n%+v\n!=\n%+v", sc, rt)
	}

	ctx := context.Background()
	_, h1, err := sc.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := rt.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("round-tripped scenario ran a different trajectory")
	}
}

// TestScenarioRejectsUnknownFields: a typo in a spec file, or anything
// after the spec, fails loudly.
func TestScenarioRejectsUnknownFields(t *testing.T) {
	for _, spec := range []string{
		`{"peers": 20, "peeers": 30}`,
		`{"peers": 30} {"peers": 5000000}`,
		`{"peers": 30}garbage`,
		`{"peers": 30}}`,
	} {
		if sc, err := ScenarioFromJSON([]byte(spec)); err == nil {
			t.Fatalf("%s loaded as %d peers", spec, sc.Peers)
		}
	}
	if _, err := ScenarioFromJSON([]byte("{\"peers\": 30}\n")); err != nil {
		t.Fatalf("trailing white space refused: %v", err)
	}
}

// TestScenarioOptionErrors: malformed specs fail at construction with
// errors naming the offender, never by silently running defaults.
func TestScenarioOptionErrors(t *testing.T) {
	w := DefaultWeights()
	cases := []struct {
		name    string
		sc      Scenario
		wantErr string
	}{
		{"unknown class", Scenario{Mix: &MixSpec{Fractions: map[string]float64{"sneaky": 1}}}, "behaviour class"},
		{"unknown graph", Scenario{Graph: &GraphSpec{Kind: "torus", Param: 3}}, "graph kind"},
		{"unknown mechanism", Scenario{Mechanism: MechanismSpec{Kind: "oracle"}}, "mechanism kind"},
		{"unknown selection", Scenario{Selection: "worst"}, "selection"},
		{"unknown context", Scenario{Context: "space"}, "context"},
		{"context and weights", Scenario{Context: "balanced", Weights: &w}, "both"},
		{"negative epochs", Scenario{Epochs: -1}, "epochs"},
		{"negative workers", Scenario{Workers: -1}, "worker"},
		{"negative peers", Scenario{Peers: -5}, "NumPeers"},
		{"negative epoch rounds", Scenario{EpochRounds: -1}, "epoch rounds"},
		{"negative shards", Scenario{Shards: -2}, "shard"},
		{"negative recompute", Scenario{RecomputeEvery: -1}, "recompute"},
		// NaN fails every comparison, so each range check must refuse it
		// explicitly; an unbounded range still refuses +Inf.
		{"NaN inertia", nanScenario(func(sc *Scenario) { sc.Inertia = floatPtr(nan) }), "inertia"},
		{"NaN base honesty", nanScenario(func(sc *Scenario) { sc.BaseHonesty = floatPtr(nan) }), "honesty"},
		{"NaN disclosure", nanScenario(func(sc *Scenario) { sc.Privacy = &PrivacyPolicy{Disclosure: nan} }), "disclosure"},
		{"NaN trust gate", nanScenario(func(sc *Scenario) { sc.Privacy = &PrivacyPolicy{Disclosure: 1, TrustGate: nan} }), "trust gate"},
		{"NaN exposure scale", nanScenario(func(sc *Scenario) { sc.Privacy = &PrivacyPolicy{Disclosure: 1, ExposureScale: nan} }), "exposure scale"},
		{"+Inf exposure scale", nanScenario(func(sc *Scenario) { sc.Privacy = &PrivacyPolicy{Disclosure: 1, ExposureScale: inf} }), "exposure scale"},
		{"NaN activity skew", nanScenario(func(sc *Scenario) { sc.ActivitySkew = nan }), "skew"},
		{"+Inf activity skew", nanScenario(func(sc *Scenario) { sc.ActivitySkew = inf }), "skew"},
		{"NaN satisfaction weight", nanScenario(func(sc *Scenario) { sc.Weights = &Weights{Satisfaction: nan, Reputation: 1, Privacy: 1} }), "weight"},
		{"+Inf privacy weight", nanScenario(func(sc *Scenario) { sc.Weights = &Weights{Satisfaction: 1, Reputation: 1, Privacy: inf} }), "weight"},
		{"NaN EigenTrust alpha", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "eigentrust", Alpha: nan} }), "alpha"},
		{"NaN PowerTrust alpha", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "powertrust", Alpha: nan} }), "alpha"},
		{"NaN AnonRep granularity", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "anonrep", Granularity: nan} }), "granularity"},
		{"NaN AnonRep noise", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "anonrep", Noise: nan} }), "noise"},
		{"NaN AnonRep prior strength", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "anonrep", PriorStrength: nan} }), "prior strength"},
		{"NaN EigenTrust epsilon", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "eigentrust", Epsilon: nan} }), "epsilon"},
		{"+Inf PowerTrust epsilon", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "powertrust", Epsilon: inf} }), "epsilon"},
		// Only zero means "default": a negative setting is an error, not a
		// silent default.
		{"negative EigenTrust epsilon", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "eigentrust", Epsilon: -1} }), "epsilon"},
		{"negative PowerTrust epsilon", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "powertrust", Epsilon: -1e-6} }), "epsilon"},
		{"negative EigenTrust max iterations", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "eigentrust", MaxIter: -1} }), "max iterations"},
		{"negative PowerTrust max iterations", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "powertrust", MaxIter: -5} }), "max iterations"},
		{"negative AnonRep prior strength", nanScenario(func(sc *Scenario) { sc.Mechanism = MechanismSpec{Kind: "anonrep", PriorStrength: -3} }), "prior strength"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sc.NewEngine()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewEngine() err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

var nan, inf = math.NaN(), math.Inf(1)

// nanScenario is a small coupled scenario with one field set by edit.
func nanScenario(edit func(*Scenario)) Scenario {
	sc := Scenario{Peers: 30, Coupled: true}
	edit(&sc)
	return sc
}

// TestRunRejectsNegativeEpochs: the batch wrapper errors instead of
// silently clamping.
func TestRunRejectsNegativeEpochs(t *testing.T) {
	eng := newEngine(t, Scenario{Peers: 10, Seed: 1})
	if _, err := eng.Run(context.Background(), -1); err == nil {
		t.Fatal("negative epoch count accepted")
	}
}

// TestScenarioRegistry: the five examples are registered under distinct
// names; lookups hand out isolated copies.
func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Fatalf("scenario names not sorted and distinct: %v", names)
	}
	for _, want := range []string{"quickstart", "filesharing", "socialfeed", "churnstorm", "tradeoff"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in scenario %q not registered (have %v)", want, names)
		}
	}
	sc := MustScenario("quickstart")
	sc.Peers = 7
	sc.Mix.Fractions["malicious"] = 0.9
	again := MustScenario("quickstart")
	if again.Peers == 7 || again.Mix.Fractions["malicious"] == 0.9 {
		t.Fatal("registry handed out a shared mutable scenario")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustScenario on an unknown name did not panic")
		}
	}()
	MustScenario("no-such-scenario")
}

// TestBuiltinScenariosRun: every registered built-in compiles and runs end
// to end, deterministically.
func TestBuiltinScenariosRun(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := MustScenario(name)
			// Shrink for test time; shards must not change results.
			sc.Epochs = 2
			if sc.EpochRounds > 6 {
				sc.EpochRounds = 6
			}
			_, h1, err := sc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sc2 := MustScenario(name)
			sc2.Epochs = 2
			if sc2.EpochRounds > 6 {
				sc2.EpochRounds = 6
			}
			sc2.Shards = 4
			_, h2, err := sc2.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h1, h2) {
				t.Fatalf("%s: shard count changed the trajectory", name)
			}
		})
	}
}

// TestLoadScenario resolves registered names first, then spec files, and
// reports both origins on a miss.
func TestLoadScenario(t *testing.T) {
	if sc, err := LoadScenario("churnstorm"); err != nil || sc.Name != "churnstorm" {
		t.Fatalf("registered name: %v / %+v", err, sc.Name)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	data, err := json.Marshal(roundTripScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, roundTripScenario()) {
		t.Fatal("file-loaded scenario diverged from the written spec")
	}
	if _, err := LoadScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing scenario reference accepted")
	}
}

// TestScheduleJSONEveryKind pins the wire form of all ten intervention
// kinds, byte for byte, and decodes it back into the same schedule.
func TestScheduleJSONEveryKind(t *testing.T) {
	s := Schedule{}.
		At(1, JoinWave{Users: []int{1, 2}}, LeaveWave{Users: []int{3}}, WhitewashWave{Users: []int{4}}).
		At(2, PolicyChange{Policy: PrivacyPolicy{Disclosure: 0.6, TrustGate: 0.2, ExposureScale: 40}}, TrustGateChange{Gate: 0.3}).
		At(3, DisclosureChange{Base: 0.5}, HonestyChange{Base: 0.7}, CouplingChange{Enabled: true}).
		At(4, BehaviorChange{Users: []int{5}, Class: Malicious}, ReportWave{Reports: []Report{{Rater: 1, Ratee: 2, Value: 0.25}}})
	const want = `[{"epoch":1,"kind":"join-wave","args":{"users":[1,2]}},` +
		`{"epoch":1,"kind":"leave-wave","args":{"users":[3]}},` +
		`{"epoch":1,"kind":"whitewash-wave","args":{"users":[4]}},` +
		`{"epoch":2,"kind":"policy-change","args":{"policy":{"disclosure":0.6,"trust_gate":0.2,"exposure_scale":40}}},` +
		`{"epoch":2,"kind":"trust-gate-change","args":{"gate":0.3}},` +
		`{"epoch":3,"kind":"disclosure-change","args":{"base":0.5}},` +
		`{"epoch":3,"kind":"honesty-change","args":{"base":0.7}},` +
		`{"epoch":3,"kind":"coupling-change","args":{"enabled":true}},` +
		`{"epoch":4,"kind":"behavior-change","args":{"users":[5],"class":"malicious"}},` +
		`{"epoch":4,"kind":"report-wave","args":{"reports":[{"rater":1,"ratee":2,"value":0.25}]}}]`
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Fatalf("schedule encodes as\n%s\nwant\n%s", data, want)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("decoded schedule %+v, want %+v", back, s)
	}
}

// TestScheduleJSONUnknownKind: decoding an unknown intervention tag fails.
func TestScheduleJSONUnknownKind(t *testing.T) {
	var si ScheduledIntervention
	if err := json.Unmarshal([]byte(`{"epoch":1,"kind":"meteor-strike"}`), &si); err == nil {
		t.Fatal("unknown intervention kind accepted")
	}
}

// TestScheduleJSONRejectsUnknownFields: typos in a schedule entry's
// envelope or payload fail loudly — custom unmarshalers do not inherit the
// outer decoder's strictness, so the envelope enforces its own.
func TestScheduleJSONRejectsUnknownFields(t *testing.T) {
	var si ScheduledIntervention
	if err := json.Unmarshal([]byte(`{"epohc":5,"kind":"disclosure-change","args":{"base":0.2}}`), &si); err == nil {
		t.Fatal("envelope typo accepted")
	}
	if err := json.Unmarshal([]byte(`{"epoch":5,"kind":"disclosure-change","args":{"bse":0.2}}`), &si); err == nil {
		t.Fatal("payload typo accepted")
	}
	if err := json.Unmarshal([]byte(`{"epoch":5,"kind":"disclosure-change","args":{"base":0.2}}`), &si); err != nil {
		t.Fatalf("well-formed entry rejected: %v", err)
	}
}

// TestRegistryScheduleIsolation: mutating a looked-up scenario's schedule
// payload must not corrupt the registry's master copy.
func TestRegistryScheduleIsolation(t *testing.T) {
	sc := MustScenario("churnstorm")
	wave, ok := sc.Schedule[0].Action.(LeaveWave)
	if !ok {
		t.Fatalf("churnstorm schedule[0] is %T, want LeaveWave", sc.Schedule[0].Action)
	}
	orig := wave.Users[0]
	wave.Users[0] = 9999
	again := MustScenario("churnstorm")
	if got := again.Schedule[0].Action.(LeaveWave).Users[0]; got != orig {
		t.Fatalf("registry schedule corrupted: user[0] = %d, want %d", got, orig)
	}
}

// TestMixOfFoldsInNameOrder: the honest remainder of a mix is one value
// whatever the map order. A float sum depends on its order: 1−0.1−0.2−0.3
// folded in the six orders of these fractions gives four different values.
func TestMixOfFoldsInNameOrder(t *testing.T) {
	fractions := map[string]float64{"malicious": 0.1, "selfish": 0.2, "traitor": 0.3}
	want := MixOf(fractions).Fractions["honest"]
	for i := 0; i < 200; i++ {
		if got := MixOf(fractions).Fractions["honest"]; got != want {
			t.Fatalf("call %d: honest remainder %v, first call %v", i, got, want)
		}
	}
	// A NaN fraction is refused, not folded into the remainder.
	sc := Scenario{Mix: &MixSpec{Fractions: map[string]float64{"malicious": 0.1}}}
	if err := setClassFraction(&sc, "traitor", math.NaN()); err == nil {
		t.Fatal("NaN class fraction accepted")
	}
	// The sweep's class axis folds its remainder the same way.
	for i := 0; i < 200; i++ {
		sc := Scenario{Mix: &MixSpec{Fractions: map[string]float64{"malicious": 0.1, "selfish": 0.2}}}
		if err := setClassFraction(&sc, "traitor", 0.3); err != nil {
			t.Fatal(err)
		}
		if got := sc.Mix.Fractions["honest"]; got != want {
			t.Fatalf("sweep %d: honest remainder %v, MixOf gives %v", i, got, want)
		}
	}
}
