package trustnet

import (
	"fmt"
	"slices"
)

// ScenarioByName looks up a registered scenario; the returned value is a
// deep copy, so callers may mutate it freely.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range builtinScenarios {
		if sc.Name == name {
			return sc.clone(), true
		}
	}
	return Scenario{}, false
}

// MustScenario is ScenarioByName for built-ins: it panics on an unknown
// name, which for a registered constant is a programming error.
func MustScenario(name string) Scenario {
	sc, ok := ScenarioByName(name)
	if !ok {
		panic(fmt.Sprintf("trustnet: unknown scenario %q", name))
	}
	return sc
}

// ScenarioNames lists the registered scenario names, sorted.
func ScenarioNames() []string {
	names := make([]string, len(builtinScenarios))
	for i, sc := range builtinScenarios {
		names[i] = sc.Name
	}
	slices.Sort(names)
	return names
}

// LoadScenario resolves a scenario reference: a registered name first,
// else a path to a JSON spec file.
func LoadScenario(ref string) (Scenario, error) {
	if sc, ok := ScenarioByName(ref); ok {
		return sc, nil
	}
	sc, err := LoadScenarioFile(ref)
	if err != nil {
		return Scenario{}, fmt.Errorf("trustnet: %q is neither a registered scenario (%v) nor a readable spec file: %w",
			ref, ScenarioNames(), err)
	}
	return sc, nil
}

// floatPtr is a tiny literal helper for the pointer-valued spec fields.
func floatPtr(v float64) *float64 { return &v }

// builtinScenarios is the scenario registry, a fixed table of named,
// ready-to-run specs: the serving baseline and declarative counterparts of
// the five example programs — the same populations, mechanisms and story,
// expressed as static data — so `trustsim -scenario <name>` runs each
// deterministically. They are counterparts, not transcripts: where an
// example computes cohorts or contrasts mechanisms in code (churnstorm
// derives its whitewash wave from the seeded class assignment and runs two
// mechanisms), the spec fixes one concrete, self-contained instance.
var builtinScenarios = [...]Scenario{
	{
		Name:        "quickstart",
		Description: "coupled §3 dynamics: 70/30 honest/malicious on EigenTrust, 80% disclosure",
		Peers:       100,
		Seed:        42,
		Mix:         MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
		Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		Privacy:     &PrivacyPolicy{Disclosure: 0.8},
		Coupled:     true,
		EpochRounds: 8,
		Epochs:      6,

		RecomputeEvery: 2,
	},
	{
		Name:        "filesharing",
		Description: "EigenTrust's motivating P2P file-sharing workload, proportional selection",
		Peers:       150,
		Seed:        7,
		Mix:         MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
		Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		Selection:   "proportional",
		EpochRounds: 50,
		Epochs:      1,

		RecomputeEvery: 2,
	},
	{
		Name:        "socialfeed",
		Description: "a decentralized social feed: small-world graph, heavy-tailed activity, free-riders, gated privacy",
		Peers:       120,
		Seed:        2026,
		Mix:         MixOf(map[string]float64{"selfish": 0.15, "malicious": 0.05}, 0, 1, 2),
		Graph:       &GraphSpec{Kind: "watts-strogatz", Param: 6},
		Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		Privacy:     &PrivacyPolicy{Disclosure: 0.7, TrustGate: 0.2},
		Context:     "privacy",
		Coupled:     true,
		EpochRounds: 6,
		Epochs:      8,

		ActivitySkew:   1.1,
		RecomputeEvery: 2,
	},
	{
		Name:        "churnstorm",
		Description: "a scripted churn storm: leave waves, a whitewash wave and a rejoin wave as an intervention schedule",
		Peers:       100,
		Seed:        42,
		Mix:         MixOf(map[string]float64{"malicious": 0.2}, 0, 1, 2),
		Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		Coupled:     true,
		EpochRounds: 6,
		Epochs:      12,

		RecomputeEvery: 2,
		// Fixed-id cohorts (a spec cannot reference the seeded class
		// assignment like the example program does): one bystander
		// cohort that rides out the storm offline, one churner cohort
		// of mixed behaviour that sheds its identities mid-storm.
		Schedule: Schedule{}.
			At(3, LeaveWave{Users: cohort(10, 30)}).     // bystanders drop out
			At(5, LeaveWave{Users: cohort(70, 90)}).     // the churner cohort bails...
			At(7, WhitewashWave{Users: cohort(70, 90)}). // ...and rejoins under fresh identities
			At(9, JoinWave{Users: cohort(10, 30)}),      // the bystanders come back
	},
	{
		Name:        "baseline",
		Description: "serving baseline: a steady mixed population sized for long-lived trustnetd runs",
		Peers:       100,
		Seed:        1,
		Mix:         MixOf(map[string]float64{"malicious": 0.2, "selfish": 0.05}, 0, 1, 2),
		Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		Privacy:     &PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.1},
		Coupled:     true,
		EpochRounds: 6,
		// Batch runs (trustsim -scenario baseline) get a finite budget;
		// trustnetd ignores it and owns the budget via -max-epochs.
		Epochs: 10,

		RecomputeEvery: 2,
	},
	{
		Name:        "tradeoff",
		Description: "the Fig. 2 base scenario: sweep its disclosure/trust-gate axes to map the frontier",
		Peers:       100,
		Seed:        11,
		Mix:         MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
		Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		Privacy:     &PrivacyPolicy{Disclosure: 0.8},
		EpochRounds: 30,
		Epochs:      1,

		RecomputeEvery: 2,
	},
}

// cohort returns the user ids [lo, hi).
func cohort(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for u := lo; u < hi; u++ {
		out = append(out, u)
	}
	return out
}
