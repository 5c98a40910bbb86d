// Package trustnet is the public entry point to the library: a facade over
// the paper's correlated three-facet trust model ("Trust your Social
// Network According to Satisfaction, Reputation and Privacy" — Busnel,
// Serrano-Alvarado, Lamarre, 2010) and the substrates it runs on.
//
// The central type is Engine, built from a Scenario — a declarative,
// JSON round-trippable value naming the population, behaviour mix, graph,
// mechanism, privacy policy, coupling and epoch shape:
//
//	eng, err := trustnet.Scenario{
//		Peers:     200,
//		Seed:      42,
//		Mix:       trustnet.MixOf(map[string]float64{"malicious": 0.3}),
//		Mechanism: trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
//		Privacy:   &trustnet.PrivacyPolicy{Disclosure: 0.8},
//		Coupled:   true,
//	}.NewEngine()
//
// An engine offers three assessment paths:
//
//   - Engine.Assess — single-shot: measure the three facets of the scenario
//     as it stands.
//   - Engine.AssessAll — batch: every user's facets and combined trust.
//   - Engine.Run — drive the §3 coupled dynamics epoch by epoch under a
//     context.Context.
//
// Assess, AssessAll and Summary are pure reads: they see the
// mechanism's scores as of its last Compute (every epoch ends with one) and
// never change the run.
//
// Run is the batch wrapper over the session layer. Engine.Session streams
// the same dynamics incrementally — Next pulls one epoch, Epochs adapts the
// session to range-over-func iteration — fires OnEpoch/OnRound observers
// without perturbing determinism, and applies a declarative, epoch-indexed
// intervention Schedule (Join/Leave/Whitewash waves, policy and trust-gate
// changes, honesty and adversary activation) at epoch boundaries.
// Engine.Snapshot captures the complete mutable state (every random-stream
// position included) as a versioned, serializable Snapshot; restoring it
// into an engine built from an identical scenario continues bit-for-bit
// identically to an uninterrupted run, at any shard count.
//
// A Scenario also carries its epoch budget and intervention schedule, so
// Scenario.Run drives it end to end; a fixed registry ships the example
// programs as named built-ins (quickstart, filesharing, socialfeed,
// churnstorm, tradeoff), runnable via `trustsim -scenario`. An Experiment
// is a many-run study as plain data: a base scenario, parameter axes
// (built with Vary, VaryTuples and VaryMechanism), a seed list and an
// epoch budget. Its Run executes the run matrix on the scenario's worker
// pool and aggregates a typed SweepResult (per-epoch
// mean/stddev/quantiles); equal seeds produce byte-identical results at
// any parallelism.
//
// The §4 tradeoff explorer — Explore, Optimize, EvaluateSetting — runs
// over the same declarative scenarios, with its grids and hill-climb
// batches executed as sweeps; each point runs one epoch of the scenario's
// EpochRounds and combines under its Weights or Context.
//
// A MechanismSpec selects the scoring engine by kind ("eigentrust",
// "trustme", "powertrust", "powertrust-plain", "anonrep", "none") and
// builds a fresh one sized for each engine; NewEigenTrust and NewTrustMe
// build standalone mechanisms behind the Mechanism interface.
//
// Beyond that product, the package exports only what the repository's own
// programs name: the privacy service with its policies and audit, the
// simulation clock and random stream they run on, the Watts–Strogatz
// generator, and the rendering tables. DESIGN.md §2 lists every export.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package trustnet
