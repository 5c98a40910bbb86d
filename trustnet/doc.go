// Package trustnet is the public entry point to the library: a facade over
// the paper's correlated three-facet trust model ("Trust your Social
// Network According to Satisfaction, Reputation and Privacy" — Busnel,
// Serrano-Alvarado, Lamarre, 2010) and the substrates it runs on.
//
// The central type is Engine, constructed with functional options:
//
//	eng, err := trustnet.New(
//		trustnet.WithPeers(200),
//		trustnet.WithRNGSeed(42),
//		trustnet.WithMix(trustnet.Mix{Fractions: map[trustnet.Class]float64{
//			trustnet.Honest:    0.7,
//			trustnet.Malicious: 0.3,
//		}}),
//		trustnet.WithReputationMechanism(trustnet.EigenTrust(trustnet.EigenTrustConfig{
//			Pretrusted: []int{0, 1, 2},
//		})),
//		trustnet.WithPrivacyPolicy(trustnet.PrivacyPolicy{Disclosure: 0.8}),
//		trustnet.WithCoupling(true),
//	)
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
// into an engine built from identical options continues bit-for-bit
// identically to an uninterrupted run, at any shard count.
//
// Scenario makes the whole setup a declarative, JSON round-trippable
// value — population, mix, graph, mechanism spec, privacy policy, coupling
// and epoch shape, intervention schedule — whose Options method compiles to
// the functional options above; a Registry ships the example programs as
// named built-ins (quickstart, filesharing, socialfeed, churnstorm,
// tradeoff), runnable via `trustsim -scenario`. Experiment expands a
// scenario over parameter axes (Vary, VaryTuples, VaryMechanism) and seed
// replications (Seeds), executes the run matrix on a bounded worker pool,
// and aggregates typed SweepResults (per-epoch mean/stddev/quantiles,
// CSV/JSON emitters); equal seeds produce byte-identical results at any
// parallelism.
//
// The §4 tradeoff explorer — Explore, Optimize, EvaluateSetting — runs
// over the same declarative scenarios, with its grids and hill-climb
// batches executed as sweeps.
//
// Reputation mechanisms are pluggable through the Mechanism interface; the
// cited implementations ship as factories (EigenTrust, TrustMe, PowerTrust,
// AnonRep, NoReputation). The supporting substrates — privacy service and
// ledger, discrete-event simulator, graph generators, rendering tables —
// are re-exported so programs never import repro/internal directly.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package trustnet
