// Package repro is a from-scratch Go reproduction of "Trust your Social
// Network According to Satisfaction, Reputation and Privacy" (Busnel,
// Serrano-Alvarado, Lamarre — 3rd ACM Workshop on Reliability, Availability
// and Security, 2010).
//
// The public entry point is the trustnet package: an Engine built from a
// declarative Scenario over the paper's correlated three-facet trust model
// (satisfaction §2.1, reputation power §2.2, privacy §2.3), with
// single-shot (Assess), batch (AssessAll) and coupled-dynamics
// (Run) assessment paths, pluggable reputation mechanisms, and the §4
// tradeoff explorer. Programs outside this repository should import only
// repro/trustnet.
//
// The implementation lives under internal/: the paper's contribution (the
// correlated three-facet trust model, its §3 coupling dynamics, and the §4
// tradeoff explorer) is in internal/core, built on from-scratch substrates —
// a discrete-event simulator, graph generators, a Chord-style DHT, the three
// cited reputation mechanisms (EigenTrust, TrustMe, PowerTrust), the
// Quiané-Ruiz satisfaction model and a P3P/OECD/PriServ privacy stack.
//
// See README.md for the quickstart and tour, and DESIGN.md for the system
// inventory, the facade's design rationale, and the experiment index.
// Benchmarks in bench_test.go regenerate every figure-level result
// (go test -bench=. -benchmem).
package repro
