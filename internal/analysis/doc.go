// Package analysis is the static-analysis layer of the repository: a small
// framework (modeled on golang.org/x/tools/go/analysis, which is deliberately
// not imported so the module stays dependency-free) hosting the trustlint
// analyzers that enforce the repo's bit-identity invariants at compile time.
//
// Every layer since PR 2 stakes its correctness on one invariant: equal seeds
// produce bit-for-bit identical results across shard counts, snapshot/restore
// boundaries, and the served-vs-batch twin. The golden suites defend that
// invariant after the fact; the analyzers in the subpackages of this package
// defend it at vet time, before a nondeterministic construct can reach a
// golden suite at all:
//
//   - mapiter: flags `for range` over map types in the deterministic
//     packages unless the loop body is order-independent or its collected
//     output feeds a sort before use.
//   - nondeterm: bans wall-clock (time.Now/Since/Until), global math/rand,
//     environment access (os.Getenv and friends), and fmt formatting of map
//     values in the deterministic packages. Randomness must flow through the
//     sim.RNG SplitMix64 streams; wall-clock belongs in cmd/, internal/serve
//     and tools/ only.
//   - snapshotcomplete: for every struct participating in the
//     Snapshot/State/gob machinery, cross-checks the declared fields against
//     the fields actually read by the encode path and filled/consumed on the
//     state struct, killing the "added a field, forgot the snapshot" bug
//     class.
//   - foldorder: flags floating-point accumulation into variables shared
//     across goroutine bodies (go statements and sim.ForChunks/RunIndexed
//     workers); shard results must be folded in index order on the spawning
//     goroutine.
//
// # Deterministic packages
//
// The analyzers police the eleven package trees whose output is
// golden-pinned: internal/adversary, internal/core, internal/workload,
// internal/reputation (including the mechanism subpackages),
// internal/linalg, internal/metrics, internal/sim, internal/satisfaction,
// internal/privacy, internal/graph and internal/social. Packages off the
// deterministic path — cmd/, tools/, internal/serve and the remaining
// internal packages — are exempt, as are _test.go files (order-sensitive
// tests fail visibly on their own). See IsDeterministic.
//
// # Suppression comments
//
// Exactly two waiver comments exist, and both require a reason — a waiver
// without one is itself reported, so the analyzer output can never contain
// an unexplained exemption:
//
//	//trustlint:ordered <reason>
//
// placed on (or on the line directly above) a statement flagged by mapiter
// or foldorder, asserting that the flagged construct is order-independent
// for a reason the analyzer cannot see.
//
//	//trustlint:derived <reason>
//
// placed on (or on the line directly above) a struct field flagged by
// snapshotcomplete, asserting that the field is configuration or derived
// state that is deliberately rebuilt rather than serialized.
//
// # Adding an analyzer
//
// Create a subpackage exporting an *analysis.Analyzer, gate it on
// IsDeterministic (or your own scope rule) inside Run, add it to the list in
// cmd/trustlint, and give it an analysistest golden suite under
// testdata/src/. The driver in internal/analysis/unitchecker speaks the
// `go vet -vettool` protocol, so a registered analyzer automatically runs in
// CI over every package.
package analysis
