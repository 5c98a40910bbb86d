package repro

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/reputation"
	"repro/internal/workload"
)

// BenchmarkShardedEpoch measures one coupled epoch — the scatter-gather
// interaction pipeline plus the facet-measurement barrier — sequential vs
// sharded. CI converts its output into BENCH_epoch.json so the
// 1-shard/N-shard perf trajectory is tracked across PRs; on a multi-core
// runner the N-shard rows should approach a linear speedup of the scatter
// phase.
//
// Two row families:
//
//   - users=N/shards=K: population-proportional interaction volume (one
//     request per user per round), the historical rows.
//   - users=N/interactions=V/shards=K: fixed interaction volume across
//     populations — the scaling-layer acceptance rows. Epoch cost must track
//     the interaction volume, not the population, so doubling users at fixed
//     V should move ns/op well under 2x (the active-set/dirty-set contract).
//     These run only with BENCH_EPOCH_HEAVY=1 (the dedicated bench job sets
//     it) so the CI benchmark smoke stays fast; the 1M-user row rides along
//     at the sharded count only.
//
// The mechanism is the no-op baseline so the benchmark isolates the epoch
// pipeline itself (candidate sampling, selection, satisfaction folds,
// ledger accounting, gathering, measurement) from any one scoring
// algorithm's recompute cost.
func BenchmarkShardedEpoch(b *testing.B) {
	for _, users := range []int{1000, 10000} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("users=%d/shards=%d", users, shards), func(b *testing.B) {
				benchEpoch(b, users, 0, shards)
			})
		}
	}
	if os.Getenv("BENCH_EPOCH_HEAVY") == "" {
		return
	}
	const volume = 20000
	for _, users := range []int{100000, 200000} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("users=%d/interactions=%d/shards=%d", users, volume, shards), func(b *testing.B) {
				benchEpoch(b, users, volume, shards)
			})
		}
	}
	b.Run(fmt.Sprintf("users=%d/interactions=%d/shards=%d", 1000000, volume, 4), func(b *testing.B) {
		benchEpoch(b, 1000000, volume, 4)
	})
	// Quiescent rows: the settled-regime steady state. A 1M population with
	// a 10k active set is warmed until the inactive majority reaches its
	// bitwise trust fixed point, then the epoch is timed in the default
	// sparse mode (mode=settled) and with every skip disabled (mode=dense).
	// The two runs compute bit-identical histories; benchjson pairs them
	// into the mode=dense-vs-settled speedup. The interaction volume is
	// deliberately small — the active-set work is priced by the fixed-volume
	// rows above, and this pair isolates the epoch-boundary tail the settled
	// machinery eliminates (full-population trust update, coupling pass, and
	// aggregate folds on the dense side vs dirty+unsettled work on the
	// sparse side). The active set is wide (100k) so the warmup epochs do
	// not densify a tiny subgraph's neighborhoods, which would swamp the
	// pair with candidate-sampling cost common to both modes.
	const quiescentVolume = 2000
	for _, mode := range []string{"dense", "settled"} {
		b.Run(fmt.Sprintf("users=%d/interactions=%d/shards=%d/mode=%s", 1000000, quiescentVolume, 4, mode), func(b *testing.B) {
			benchQuiescentEpoch(b, 1000000, 100000, quiescentVolume, 4, mode == "dense")
		})
	}
}

// benchQuiescentEpoch times late (post-settling) epochs: all but the first
// `active` users leave before the warmup, the None mechanism keeps the
// shared reputation facet constant, and 60 warm epochs let every untouched
// user reach the bitwise fixed point the settled set skips.
func benchQuiescentEpoch(b *testing.B, users, active, interactions, shards int, dense bool) {
	dyn, err := core.NewDynamics(core.DynamicsConfig{
		Workload: workload.Config{
			Seed:                 1,
			NumPeers:             users,
			Mix:                  benchMix(0.3),
			InteractionsPerRound: interactions,
			Disclosure:           0.8,
			RecomputeEvery:       2,
			Shards:               shards,
		},
		Coupled:     true,
		EpochRounds: 5,
	}, reputation.NewNone(users))
	if err != nil {
		b.Fatal(err)
	}
	for u := active; u < users; u++ {
		if err := dyn.Engine().SetPeerActive(u, false); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up in the (fast) sparse mode regardless of the measured mode:
	// both modes compute identical state, so the warmed engine is the same.
	for i := 0; i < 60; i++ {
		if _, err := dyn.EpochCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	dyn.SetDenseReference(dense)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dyn.EpochCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEpoch times coupled epochs at the given scale; interactions == 0
// means the population-proportional default (one request per user per
// round).
func benchEpoch(b *testing.B, users, interactions, shards int) {
	dyn, err := core.NewDynamics(core.DynamicsConfig{
		Workload: workload.Config{
			Seed:                 1,
			NumPeers:             users,
			Mix:                  benchMix(0.3),
			InteractionsPerRound: interactions,
			Disclosure:           0.8,
			RecomputeEvery:       2,
			Shards:               shards,
		},
		Coupled:     true,
		EpochRounds: 5,
	}, reputation.NewNone(users))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dyn.EpochCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
