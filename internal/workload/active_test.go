package workload

import (
	"testing"
)

// churnPlan deactivates and reactivates peers between rounds, exercising the
// active-peer index (rebuilt lazily after each membership change).
func churnPlan(t *testing.T, e *Engine, rounds int) []RoundStats {
	t.Helper()
	var stats []RoundStats
	for i := 0; i < rounds; i++ {
		switch i {
		case 3:
			for _, p := range []int{5, 11, 17, 23} {
				if err := e.SetPeerActive(p, false); err != nil {
					t.Fatal(err)
				}
			}
		case 7:
			if err := e.SetPeerActive(11, true); err != nil {
				t.Fatal(err)
			}
			if err := e.SetPeerActive(29, false); err != nil {
				t.Fatal(err)
			}
		}
		stats = append(stats, e.Round())
	}
	return stats
}

// TestActiveIndexShardInvariance extends the pipeline's determinism contract
// to thinned populations: with peers leaving and rejoining mid-run, every
// shard count must draw the same candidates from the active-peer index and
// produce bit-identical results.
func TestActiveIndexShardInvariance(t *testing.T) {
	cfg := Config{Seed: 19, NumPeers: 40, Mix: mixMalicious(0.3), RecomputeEvery: 2, TrustGate: 0.1}
	run := func(shards int) (Summary, []RoundStats) {
		c := cfg
		c.Shards = shards
		e, err := NewEngine(c, newEigen(t, c.NumPeers))
		if err != nil {
			t.Fatal(err)
		}
		rounds := churnPlan(t, e, 16)
		if e.ActivePeers() != 36 { // 40 − 4 out + 1 back − 1 out
			t.Fatalf("shards=%d: ActivePeers = %d, want 36", shards, e.ActivePeers())
		}
		return e.Summarize(), rounds
	}
	refSum, refRounds := run(1)
	for _, k := range []int{2, 5, 8} {
		sum, rounds := run(k)
		if sum != refSum {
			t.Fatalf("shards=%d: summary diverged under churn:\n%+v\n%+v", k, sum, refSum)
		}
		for i := range refRounds {
			if rounds[i] != refRounds[i] {
				t.Fatalf("shards=%d: round %d diverged under churn", k, i)
			}
		}
	}
}

// TestActiveIndexSnapshotRoundTrip snapshots mid-run with peers absent (the
// serialized active set plus the derived index rebuilt on restore) and
// checks a restored engine — at a different shard count — continues
// bit-for-bit like the uninterrupted one.
func TestActiveIndexSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Seed: 23, NumPeers: 40, Mix: mixMalicious(0.25), RecomputeEvery: 2, Shards: 3}
	orig, err := NewEngine(cfg, newEigen(t, cfg.NumPeers))
	if err != nil {
		t.Fatal(err)
	}
	churnPlan(t, orig, 9) // stop right after the epoch-7 membership changes
	st, err := orig.State()
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Shards = 6
	restored, err := NewEngine(cfg2, newEigen(t, cfg.NumPeers))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	if restored.ActivePeers() != orig.ActivePeers() {
		t.Fatalf("restored ActivePeers = %d, want %d", restored.ActivePeers(), orig.ActivePeers())
	}
	for p := 0; p < cfg.NumPeers; p++ {
		if restored.PeerActive(p) != orig.PeerActive(p) {
			t.Fatalf("restored PeerActive(%d) = %v, want %v", p, restored.PeerActive(p), orig.PeerActive(p))
		}
	}

	orig.Run(8)
	restored.Run(8)
	if orig.Summarize() != restored.Summarize() {
		t.Fatalf("summaries diverged after restore-then-run:\n%+v\n%+v", orig.Summarize(), restored.Summarize())
	}
	a, b := orig.mech.ScoresView(), restored.mech.ScoresView()
	for p := range a {
		if a[p] != b[p] {
			t.Fatalf("score[%d]: %v != %v after restore-then-run", p, a[p], b[p])
		}
	}
}
