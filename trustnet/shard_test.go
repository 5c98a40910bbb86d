package trustnet

import (
	"context"
	"runtime"
	"testing"
)

func shardScenario(shards int) Scenario {
	return Scenario{
		Peers: 80,
		Seed:  1234,
		Mix: &MixSpec{Fractions: map[string]float64{
			"honest":    0.6,
			"malicious": 0.3,
			"colluder":  0.1,
		}},
		Mechanism:   MechanismSpec{Pretrusted: []int{0, 1, 2}},
		Privacy:     &PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.2, ExposureScale: 50},
		Coupled:     true,
		EpochRounds: 5,
		Shards:      shards,
	}
}

// TestRunShardInvariance drives the public facade end to end: the coupled
// epoch history must be bit-for-bit identical for every shard count.
func TestRunShardInvariance(t *testing.T) {
	run := func(shards int) []EpochStats {
		hist, err := newEngine(t, shardScenario(shards)).Run(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	ref := run(0)
	for _, k := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := run(k)
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: %d epochs, want %d", k, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d: epoch %d\n%+v\n!=\n%+v", k, i, got[i], ref[i])
			}
		}
	}
}

func TestShardOptionValidation(t *testing.T) {
	if _, err := shardScenario(-1).NewEngine(); err == nil {
		t.Fatal("Shards -1 accepted")
	}
	if got := newEngine(t, shardScenario(3)).Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want 3", got)
	}
	if got := newEngine(t, shardScenario(0)).Shards(); got != 1 {
		t.Fatalf("default Shards() = %d, want 1", got)
	}
}

// TestExploreWorkerInvariance pins the explorer: concurrent grid evaluation
// must return the same points, Area A and optimum as the sequential pool,
// for any shard count in the scenario template.
func TestExploreWorkerInvariance(t *testing.T) {
	explore := func(workers, shards int) *ExploreResult {
		scenario := Scenario{
			Peers:       40,
			Seed:        7,
			Mix:         &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}},
			Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}},
			Workers:     workers,
			Shards:      shards,
			EpochRounds: 10,
		}
		res, err := Explore(context.Background(), ExploreConfig{
			Scenario: scenario,
			GridSize: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := explore(1, 0)
	for _, cfg := range [][2]int{
		{4, 0},
		{4, 2},
		{3, 3},
	} {
		got := explore(cfg[0], cfg[1])
		if len(got.Points) != len(ref.Points) {
			t.Fatalf("%d points, want %d", len(got.Points), len(ref.Points))
		}
		for i := range ref.Points {
			if got.Points[i] != ref.Points[i] {
				t.Fatalf("point %d\n%+v\n!=\n%+v", i, got.Points[i], ref.Points[i])
			}
		}
		if got.Best != ref.Best || got.AreaFraction != ref.AreaFraction {
			t.Fatal("explorer summary diverged across worker counts")
		}
	}
}

// TestOptimizeWorkerInvariance pins the concurrent hill climb.
func TestOptimizeWorkerInvariance(t *testing.T) {
	optimize := func(workers int) Point {
		res, err := Optimize(context.Background(), ExploreConfig{
			Scenario: Scenario{
				Peers:       40,
				Seed:        7,
				Mix:         &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}},
				Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}},
				Workers:     workers,
				EpochRounds: 10,
			},
			GridSize: 3,
		}, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := optimize(1)
	for _, w := range []int{2, 8} {
		if got := optimize(w); got != ref {
			t.Fatalf("workers=%d optimum %+v != %+v", w, got, ref)
		}
	}
}

// TestExploreCancellation verifies ctx still cancels the concurrent sweep.
func TestExploreCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Explore(ctx, ExploreConfig{
		Scenario: Scenario{
			Peers:       40,
			Mechanism:   MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0}},
			EpochRounds: 5,
		},
		GridSize: 3,
	})
	if err == nil {
		t.Fatal("cancelled explore returned nil error")
	}
}
