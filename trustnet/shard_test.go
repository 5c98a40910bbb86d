package trustnet

import (
	"context"
	"runtime"
	"testing"
)

func shardScenario(extra ...Option) []Option {
	opts := []Option{
		WithPeers(80),
		WithRNGSeed(1234),
		WithMix(Mix{Fractions: map[Class]float64{
			Honest:    0.6,
			Malicious: 0.3,
			Colluder:  0.1,
		}}),
		WithReputationMechanism(EigenTrust(EigenTrustConfig{Pretrusted: []int{0, 1, 2}})),
		WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0.8, TrustGate: 0.2, ExposureScale: 50}),
		WithCoupling(true),
		WithEpochRounds(5),
	}
	return append(opts, extra...)
}

// TestRunShardInvariance drives the public facade end to end: the coupled
// epoch history must be bit-for-bit identical for every shard count.
func TestRunShardInvariance(t *testing.T) {
	run := func(extra ...Option) []EpochStats {
		eng, err := New(shardScenario(extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := eng.Run(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	ref := run()
	for _, k := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := run(WithShards(k))
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
	if _, err := New(shardScenario(WithShards(0))...); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	eng, err := New(shardScenario(WithShards(3))...)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", eng.Shards())
	}
	def, err := New(shardScenario()...)
	if err != nil {
		t.Fatal(err)
	}
	if def.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", def.Shards())
	}
}

// TestExploreWorkerInvariance pins the explorer: concurrent grid evaluation
// must return the same points, Area A and optimum as the sequential pool,
// for any shard count in the scenario template.
func TestExploreWorkerInvariance(t *testing.T) {
	explore := func(workers, shards int) *ExploreResult {
		scenario := Scenario{
			Peers:     40,
			Seed:      7,
			Mix:       &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}},
			Mechanism: MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}},
			Workers:   workers,
			Shards:    shards,
		}
		res, err := Explore(context.Background(), ExploreConfig{
			Scenario: scenario,
			Rounds:   10,
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
				Peers:     40,
				Seed:      7,
				Mix:       &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}},
				Mechanism: MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}},
				Workers:   workers,
			},
			Rounds:   10,
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
			Peers:     40,
			Mechanism: MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0}},
		},
		Rounds:   5,
		GridSize: 3,
	})
	if err == nil {
		t.Fatal("cancelled explore returned nil error")
	}
}
