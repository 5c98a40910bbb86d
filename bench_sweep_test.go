package repro

// BenchmarkSweep tracks the Experiment/Sweep orchestrator's cost: a
// (disclosure × gate) grid with seed replications, at 1 worker vs 4
// workers. CI publishes the ns/op and the 1-vs-4 speedup in
// BENCH_sweep.json next to the epoch/session benches; the sweep's
// determinism contract (equal seeds ⇒ identical SweepResult at any
// parallelism) makes the worker count a pure throughput knob, so the
// speedup row is the headline number.

import (
	"context"
	"fmt"
	"testing"

	"repro/trustnet"
)

func BenchmarkSweep(b *testing.B) {
	base := trustnet.Scenario{
		Peers:          100,
		Seed:           1,
		Mix:            trustnet.MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
		Mechanism:      trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		EpochRounds:    8,
		Epochs:         1,
		RecomputeEvery: 2,
	}
	for _, workers := range []int{1, 4} {
		base.Workers = workers
		exp := trustnet.Experiment{
			Base:  base,
			Axes:  []trustnet.Axis{trustnet.Vary("disclosure", 0, 0.5, 1), trustnet.Vary("gate", 0, 0.2, 0.4)},
			Seeds: []uint64{1, 2},
		}
		b.Run(fmt.Sprintf("grid=3x3/reps=2/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != 9 {
					b.Fatalf("cells = %d", len(res.Cells))
				}
			}
		})
	}
}
