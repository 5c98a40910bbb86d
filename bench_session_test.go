package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/trustnet"
)

// benchSessionScenario is the shared scenario of the session-overhead benchmark:
// the no-op mechanism isolates the harness cost (session bookkeeping,
// observer dispatch, schedule scanning) from scoring-algorithm cost.
func benchSessionScenario(users int) trustnet.Scenario {
	return trustnet.Scenario{
		Peers: users,
		Seed:  1,
		Mix: &trustnet.MixSpec{Fractions: map[string]float64{
			"honest":    0.7,
			"malicious": 0.3,
		}},
		Mechanism:      trustnet.MechanismSpec{Kind: "none"},
		Privacy:        &trustnet.PrivacyPolicy{Disclosure: 0.8, ExposureScale: 50},
		Coupled:        true,
		EpochRounds:    5,
		RecomputeEvery: 2,
	}
}

// BenchmarkSessionOverhead contrasts the batch Run path against the
// streaming Session path (plain, and with observers attached) on equal
// seeds. Since PR 3 rewired Run as a thin wrapper over Session, the three
// rows should be indistinguishable — this benchmark exists to keep it that
// way, and CI publishes it alongside the epoch benchmark.
func BenchmarkSessionOverhead(b *testing.B) {
	const users, epochs = 1000, 3
	b.Run("mode=run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := benchSessionScenario(users).NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(context.Background(), epochs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := benchSessionScenario(users).NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			s, err := eng.Session(context.Background(), trustnet.WithMaxEpochs(epochs))
			if err != nil {
				b.Fatal(err)
			}
			for _, err := range s.Epochs() {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("mode=session-observed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := benchSessionScenario(users).NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			var seenEpochs, seenRounds int
			s, err := eng.Session(context.Background(),
				trustnet.WithMaxEpochs(epochs),
				trustnet.OnEpoch(func(trustnet.EpochStats) { seenEpochs++ }),
				trustnet.OnRound(func(trustnet.RoundStats) { seenRounds++ }),
			)
			if err != nil {
				b.Fatal(err)
			}
			for _, err := range s.Epochs() {
				if err != nil {
					b.Fatal(err)
				}
			}
			if seenEpochs != epochs {
				b.Fatal("observer missed epochs")
			}
		}
	})
}

// BenchmarkSnapshot measures the checkpoint cost itself: capturing and
// encoding the full engine state of a warmed-up 1000-user scenario.
func BenchmarkSnapshot(b *testing.B) {
	eng, err := benchSessionScenario(1000).NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), 3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytesOut int
	for i := 0; i < b.N; i++ {
		snap, err := eng.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		var sink countingWriter
		if err := snap.Encode(&sink); err != nil {
			b.Fatal(err)
		}
		bytesOut = sink.n
	}
	b.ReportMetric(float64(bytesOut), "snapshot-bytes")
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkEpochAge measures one epoch's cost at a given run age — the
// epoch after `age` completed ones — on trustsim's default scenario at 500
// peers. Each iteration restores the checkpoint taken at that age (timer
// stopped) and runs a single epoch, so every iteration times the same
// epoch. State that grows with run length shows up as age=80 costing more
// than age=5; bounded state keeps the two close.
func BenchmarkEpochAge(b *testing.B) {
	sc := trustnet.Scenario{
		Peers: 500,
		Seed:  1,
		Mix: &trustnet.MixSpec{
			Fractions:   map[string]float64{"honest": 0.7, "malicious": 0.3},
			ForceHonest: []int{0, 1, 2},
		},
		Mechanism:      trustnet.MechanismSpec{Pretrusted: []int{0, 1, 2}},
		Privacy:        &trustnet.PrivacyPolicy{Disclosure: 0.8},
		RecomputeEvery: 2,
		Coupled:        true,
		EpochRounds:    8,
		Shards:         1,
	}
	for _, age := range []int{5, 80} {
		b.Run(fmt.Sprintf("age=%d", age), func(b *testing.B) {
			eng, err := sc.NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(context.Background(), age); err != nil {
				b.Fatal(err)
			}
			snap, err := eng.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := eng.Restore(snap); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.Run(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
