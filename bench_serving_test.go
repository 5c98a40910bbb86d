package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/trustnet"
)

// benchServingScenario is the serving benchmark's scenario: a mid-sized coupled
// population on EigenTrust, the mechanism the served view rebuilds at every
// epoch boundary.
func benchServingScenario(users, shards int) trustnet.Scenario {
	return trustnet.Scenario{
		Peers: users,
		Seed:  9,
		Mix: &trustnet.MixSpec{
			Fractions:   map[string]float64{"honest": 0.7, "malicious": 0.3},
			ForceHonest: []int{0, 1, 2},
		},
		Mechanism:      trustnet.MechanismSpec{Pretrusted: []int{0, 1, 2}},
		Privacy:        &trustnet.PrivacyPolicy{Disclosure: 0.8},
		Coupled:        true,
		EpochRounds:    5,
		RecomputeEvery: 2,
		Shards:         shards,
	}
}

// BenchmarkServing measures the serving layer under contention: b.N read
// queries (scores, rank, top-K, epoch stats) from 8 workers against a live
// server whose epoch loop is advancing continuously underneath. The headline
// metrics are queries/sec and the p50/p99 query latencies — CI publishes
// them as BENCH_serving.json and benchdiff gates regressions.
func BenchmarkServing(b *testing.B) {
	const users = 200
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("users=%d/shards=%d", users, shards), func(b *testing.B) {
			eng, err := benchServingScenario(users, shards).NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			// A short but nonzero epoch pacing: epochs stream underneath the
			// queries (the contention being measured) without the loop
			// monopolizing small CPU counts, which would benchmark the
			// scheduler's mood instead of the serving path.
			srv, err := serve.New(serve.Config{Engine: eng, EpochInterval: 5 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := srv.Start(ctx); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			res, err := serve.RunLoad(ctx, ts.Client(), ts.URL, serve.LoadOptions{
				Concurrency: 8,
				Requests:    b.N,
				Users:       users,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Errors > 0 {
				b.Fatalf("%d failed queries", res.Errors)
			}
			b.ReportMetric(res.QPS, "qps")
			b.ReportMetric(float64(res.P50), "p50-ns")
			b.ReportMetric(float64(res.P99), "p99-ns")
		})
	}
}
