package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// pre-trusted set size, the DHT replication factor, and the
// anonymity-protection level. Each sub-benchmark is a design point;
// comparing ns/op and the printed quality metrics shows the trade.

import (
	"fmt"
	"testing"

	"repro/internal/dht"
	"repro/internal/reputation"
	"repro/internal/reputation/anonrep"
	"repro/internal/reputation/eigentrust"
	"repro/internal/workload"
)

// BenchmarkAblationPretrustSize sweeps EigenTrust's pre-trusted set size:
// larger sets damp collusion harder but concentrate load.
func BenchmarkAblationPretrustSize(b *testing.B) {
	for _, k := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("pretrusted-%d", k), func(b *testing.B) {
			pre := make([]int, k)
			for i := range pre {
				pre[i] = i
			}
			var lastTau float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mech, err := eigentrust.New(eigentrust.Config{N: 80, Pretrusted: pre})
				if err != nil {
					b.Fatal(err)
				}
				mix := benchMix(0.3)
				mix.ForceHonest = pre
				eng, err := workload.NewEngine(workload.Config{
					Seed: 1, NumPeers: 80, Mix: mix, RecomputeEvery: 2,
				}, mech)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				eng.Run(20)
				lastTau = eng.Summarize().Tau
			}
			b.ReportMetric(lastTau, "tau")
		})
	}
}

// BenchmarkAblationDHTReplicas sweeps the replication factor: higher k
// costs writes but survives more failures.
func BenchmarkAblationDHTReplicas(b *testing.B) {
	for _, k := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("replicas-%d", k), func(b *testing.B) {
			ring := dht.NewRing(k)
			for i := 0; i < 128; i++ {
				if err := ring.Join(i); err != nil {
					b.Fatal(err)
				}
			}
			ring.Stabilize()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("key-%d", i%1024)
				if err := ring.Put(key, []byte("v")); err != nil {
					b.Fatal(err)
				}
				if _, err := ring.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAnonNoise sweeps the anonymous-reputation protection
// level; the tau metric shows the accuracy cost (E11's trade as a bench).
func BenchmarkAblationAnonNoise(b *testing.B) {
	for _, noise := range []float64{0, 0.05, 0.2} {
		b.Run(fmt.Sprintf("noise-%.2f", noise), func(b *testing.B) {
			var lastTau float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mech, err := anonrep.New(anonrep.Config{N: 80, Noise: noise, Granularity: 0.1, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := workload.NewEngine(workload.Config{
					Seed: 1, NumPeers: 80, Mix: benchMix(0.3), RecomputeEvery: 2,
				}, mech)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for c := 0; c < 4; c++ {
					eng.Run(5)
					mech.NextEpoch()
				}
				lastTau = eng.Summarize().Tau
			}
			b.ReportMetric(lastTau, "tau")
		})
	}
}

// BenchmarkAblationSelection contrasts the two response policies of the
// "response" block: deterministic best vs load-spreading proportional.
func BenchmarkAblationSelection(b *testing.B) {
	for _, sel := range []struct {
		name string
		s    workload.Selection
	}{
		{"best", workload.SelectBest},
		{"proportional", workload.SelectProportional},
	} {
		b.Run(sel.name, func(b *testing.B) {
			var lastBad float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mech, err := eigentrust.New(eigentrust.Config{N: 80, Pretrusted: []int{0, 1}})
				if err != nil {
					b.Fatal(err)
				}
				eng, err := workload.NewEngine(workload.Config{
					Seed: 1, NumPeers: 80, Mix: benchMix(0.3),
					Selection: sel.s, RecomputeEvery: 2,
				}, mech)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				eng.Run(20)
				lastBad = eng.Summarize().RecentBadRate
			}
			b.ReportMetric(lastBad, "bad-rate")
		})
	}
}

var _ = reputation.SatThreshold // keep the import for documentation symmetry
