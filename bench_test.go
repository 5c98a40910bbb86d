package repro

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/reputation/trustme"
	"repro/internal/satisfaction"
	"repro/internal/sim"
	"repro/internal/social"
	"repro/internal/workload"
	"repro/trustnet"
)

func benchMix(malicious float64) adversary.Mix {
	return adversary.Mix{
		Fractions: map[adversary.Class]float64{
			adversary.Honest:    1 - malicious,
			adversary.Malicious: malicious,
		},
		ForceHonest: []int{0, 1, 2},
	}
}

func mustEigen(b *testing.B, n int) *eigentrust.Mechanism {
	b.Helper()
	m, err := eigentrust.New(eigentrust.Config{N: n, Pretrusted: []int{0, 1, 2}})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkE1Coupling regenerates E1 (Fig. 1): one coupled-feedback epoch
// over 100 peers with 30% malicious.
func BenchmarkE1Coupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dyn, err := core.NewDynamics(core.DynamicsConfig{
			Workload: workload.Config{
				Seed: 1, NumPeers: 100, Mix: benchMix(0.3),
				Disclosure: 0.8, RecomputeEvery: 2,
			},
			Coupled:     true,
			EpochRounds: 8,
		}, mustEigen(b, 100))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dyn.EpochCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2IteratedMap regenerates E2: the trust/satisfaction fixed-point
// iteration from 11 starting points.
func BenchmarkE2IteratedMap(b *testing.B) {
	cfg := core.MapConfig{Reputation: 0.8, Privacy: 0.8}
	for i := 0; i < b.N; i++ {
		for k := 0; k <= 10; k++ {
			if _, err := core.RunIteratedMap(float64(k)/10, 40, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE5DisclosureSweep regenerates one point of E5 (Fig. 2 right):
// evaluating a disclosure setting end to end.
func BenchmarkE5DisclosureSweep(b *testing.B) {
	cfg := trustnet.ExploreConfig{
		Scenario: trustnet.Scenario{
			Peers: 100, Seed: 1,
			Mix:            trustnet.MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
			Mechanism:      trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
			RecomputeEvery: 2,
		},
		Rounds: 20,
	}
	for i := 0; i < b.N; i++ {
		if _, err := trustnet.EvaluateSetting(cfg, trustnet.Setting{Disclosure: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6AreaA regenerates E6 (Fig. 2 left): a 3x3 grid classification
// (the sweep-backed facade explorer).
func BenchmarkE6AreaA(b *testing.B) {
	cfg := trustnet.ExploreConfig{
		Scenario: trustnet.Scenario{
			Peers: 60, Seed: 1,
			Mix:            trustnet.MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
			Mechanism:      trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
			RecomputeEvery: 2,
		},
		Rounds:   15,
		GridSize: 3,
	}
	for i := 0; i < b.N; i++ {
		if _, err := trustnet.Explore(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Mechanisms regenerates E7: a file-sharing run per mechanism at
// 30% malicious.
func BenchmarkE7Mechanisms(b *testing.B) {
	const n = 100
	mechs := map[string]func() (reputation.Mechanism, error){
		"none": func() (reputation.Mechanism, error) { return reputation.NewNone(n), nil },
		"eigentrust": func() (reputation.Mechanism, error) {
			return eigentrust.New(eigentrust.Config{N: n, Pretrusted: []int{0, 1, 2}})
		},
		"powertrust": func() (reputation.Mechanism, error) {
			return powertrust.New(powertrust.Config{N: n})
		},
		"trustme": func() (reputation.Mechanism, error) {
			return trustme.New(trustme.Config{N: n})
		},
	}
	for name, mk := range mechs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mech, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				eng, err := workload.NewEngine(workload.Config{
					Seed: 1, NumPeers: n, Mix: benchMix(0.3), RecomputeEvery: 2,
				}, mech)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				eng.Run(20)
			}
		})
	}
}

// BenchmarkE8Adversary regenerates E8: EigenTrust facing each adversary
// class at 30%.
func BenchmarkE8Adversary(b *testing.B) {
	classes := []adversary.Class{
		adversary.Malicious, adversary.Traitor, adversary.Slanderer, adversary.Colluder,
	}
	for _, cls := range classes {
		b.Run(cls.String(), func(b *testing.B) {
			mix := adversary.Mix{
				Fractions:   map[adversary.Class]float64{adversary.Honest: 0.7, cls: 0.3},
				ForceHonest: []int{0, 1, 2},
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := workload.NewEngine(workload.Config{
					Seed: 1, NumPeers: 80, Mix: mix, RecomputeEvery: 2,
				}, mustEigen(b, 80))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				eng.Run(20)
			}
		})
	}
}

// BenchmarkE9PriServ regenerates E9's workload: policy-checked requests
// against the PriServ-style service.
func BenchmarkE9PriServ(b *testing.B) {
	ring := dht.NewRing(3)
	for i := 0; i < 32; i++ {
		if err := ring.Join(i); err != nil {
			b.Fatal(err)
		}
	}
	ring.Stabilize()
	ledger := privacy.NewLedger()
	s := sim.New()
	svc, err := privacy.NewService(ring, ledger, s)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("item/%d", i)
		sens := social.Sensitivity(i%4 + 1)
		if err := svc.Publish(i, key, []byte("data"), sens, privacy.DefaultPolicy(sens)); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("item/%d", rng.Intn(50))
		_, _, _ = svc.Request(rng.Intn(50), key, privacy.Read, privacy.SocialUse, rng.Float64(), rng.Bool(0.5))
	}
}

// BenchmarkE10Optimize regenerates E10: the constrained optimizer on a
// small grid (the sweep-backed facade optimizer).
func BenchmarkE10Optimize(b *testing.B) {
	cfg := trustnet.ExploreConfig{
		Scenario: trustnet.Scenario{
			Peers: 50, Seed: 1,
			Mix:            trustnet.MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
			Mechanism:      trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
			RecomputeEvery: 2,
		},
		Rounds:   12,
		GridSize: 3,
		Weights:  core.ContextWeights(core.PrivacyCritical),
	}
	for i := 0; i < b.N; i++ {
		if _, err := trustnet.Optimize(context.Background(), cfg, trustnet.Constraints{MinPrivacy: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkDHTLookup(b *testing.B) {
	ring := dht.NewRing(3)
	for i := 0; i < 256; i++ {
		if err := ring.Join(i); err != nil {
			b.Fatal(err)
		}
	}
	ring.Stabilize()
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := ring.Put(keys[i], []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ring.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDHTStabilize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ring := dht.NewRing(3)
		for j := 0; j < 128; j++ {
			if err := ring.Join(j); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		ring.Stabilize()
	}
}

func BenchmarkEigenTrustCompute(b *testing.B) {
	rng := sim.NewRNG(1)
	m := mustEigen(b, 200)
	for k := 0; k < 5000; k++ {
		i, j := rng.Intn(200), rng.Intn(200)
		if i != j {
			_ = m.Submit(reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Submit(reputation.Report{TxID: uint64(i), Rater: 0, Ratee: 1 + i%199, Value: 0.9})
		m.Compute()
	}
}

func BenchmarkPowerTrustCompute(b *testing.B) {
	rng := sim.NewRNG(1)
	m, err := powertrust.New(powertrust.Config{N: 200})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 5000; k++ {
		i, j := rng.Intn(200), rng.Intn(200)
		if i != j {
			_ = m.Submit(reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Submit(reputation.Report{TxID: uint64(i), Rater: 0, Ratee: 1 + i%199, Value: 0.9})
		m.Compute()
	}
}

func BenchmarkTrustMeSubmit(b *testing.B) {
	m, err := trustme.New(trustme.Config{N: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reputation.Report{TxID: uint64(i), Rater: i % 63, Ratee: 63, Value: 0.8}
		if r.Rater == r.Ratee {
			continue
		}
		if err := m.Submit(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyEvaluate(b *testing.B) {
	pol := privacy.DefaultPolicy(social.High)
	req := privacy.Request{
		Requester: 1, Owner: 0, Operation: privacy.Read,
		Purpose: privacy.SocialUse, RequesterTrust: 0.9, IsFriend: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pol.Evaluate(req, sim.Time(i))
	}
}

func BenchmarkLedgerExposure(b *testing.B) {
	l := privacy.NewLedger()
	rng := sim.NewRNG(1)
	for k := 0; k < 5000; k++ {
		// Each record reaches a new recipient; Exposure costs the same
		// whatever the counts are.
		l.Record(rng.Intn(50), l.Item(fmt.Sprintf("item/%d", rng.Intn(200))),
			social.Sensitivity(rng.Intn(4)+1), true, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Exposure(i % 50)
	}
}

// BenchmarkLedgerRecord records the engine's two per-interaction ledger
// calls — the consumer's profile disclosed to its provider, then the
// feedback report it shares with the mechanism — for consumers among 20k
// peers, each served by one of its ten partners, into a ledger pre-filled
// with ten interactions per peer. Whether the provider is a new recipient
// is the consumer's answer in the engine; here a per-peer mask of the
// partners served so far gives it. Disclosures are drawn in batches with
// the timer stopped, so ns/op and allocs/op are the ledger's own, per
// interaction.
func BenchmarkLedgerRecord(b *testing.B) {
	const peers, batch = 20000, 4096
	rng := sim.NewRNG(1)
	partners := feedbackPeers(rng, peers)
	reached := make([]uint16, peers) // bit k: partner k has the profile
	type disclosure struct {
		owner int
		first bool
	}
	next := func() disclosure {
		owner, k := rng.Intn(peers), rng.Intn(len(partners[0]))
		first := reached[owner]&(1<<k) == 0
		reached[owner] |= 1 << k
		return disclosure{owner, first}
	}
	l := privacy.NewLedger()
	// The engine keys every owner's profile item "profile".
	profile := l.Item("profile")
	for k := 0; k < 10*peers; k++ {
		d := next()
		l.Record(d.owner, profile, social.Medium, true, d.first)
		l.RecordFeedback(d.owner)
	}
	buf := make([]disclosure, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		m := min(batch, b.N-done)
		for k := range buf[:m] {
			buf[k] = next()
		}
		b.StartTimer()
		for _, d := range buf[:m] {
			l.Record(d.owner, profile, social.Medium, true, d.first)
			l.RecordFeedback(d.owner)
		}
	}
}

// feedbackPeers gives each of n peers ten distinct random partners — the
// friends a feedback-shaped stream draws its ratees and candidates from.
func feedbackPeers(rng *sim.RNG, n int) [][]int {
	partners := make([][]int, n)
	for i := range partners {
		for len(partners[i]) < 10 {
			if j := rng.Intn(n); j != i && !slices.Contains(partners[i], j) {
				partners[i] = append(partners[i], j)
			}
		}
	}
	return partners
}

// BenchmarkLocalTrustAddBatch folds a feedback-shaped report stream — each
// report from one of 20k raters about one of its ten partners — into an
// EigenTrust local-trust matrix pre-filled with ten reports per rater, in
// round-sized batches. Batches are built with the timer stopped, so ns/op
// and allocs/op are the matrix's own, per report.
func BenchmarkLocalTrustAddBatch(b *testing.B) {
	const raters, batch = 20000, 2500
	rng := sim.NewRNG(1)
	partners := feedbackPeers(rng, raters)
	next := func() reputation.Report {
		i := rng.Intn(raters)
		return reputation.Report{Rater: i, Ratee: partners[i][rng.Intn(10)], Value: rng.Float64()}
	}
	lt := reputation.NewLocalTrust(raters)
	buf := make([]reputation.Report, batch)
	fill := func(m int) {
		for k := range buf[:m] {
			buf[k] = next()
		}
	}
	for k := 0; k < 10*raters/batch; k++ {
		fill(batch)
		if err := lt.AddBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		m := min(batch, b.N-done)
		fill(m)
		b.StartTimer()
		if err := lt.AddBatch(buf[:m]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsumerObserve runs the consumer side of a served interaction —
// the allocation satisfaction over five candidates, the private preference
// update and the profile's disclosure flag, in the one ObserveAllocation
// pass the round's gather makes — for
// one of 20k sparse consumers, each drawing its candidates from ten
// partners, after ten warm-up interactions per consumer. Interactions are
// drawn in batches with the timer stopped.
func BenchmarkConsumerObserve(b *testing.B) {
	const users, batch = 20000, 4096
	rng := sim.NewRNG(1)
	partners := feedbackPeers(rng, users)
	consumers := make([]*satisfaction.Consumer, users)
	for i := range consumers {
		c, err := satisfaction.NewUniformConsumer(users, 0.5, 0)
		if err != nil {
			b.Fatal(err)
		}
		consumers[i] = c
	}
	type interaction struct {
		consumer, provider int
		candidates         []int32
		quality            float64
	}
	next := func(it *interaction) {
		it.consumer = rng.Intn(users)
		for k, j := range rng.Sample(10, 5) {
			it.candidates[k] = int32(partners[it.consumer][j])
		}
		it.provider = int(it.candidates[rng.Intn(5)])
		it.quality = rng.Float64()
	}
	buf := make([]interaction, batch)
	for k := range buf {
		buf[k].candidates = make([]int32, 5)
	}
	observe := func(it *interaction) {
		consumers[it.consumer].ObserveAllocation(it.provider, it.candidates, it.quality, true)
	}
	for k := 0; k < 10*users; k++ {
		next(&buf[0])
		observe(&buf[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		m := min(batch, b.N-done)
		for k := range buf[:m] {
			next(&buf[k])
		}
		b.StartTimer()
		for k := range buf[:m] {
			observe(&buf[k])
		}
	}
}

func BenchmarkCertSealVerify(b *testing.B) {
	key := []byte("tha-key")
	for i := 0; i < b.N; i++ {
		c := crypto.SealCert(key, uint64(i), "peer-1", "peer-2")
		if err := crypto.VerifyCert(key, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarabasiAlbert builds the default friendship graph (m = 4). At
// n=1000 no hub is large; n=100000 reaches hub degrees near 1000, where any
// build cost that grows with a hub's degree shows.
func BenchmarkBarabasiAlbert(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := sim.NewRNG(1)
			for i := 0; i < b.N; i++ {
				if _, err := graph.BarabasiAlbert(rng, n, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKendallTau(b *testing.B) {
	rng := sim.NewRNG(1)
	x := make([]float64, 300)
	y := make([]float64, 300)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.KendallTau(x, y)
	}
}

// BenchmarkWorkloadRound runs interaction rounds of a 200-peer engine with
// no recompute. The engine reuses its round buffers, so the allocations it
// reports are first-touch growth of per-user state: ledger recipients and
// items, local-trust cells and preference overrides.
func BenchmarkWorkloadRound(b *testing.B) {
	eng, err := workload.NewEngine(workload.Config{
		Seed: 1, NumPeers: 200, Mix: benchMix(0.3), RecomputeEvery: 1 << 30,
	}, mustEigen(b, 200))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Round()
	}
}
