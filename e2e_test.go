package repro

// End-to-end integration tests: the full stack wired together the way the
// examples and experiments use it, plus cross-substrate scenarios (churn +
// DHT repair + reputation).

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/trustme"
	"repro/internal/sim"
	"repro/internal/social"
	"repro/internal/workload"
)

// runDynamics runs n coupling epochs and returns the recorded history.
func runDynamics(t *testing.T, dyn *core.Dynamics, n int) []core.EpochStats {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := dyn.EpochCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return dyn.History()
}

func TestEndToEndCoupledSystem(t *testing.T) {
	// The full pipeline: graph -> behaviours -> interactions -> mechanism
	// -> facets -> trust -> coupling, for every mechanism.
	mechs := map[string]func() (reputation.Mechanism, error){
		"eigentrust": func() (reputation.Mechanism, error) {
			return eigentrust.New(eigentrust.Config{N: 60, Pretrusted: []int{0, 1}})
		},
		"trustme": func() (reputation.Mechanism, error) {
			return trustme.New(trustme.Config{N: 60})
		},
		"none": func() (reputation.Mechanism, error) {
			return reputation.NewNone(60), nil
		},
	}
	for name, mk := range mechs {
		t.Run(name, func(t *testing.T) {
			mech, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			dyn, err := core.NewDynamics(core.DynamicsConfig{
				Workload: workload.Config{
					Seed:     99,
					NumPeers: 60,
					Mix: adversary.Mix{
						Fractions: map[adversary.Class]float64{
							adversary.Honest:    0.6,
							adversary.Malicious: 0.2,
							adversary.Selfish:   0.1,
							adversary.Traitor:   0.1,
						},
						ForceHonest: []int{0, 1},
					},
					Disclosure:     0.7,
					RecomputeEvery: 2,
				},
				Coupled:     true,
				EpochRounds: 6,
			}, mech)
			if err != nil {
				t.Fatal(err)
			}
			hist := runDynamics(t, dyn, 5)
			for _, e := range hist {
				for _, v := range []float64{e.Trust, e.Satisfaction, e.Reputation, e.Privacy} {
					if v < 0 || v > 1 || math.IsNaN(v) {
						t.Fatalf("%s epoch %d out of range: %+v", name, e.Epoch, e)
					}
				}
			}
			if !dyn.TrustModel().SystemTrusted(0.2, 0.5) {
				t.Fatalf("%s: median trust below 0.2 in a mixed population", name)
			}
		})
	}
}

func TestEndToEndChurnWithTrustMeRepair(t *testing.T) {
	// TrustMe's THA storage must survive peer churn when the ring is
	// stabilized after membership changes.
	m, err := trustme.New(trustme.Config{N: 40, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	tx := uint64(1)
	for rater := 1; rater < 40; rater++ {
		for _, ratee := range []int{0, 5, 10} {
			if rater == ratee {
				continue
			}
			if err := m.Submit(reputation.Report{TxID: tx, Rater: rater, Ratee: ratee, Value: 0.9}); err != nil {
				t.Fatal(err)
			}
			tx++
		}
	}
	m.Compute()
	want := m.Score(0)

	// Churn: a seeded process decides who is alive — each step every live
	// peer leaves with probability 0.05 and every departed one rejoins with
	// probability 0.3. Dead peers leave the THA ring, survivors stabilize it.
	rng := sim.NewRNG(3)
	alive := make([]bool, 40)
	inRing := make([]bool, 40) // New joins all 40 peers
	for id := range alive {
		alive[id], inRing[id] = true, true
	}
	leaves := 0
	for step := 0; step < 10; step++ {
		for id := range alive {
			switch {
			case alive[id] && rng.Bool(0.05):
				alive[id] = false
				leaves++
			case !alive[id] && rng.Bool(0.3):
				alive[id] = true
			}
		}
		// Mirror membership into the ring.
		for id, up := range alive {
			switch {
			case inRing[id] && !up:
				m.Ring().Leave(id)
			case !inRing[id] && up:
				if err := m.Ring().Join(id); err != nil {
					t.Fatal(err)
				}
			}
			inRing[id] = up
		}
		m.Ring().Stabilize()
	}
	if leaves == 0 {
		t.Fatal("churn produced no departures")
	}
	if m.Ring().Size() == 0 {
		t.Fatal("ring emptied")
	}
	m.Whitewash(39) // unrelated peer resets — must not disturb others
	m.Compute()
	if got := m.Score(0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("score drifted through churn: %v -> %v", want, got)
	}
}

func TestEndToEndPrivacyServiceUnderDHTChurn(t *testing.T) {
	ring := dht.NewRing(3)
	for i := 0; i < 30; i++ {
		if err := ring.Join(i); err != nil {
			t.Fatal(err)
		}
	}
	ring.Stabilize()
	s := sim.New()
	svc, err := privacy.NewService(ring, s)
	if err != nil {
		t.Fatal(err)
	}
	pol := privacy.DefaultPolicy(social.Low)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("it/%d", i)
		if err := svc.Publish(i, key, []byte{byte(i)}, social.Low, pol); err != nil {
			t.Fatal(err)
		}
	}
	// A third of the storage nodes fail; stabilization repairs replicas.
	for i := 0; i < 10; i++ {
		ring.Leave(i * 3)
	}
	ring.Stabilize()
	granted := 0
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("it/%d", i)
		if _, _, err := svc.Request(25, key, privacy.Read, privacy.SocialUse, 0.9, true); err == nil {
			granted++
		}
	}
	if granted != 20 {
		t.Fatalf("only %d/20 items readable after churn+repair", granted)
	}
	if err := svc.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	for _, r := range privacy.Audit(svc, s.Now()) {
		if !r.Pass {
			t.Fatalf("principle %v failed after churn: %s", r.Principle, r.Detail)
		}
	}
}

func TestEndToEndDeterminism(t *testing.T) {
	run := func() []float64 {
		mech, err := eigentrust.New(eigentrust.Config{N: 50, Pretrusted: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := core.NewDynamics(core.DynamicsConfig{
			Workload: workload.Config{
				Seed:     123,
				NumPeers: 50,
				Mix: adversary.Mix{
					Fractions:   map[adversary.Class]float64{adversary.Honest: 0.6, adversary.Colluder: 0.4},
					ForceHonest: []int{0},
				},
				RecomputeEvery: 3,
			},
			Coupled:     true,
			EpochRounds: 5,
		}, mech)
		if err != nil {
			t.Fatal(err)
		}
		hist := runDynamics(t, dyn, 4)
		out := make([]float64, len(hist))
		for i, e := range hist {
			out[i] = e.Trust
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identical seeds diverged at epoch %d: %v vs %v", i, a[i], b[i])
		}
	}
}
