package privacy

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/satisfaction"
	"repro/internal/sim"
	"repro/internal/social"
)

// TestConsumerFlagsMatchSetLedger drives a random stream of served, refused
// and repeated interactions and shared feedback reports the way the workload
// engine accounts them: each consumer's ObserveAllocation flags the
// providers its profile reached and counts them, and each report adds one
// ItemExposure of a Low item to a running feedback sum. The set-based
// oracle records every disclosure with its recipient: the profile as one
// Medium item, each report as its own Low item reaching the mechanism.
// After every step each consumer's Disclosed must equal its oracle
// recipient set's size, and the engine's facet formula — Facet at respect
// 1 over the feedback sum plus the profile's ItemExposure — must equal the
// oracle's PrivacyFacet bit for bit. Rewinds through State and SetState
// check that SetState recounts the flags.
func TestConsumerFlagsMatchSetLedger(t *testing.T) {
	const users, partners = 40, 6
	scales := []float64{1, 3.5, 50}
	feedbackTerm := ItemExposure(SensitivityWeight(social.Low), 1)
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		pop, err := satisfaction.NewPopulation(users, 0.5, 0.8, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		consumers := make([]satisfaction.Consumer, users)
		feedback := make([]float64, users)
		reached := make(map[[2]int]bool) // consumer, provider
		ref := newRefLedger()
		// The checkpoint a rewind restores: every consumer's state, the
		// feedback sums, the recipient sets and the oracle's events.
		savedConsumers := make([]satisfaction.ConsumerState, users)
		for u := range consumers {
			savedConsumers[u] = consumers[u].State()
		}
		savedFeedback, savedReached, savedRef := slices.Clone(feedback), maps.Clone(reached), ref.State()
		for step := 0; step < 3000; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			u := rng.Intn(users)
			// A few partners per consumer, so most interactions repeat a
			// provider the consumer met before.
			cands := make([]int32, 1+rng.Intn(4))
			for k := range cands {
				cands[k] = int32((u + 1 + rng.Intn(partners)) % users)
			}
			p := int(cands[rng.Intn(len(cands))])
			switch op := rng.Intn(40); {
			case op < 22: // served: the profile reaches p
				consumers[u].ObserveAllocation(&pop, p, cands, rng.Float64(), true)
				reached[[2]int{u, p}] = true
				ref.Record(Disclosure{Owner: u, Item: "profile", Sensitivity: social.Medium, Recipient: p, Purpose: SocialUse, Consented: true})
			case op < 30: // refused: no disclosure
				consumers[u].ObserveAllocation(&pop, p, cands, 0, false)
			case op < 37: // a shared feedback report
				feedback[u] += feedbackTerm
				ref.Record(Disclosure{Owner: u, Item: fmt.Sprintf("feedback/%d/%d", u, step), Sensitivity: social.Low, Recipient: -1, Purpose: ReputationUse, Consented: true})
			case op < 39: // checkpoint
				for v := range consumers {
					savedConsumers[v] = consumers[v].State()
				}
				savedFeedback, savedReached, savedRef = slices.Clone(feedback), maps.Clone(reached), ref.State()
			default: // rewind to the checkpoint
				for v := range consumers {
					if err := consumers[v].SetState(savedConsumers[v], &pop); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				feedback, reached = slices.Clone(savedFeedback), maps.Clone(savedReached)
				ref.SetState(savedRef)
			}
			for _, v := range []int{u, (u + 1) % users} {
				recipients := 0
				for q := range users {
					if reached[[2]int{v, q}] {
						recipients++
					}
				}
				if got := consumers[v].Disclosed(); got != recipients {
					t.Fatalf("%s: consumer %d counts %d recipients, oracle %d", where, v, got, recipients)
				}
				x := feedback[v] + ItemExposure(SensitivityWeight(social.Medium), int64(consumers[v].Disclosed()))
				for _, s := range scales {
					if got, want := Facet(1, x, s), ref.PrivacyFacet(v, s); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: consumer %d facet at scale %v = %v, oracle %v", where, v, s, got, want)
					}
				}
			}
		}
	}
}

// TestServiceRecipientsMatchSetLedger sends PriServ grants and leaks with
// repeated recipients, withdrawals and a key republished by another owner
// through the service, which keeps each owner's items with their recipient
// lists. The set-based oracle replays the service's trail; every query must
// agree bit for bit.
func TestServiceRecipientsMatchSetLedger(t *testing.T) {
	const owners, keys = 6, 9
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		svc, _ := newTestService(t)
		key := func(k int) string { return fmt.Sprintf("item/%d", k) }
		owner := make([]int, keys)
		for k := range owner {
			owner[k] = k % owners
			if err := svc.Publish(owner[k], key(k), []byte{byte(k)}, social.Sensitivity(1+k%4), allowAll()); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 600; step++ {
			k := rng.Intn(keys)
			switch op := rng.Intn(20); {
			case op < 12:
				_, _, _ = svc.Request(rng.Intn(5), key(k), Read, SocialUse, 1, true)
			case op < 18:
				if err := svc.Leak(key(k), rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			default: // withdraw, then republish under the next owner
				if err := svc.Withdraw(owner[k], key(k)); err != nil {
					t.Fatal(err)
				}
				owner[k] = (owner[k] + 1) % owners
				if err := svc.Publish(owner[k], key(k), []byte{byte(k)}, social.Sensitivity(1+rng.Intn(4)), allowAll()); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref := newRefLedger()
		for _, d := range svc.Events() {
			ref.Record(d)
		}
		probe := make([]int, owners)
		for o := range probe {
			probe[o] = o
		}
		compareLedgers(t, fmt.Sprintf("seed %d", seed), svc, ref, probe, []float64{1, 4})
	}
}
