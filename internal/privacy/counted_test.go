package privacy

import (
	"fmt"
	"testing"

	"repro/internal/satisfaction"
	"repro/internal/sim"
	"repro/internal/social"
)

// TestConsumerFlagsMatchSetLedger drives a random stream of served, refused
// and repeated interactions the way the workload engine does: each consumer's
// ObserveAllocation flags the providers its profile reached and answers
// whether a served interaction is the first to its provider, and the ledger
// counts those answers. The set-based oracle records every disclosure with
// its recipient. Exposure, RespectRate and PrivacyFacet must agree bit for
// bit after every step, and each owner's profile count must equal its
// consumer's flags.
func TestConsumerFlagsMatchSetLedger(t *testing.T) {
	const users, partners = 40, 6
	scales := []float64{1, 3.5}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		consumers := make([]*satisfaction.Consumer, users)
		for u := range consumers {
			c, err := satisfaction.NewUniformConsumer(users, 0.5, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			consumers[u] = c
		}
		l, ref := NewLedger(), newRefLedger()
		profile := l.Item("profile")
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
			switch op := rng.Intn(20); {
			case op < 12: // served: the profile reaches p
				_, first := consumers[u].ObserveAllocation(p, cands, rng.Float64(), true)
				l.Record(u, profile, social.Medium, true, first)
				ref.Record(Disclosure{Owner: u, Item: "profile", Sensitivity: social.Medium, Recipient: p, Purpose: SocialUse, Consented: true})
			case op < 16: // refused: no disclosure
				if _, first := consumers[u].ObserveAllocation(p, cands, 0, false); first {
					t.Fatalf("%s: a refused interaction reported a first disclosure", where)
				}
			case op < 19: // a shared feedback report
				l.RecordFeedback(u)
				ref.Record(Disclosure{Owner: u, Item: fmt.Sprintf("feedback/%d/%d", u, step), Sensitivity: social.Low, Recipient: -1, Purpose: ReputationUse, Consented: true})
			default:
				s := scales[rng.Intn(len(scales))]
				l.RefreshFacets(s)
				ref.RefreshFacets(s)
			}
			compareLedgers(t, where, l, ref, []int{u, (u + 1) % users}, scales)
		}
		all := make([]int, users)
		for u := range all {
			all[u] = u
		}
		compareLedgers(t, fmt.Sprintf("seed %d end", seed), l, ref, all, scales)
		counts := make([]int64, users)
		for _, o := range l.State().Owners {
			for _, it := range o.Items {
				counts[o.Owner] = it.Recipients
			}
		}
		for u, c := range consumers {
			if flags := c.State().Disclosed(); flags != counts[u] {
				t.Fatalf("seed %d: consumer %d flags %d providers, ledger counts %d", seed, u, flags, counts[u])
			}
		}
	}
}

// TestServiceRecipientsMatchSetLedger sends PriServ grants and leaks with
// repeated recipients, withdrawals and a key republished by another owner
// through the service, which keeps the recipient sets and tells its ledger
// whether each disclosure reached a new recipient. The set-based oracle
// replays the service's trail; every query must agree bit for bit.
func TestServiceRecipientsMatchSetLedger(t *testing.T) {
	const owners, keys = 6, 9
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		svc, l, _ := newTestService(t)
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
		compareLedgers(t, fmt.Sprintf("seed %d", seed), l, ref, probe, []float64{1, 4})
	}
}

// TestRepeatServedInteractionZeroAllocs pins the gather's consumer and
// ledger calls for a served interaction between a consumer and a provider
// its profile already reached: the override search, the preference update,
// the disclosure flag, the profile record and the feedback report allocate
// nothing.
func TestRepeatServedInteractionZeroAllocs(t *testing.T) {
	c, err := satisfaction.NewUniformConsumer(100, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger()
	profile := l.Item("profile")
	cands := []int32{40, 41, 42, 43, 44}
	for _, p := range cands {
		_, first := c.ObserveAllocation(int(p), cands, 0.8, true)
		l.Record(7, profile, social.Medium, true, first)
		l.RecordFeedback(7)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_, first := c.ObserveAllocation(42, cands, 0.6, true)
		l.Record(7, profile, social.Medium, true, first)
		l.RecordFeedback(7)
	})
	if allocs != 0 {
		t.Fatalf("a repeat served interaction allocates %v objects/op, want 0", allocs)
	}
}
