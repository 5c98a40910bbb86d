package trustnet

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/dht"
	"repro/internal/reputation"
	"repro/internal/satisfaction"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runEpochs drives an engine n epochs, failing the test on any error.
func runEpochs(t *testing.T, eng *Engine, n int) {
	t.Helper()
	if _, err := eng.Run(context.Background(), n); err != nil {
		t.Fatal(err)
	}
}

// snapshotRoundTrip serializes and re-decodes a snapshot, proving file-level
// checkpoints behave exactly like in-memory ones.
func snapshotRoundTrip(t *testing.T, eng *Engine) *Snapshot {
	t.Helper()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

// TestSnapshotResumeGolden is the acceptance test of the snapshot feature:
// for every epoch boundary and for capture/restore shard counts {1,4},
// snapshot -> encode -> decode -> restore -> run-the-rest reproduces the
// uninterrupted history bit-for-bit.
func TestSnapshotResumeGolden(t *testing.T) {
	const totalEpochs = 6
	reference, err := sessionSharded(101, 1).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, reference, totalEpochs)
	want := histBytes(t, reference.History())

	for _, captureShards := range []int{1, 4} {
		for _, resumeShards := range []int{1, 4} {
			for boundary := 0; boundary <= totalEpochs; boundary++ {
				first, err := sessionSharded(101, captureShards).NewEngine()
				if err != nil {
					t.Fatal(err)
				}
				runEpochs(t, first, boundary)
				snap := snapshotRoundTrip(t, first)
				if snap.Epoch() != boundary {
					t.Fatalf("snapshot at boundary %d reports epoch %d", boundary, snap.Epoch())
				}

				second, err := sessionSharded(101, resumeShards).NewEngine()
				if err != nil {
					t.Fatal(err)
				}
				if err := second.Restore(snap); err != nil {
					t.Fatalf("restore at boundary %d: %v", boundary, err)
				}
				runEpochs(t, second, totalEpochs-boundary)
				if got := histBytes(t, second.History()); !bytes.Equal(want, got) {
					t.Fatalf("resume at boundary %d (capture %d shards, resume %d) diverges from uninterrupted run",
						boundary, captureShards, resumeShards)
				}
			}
		}
	}
}

// TestSnapshotResumeAllMechanisms proves every built-in mechanism's state
// survives the round trip: resume at a mid-run boundary reproduces the
// uninterrupted history exactly.
func TestSnapshotResumeAllMechanisms(t *testing.T) {
	const totalEpochs, boundary = 5, 2
	mechs := []struct {
		name string
		spec MechanismSpec
	}{
		{"eigentrust", MechanismSpec{Pretrusted: []int{0, 1, 2}}},
		{"powertrust", MechanismSpec{Kind: "powertrust"}},
		{"trustme", MechanismSpec{Kind: "trustme"}},
		{"anonrep", MechanismSpec{Kind: "anonrep", Seed: 5}},
		{"none", MechanismSpec{Kind: "none"}},
	}
	for _, mk := range mechs {
		t.Run(mk.name, func(t *testing.T) {
			sc := sessionWith(211, mk.spec)
			full, err := sc.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			runEpochs(t, full, totalEpochs)
			want := histBytes(t, full.History())

			first, err := sc.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			runEpochs(t, first, boundary)
			snap := snapshotRoundTrip(t, first)
			second, err := sc.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			if err := second.Restore(snap); err != nil {
				t.Fatal(err)
			}
			runEpochs(t, second, totalEpochs-boundary)
			if !bytes.Equal(want, histBytes(t, second.History())) {
				t.Fatal("resumed history diverges from uninterrupted run")
			}
		})
	}
}

// TestSnapshotResumeWithSchedule proves checkpoints compose with scripted
// scenarios: a snapshot taken mid-schedule resumes into a session carrying
// the same schedule and reproduces the uninterrupted scripted run, including
// interventions that fire after the boundary.
func TestSnapshotResumeWithSchedule(t *testing.T) {
	const totalEpochs, boundary = 6, 3
	cohort := []int{5, 6, 7, 8, 9, 10, 11, 12}
	sched := Schedule{}.
		At(1, LeaveWave{Users: cohort}).
		At(2, TrustGateChange{Gate: 0.2}).
		At(4, WhitewashWave{Users: cohort}).
		At(5, BehaviorChange{Users: []int{40, 41}, Class: Traitor})

	runScripted := func(eng *Engine, epochs int) {
		t.Helper()
		s, err := eng.Session(context.Background(), WithMaxEpochs(epochs), WithSchedule(sched))
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range s.Epochs() {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	full, err := sessionScenario(307).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runScripted(full, totalEpochs)
	want := histBytes(t, full.History())

	first, err := sessionScenario(307).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runScripted(first, boundary)
	snap := snapshotRoundTrip(t, first)

	second, err := sessionSharded(307, 4).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(snap); err != nil {
		t.Fatal(err)
	}
	runScripted(second, totalEpochs-boundary)
	if !bytes.Equal(want, histBytes(t, second.History())) {
		t.Fatal("scripted resume diverges from uninterrupted scripted run")
	}
}

func TestSnapshotMismatchRejected(t *testing.T) {
	eng, err := sessionScenario(401).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 2)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	smaller, err := Scenario{Peers: 10}.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := smaller.Restore(snap); err == nil || !strings.Contains(err.Error(), "peers") {
		t.Fatalf("restore into wrong population = %v, want peers mismatch", err)
	}

	otherMech, err := sessionWith(401, MechanismSpec{Kind: "trustme"}).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := otherMech.Restore(snap); err == nil || !strings.Contains(err.Error(), "mechanism") {
		t.Fatalf("restore into wrong mechanism = %v, want mechanism mismatch", err)
	}

	if err := eng.Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	bad := *snap
	bad.Version = 99
	if err := eng.Restore(&bad); err == nil {
		t.Fatal("wrong-version snapshot accepted")
	}
}

// TestRestoreRejectsHostileLedger feeds snapshots whose privacy record —
// the disclosure count, the per-user feedback exposures, the touched users
// and the profile flags — is malformed or names users outside the
// population through the public encode/decode/restore path: each must be an
// error, not a panic or an out-of-memory growth of per-user state, and a
// rejected restore must leave the engine exactly as it was — its snapshot
// unchanged and its continuation bit-identical to a twin that never saw the
// hostile blobs.
func TestRestoreRejectsHostileLedger(t *testing.T) {
	eng, err := sessionScenario(402).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sessionScenario(402).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	n := eng.Peers()
	last := func(st *workload.EngineState) *workload.FeedbackSum { return &st.Feedback[len(st.Feedback)-1] }
	// flagged counts the consumers' profile flags.
	flagged := func(st *workload.EngineState) int64 {
		var k int64
		for _, c := range st.Consumers {
			for _, o := range c.Overrides {
				if o.Disclosed {
					k++
				}
			}
		}
		return k
	}
	cases := []struct {
		name, want string
		mutate     func(st *workload.EngineState)
	}{
		{"huge owner", "feedback of peer", func(st *workload.EngineState) { last(st).Peer = 1 << 62 }},
		{"mid-sized owner", "feedback of peer", func(st *workload.EngineState) { last(st).Peer = 1 << 34 }},
		{"negative owner", "feedback of peer", func(st *workload.EngineState) { st.Feedback[0].Peer = -1 }},
		{"owner = peers", "feedback of peer", func(st *workload.EngineState) { last(st).Peer = n }},
		{"owners unsorted", "feedback of peer", func(st *workload.EngineState) { st.Feedback[0], st.Feedback[1] = st.Feedback[1], st.Feedback[0] }},
		{"owner duplicated", "feedback of peer", func(st *workload.EngineState) { st.Feedback[1].Peer = st.Feedback[0].Peer }},
		// A profile recipient as far as the population: a flag on an
		// override for provider n, past the consumer's last one.
		{"recipient = peers", "override for provider", func(st *workload.EngineState) {
			c := &st.Consumers[0]
			c.Overrides = append(c.Overrides, satisfaction.Override{Provider: int32(n), Disclosed: true, Pref: 0.5})
		}},
		{"dirty owner out of range", "dirty mark", func(st *workload.EngineState) { st.PrivacyDirty = append(st.PrivacyDirty, 1<<62) }},
		{"negative dirty mark", "dirty mark", func(st *workload.EngineState) { st.PrivacyDirty = []int{-1} }},
		{"dirty marks unsorted", "dirty mark", func(st *workload.EngineState) { st.PrivacyDirty = []int{3, 2} }},
		{"dirty mark duplicated", "dirty mark", func(st *workload.EngineState) { st.PrivacyDirty = []int{2, 2} }},
		{"negative total", "disclosures", func(st *workload.EngineState) { st.Disclosures = -1 }},
		{"feedback NaN", "feedback exposure", func(st *workload.EngineState) { st.Feedback[0].Sum = math.NaN() }},
		{"feedback +Inf", "feedback exposure", func(st *workload.EngineState) { st.Feedback[0].Sum = math.Inf(1) }},
		{"feedback negative", "feedback exposure", func(st *workload.EngineState) { st.Feedback[0].Sum = -0.2 }},
		{"feedback above 0.2 x total", "feedback exposure", func(st *workload.EngineState) {
			st.Feedback[0].Sum = 0.2*float64(st.Disclosures) + 0.2
		}},
		// Each sum within the reports the count leaves, but together far
		// above them.
		{"feedback sums above the reports in total", "feedback exposures sum", func(st *workload.EngineState) {
			for k := range st.Feedback {
				st.Feedback[k].Sum = 0.2 * float64(st.Disclosures-flagged(st))
			}
		}},
		// Every disclosure a report, save the flagged profiles: one report
		// more than that is more than the count allows.
		{"feedback above the reports left", "feedback exposure", func(st *workload.EngineState) {
			st.Feedback[0].Sum = 0.2 * float64(st.Disclosures-flagged(st)+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshotRoundTrip(t, eng)
			if len(snap.State.Engine.Feedback) < 2 {
				t.Fatal("snapshot privacy record has too few feedback exposures to corrupt")
			}
			tc.mutate(&snap.State.Engine)
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			hostile, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(hostile); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore of hostile privacy record = %v, want a %q error", err, tc.want)
			}
			after, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, before) {
				t.Fatal("rejected restore changed the engine")
			}
		})
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	if !bytes.Equal(histBytes(t, eng.History()), histBytes(t, twin.History())) {
		t.Fatal("rejected restores perturbed the continuation")
	}
}

// TestRestoreRejectsHostileUserState feeds snapshots whose per-user trust,
// gatherer disclosure or honesty override is out of shape or out of [0,1]
// through the public encode/decode/restore path. The engine holds the only
// copy of the coupling variables, so each must be an error, and a rejected
// restore must leave the engine's continuation bit-identical to a twin that
// never saw the hostile blobs.
func TestRestoreRejectsHostileUserState(t *testing.T) {
	eng, err := sessionScenario(403).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sessionScenario(403).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	n := eng.Peers()
	cases := []struct {
		name   string
		want   string
		mutate func(st *core.DynamicsState)
	}{
		{"trust NaN", "trust", func(st *core.DynamicsState) { st.Trust.Trust[3] = math.NaN() }},
		{"trust +Inf", "trust", func(st *core.DynamicsState) { st.Trust.Trust[3] = math.Inf(1) }},
		{"trust 9", "trust", func(st *core.DynamicsState) { st.Trust.Trust[n-1] = 9 }},
		{"trust negative", "trust", func(st *core.DynamicsState) { st.Trust.Trust[0] = -0.1 }},
		{"disclosure short", "disclosure", func(st *core.DynamicsState) {
			st.Engine.Gatherer.Disclosure = st.Engine.Gatherer.Disclosure[:n-1]
		}},
		{"disclosure long", "disclosure", func(st *core.DynamicsState) {
			st.Engine.Gatherer.Disclosure = append(st.Engine.Gatherer.Disclosure, 1)
		}},
		{"disclosure missing", "disclosure", func(st *core.DynamicsState) { st.Engine.Gatherer.Disclosure = nil }},
		{"disclosure 1.5", "disclosure", func(st *core.DynamicsState) { st.Engine.Gatherer.Disclosure[2] = 1.5 }},
		{"disclosure negative", "disclosure", func(st *core.DynamicsState) { st.Engine.Gatherer.Disclosure[2] = -0.5 }},
		{"disclosure NaN", "disclosure", func(st *core.DynamicsState) { st.Engine.Gatherer.Disclosure[2] = math.NaN() }},
		{"honesty 5", "honesty", func(st *core.DynamicsState) { st.Engine.HonestOverride[4] = 5 }},
		{"honesty negative", "honesty", func(st *core.DynamicsState) { st.Engine.HonestOverride[4] = -1 }},
		{"honesty NaN", "honesty", func(st *core.DynamicsState) { st.Engine.HonestOverride[4] = math.NaN() }},
		{"honesty short", "honesty", func(st *core.DynamicsState) {
			st.Engine.HonestOverride = st.Engine.HonestOverride[:3]
		}},
		{"exposure scale NaN", "exposure scale", func(st *core.DynamicsState) { st.Engine.LedgerScale = math.NaN() }},
		{"exposure scale 0", "exposure scale", func(st *core.DynamicsState) { st.Engine.LedgerScale = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshotRoundTrip(t, eng)
			if len(snap.State.Engine.HonestOverride) != n {
				t.Fatal("coupled snapshot carries no honesty override to corrupt")
			}
			tc.mutate(&snap.State)
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			hostile, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(hostile); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore of hostile state = %v, want a %s error", err, tc.want)
			}
			after, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after.State.Trust, before.State.Trust) ||
				!reflect.DeepEqual(after.State.Engine.Gatherer, before.State.Engine.Gatherer) ||
				!reflect.DeepEqual(after.State.Engine.HonestOverride, before.State.Engine.HonestOverride) ||
				after.Epoch() != before.Epoch() {
				t.Fatal("rejected restore changed the engine")
			}
		})
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	if !bytes.Equal(histBytes(t, eng.History()), histBytes(t, twin.History())) {
		t.Fatal("rejected restores perturbed the continuation")
	}
}

// TestRestoreIsAtomic feeds a snapshot taken one epoch earlier, with one
// hostile part placed where a restore that writes as it checks would already
// have overwritten the mechanism and most users: the last peer's behaviour
// class, or a self-rating in the EigenTrust local-trust matrix. More rows
// corrupt state no run can reach: a provider's or consumer's satisfaction
// or observation count (a provider's is its served count), a quality sum,
// an EigenTrust score, a history or round entry that is not at its own
// index, and round counts that are negative or break
// Refused <= BadService <= Interactions; restored, they would fail or
// diverge one epoch later. Each must be an error that leaves the
// engine's encoded snapshot byte-identical to before and its continuation
// bit-identical to a twin that never saw the hostile blobs.
func TestRestoreIsAtomic(t *testing.T) {
	eng, err := sessionScenario(404).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sessionScenario(404).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 1)
	earlier := snapshotRoundTrip(t, eng)
	runEpochs(t, eng, 1)
	runEpochs(t, twin, 2)
	n := eng.Peers()
	// etState mirrors the EigenTrust mechanism blob; gob matches fields by name.
	type etState struct {
		LT      reputation.LocalTrustState
		Scores  []float64
		Dirty   bool
		Conv    reputation.Convergence
		HasConv bool
	}
	cases := []struct {
		name   string
		want   string
		mutate func(t *testing.T, st *core.DynamicsState)
	}{
		{"last peer unknown class", "behaviour", func(t *testing.T, st *core.DynamicsState) { st.Engine.Classes[n-1] = Class(99) }},
		{"provider satisfaction NaN", "provider state satisfaction", func(t *testing.T, st *core.DynamicsState) { st.Engine.Providers[5].Sat = math.NaN() }},
		{"consumer satisfaction +Inf", "consumer state satisfaction", func(t *testing.T, st *core.DynamicsState) { st.Engine.Consumers[5].Sat = math.Inf(1) }},
		{"consumer observations -1", "observations", func(t *testing.T, st *core.DynamicsState) { st.Engine.Consumers[5].N = -1 }},
		// A provider's served count is its observation count.
		{"served count -3", "observations", func(t *testing.T, st *core.DynamicsState) { st.Engine.Providers[5].N = -3 }},
		{"quality sum NaN", "quality sum", func(t *testing.T, st *core.DynamicsState) { st.Engine.QualSum[5] = math.NaN() }},
		// Each history and round entry sits at its own index, and a round's
		// counts are ones a round can produce.
		{"history entry 2 claims epoch 1", "claims epoch", func(t *testing.T, st *core.DynamicsState) {
			next, again := st.History[0], st.History[0]
			next.Epoch, again.Epoch = 1, 1
			st.History = append(st.History, next, again)
		}},
		{"round entry 0 claims round 3", "claims round", func(t *testing.T, st *core.DynamicsState) { st.Engine.Rounds[0].Round = 3 }},
		{"negative round interactions", "counts", func(t *testing.T, st *core.DynamicsState) { st.Engine.Rounds[1].Interactions = -1 }},
		{"refused above bad service", "counts", func(t *testing.T, st *core.DynamicsState) {
			for k := range st.Engine.Rounds {
				if r := &st.Engine.Rounds[k]; r.Interactions > r.BadService {
					r.Refused = r.BadService + 1
					return
				}
			}
			t.Fatal("snapshot has no round with a good interaction")
		}},
		{"engine stream spare NaN", "stream", func(t *testing.T, st *core.DynamicsState) {
			st.Engine.RNG.Spare, st.Engine.RNG.HasSpare = math.NaN(), true
		}},
		{"gatherer stream spare +Inf", "gatherer", func(t *testing.T, st *core.DynamicsState) {
			st.Engine.Gatherer.RNG.Spare, st.Engine.Gatherer.RNG.HasSpare = math.Inf(1), true
		}},
		{"trust gate NaN", "trust gate", func(t *testing.T, st *core.DynamicsState) { st.Engine.TrustGate = math.NaN() }},
		{"exposure scale +Inf", "exposure scale", func(t *testing.T, st *core.DynamicsState) { st.Engine.LedgerScale = math.Inf(1) }},
		{"base disclosure NaN", "base disclosure", func(t *testing.T, st *core.DynamicsState) { st.BaseDisclosure = math.NaN() }},
		{"base honesty NaN", "base honesty", func(t *testing.T, st *core.DynamicsState) { st.BaseHonesty = math.NaN() }},
		// The privacy record: every profile flag came with a disclosure, and
		// a feedback exposure and a touched user must be ones a run reaches.
		{"disclosure flag without a ledger count", "fewer than", func(t *testing.T, st *core.DynamicsState) {
			var flags int64
			for _, c := range st.Engine.Consumers {
				for _, o := range c.Overrides {
					if o.Disclosed {
						flags++
					}
				}
			}
			// Every disclosure counted is a flagged profile; one more flag
			// has no count behind it.
			st.Engine.Disclosures = flags
			for _, c := range st.Engine.Consumers {
				for k := range c.Overrides {
					if !c.Overrides[k].Disclosed {
						c.Overrides[k].Disclosed = true
						return
					}
				}
			}
			t.Fatal("snapshot has no undisclosed override to flag")
		}},
		{"feedback exposure +Inf", "feedback exposure", func(t *testing.T, st *core.DynamicsState) {
			if len(st.Engine.Feedback) == 0 {
				t.Fatal("snapshot has no feedback exposure to corrupt")
			}
			st.Engine.Feedback[0].Sum = math.Inf(1)
		}},
		{"privacy dirty mark at peers", "dirty mark", func(t *testing.T, st *core.DynamicsState) {
			st.Engine.PrivacyDirty = append(st.Engine.PrivacyDirty, n)
		}},
		// Every satisfaction dirty mark is a user, each listed once in
		// ascending order.
		{"satisfaction dirty mark beyond population", "satisfaction dirty mark", func(t *testing.T, st *core.DynamicsState) {
			st.Engine.SatDirty = []int{3, n}
		}},
		{"satisfaction dirty marks not ascending", "satisfaction dirty mark", func(t *testing.T, st *core.DynamicsState) {
			st.Engine.SatDirty = []int{5, 3}
		}},
		{"negative satisfaction dirty mark", "satisfaction dirty mark", func(t *testing.T, st *core.DynamicsState) {
			st.Engine.SatDirty = []int{-1, 3}
		}},
		{"eigentrust self-rating", "self-rating", func(t *testing.T, st *core.DynamicsState) {
			var et etState
			if err := gob.NewDecoder(bytes.NewReader(st.Engine.Mechanism)).Decode(&et); err != nil {
				t.Fatal(err)
			}
			if len(et.LT.Entries) == 0 {
				t.Fatal("snapshot local trust has no entry to corrupt")
			}
			e := &et.LT.Entries[len(et.LT.Entries)-1]
			e.J = e.I
			st.Engine.Mechanism = gobBytes(t, et)
		}},
		{"eigentrust NaN score", "score", func(t *testing.T, st *core.DynamicsState) {
			var et etState
			if err := gob.NewDecoder(bytes.NewReader(st.Engine.Mechanism)).Decode(&et); err != nil {
				t.Fatal(err)
			}
			et.Scores[n-1] = math.NaN()
			st.Engine.Mechanism = gobBytes(t, et)
		}},
	}
	encode := func(t *testing.T) []byte {
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := encode(t)
			var buf bytes.Buffer
			if err := earlier.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			hostile, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, &hostile.State)
			if err := eng.Restore(hostile); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore of hostile snapshot = %v, want a %s error", err, tc.want)
			}
			if !bytes.Equal(encode(t), before) {
				t.Fatal("rejected restore changed the engine")
			}
		})
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	if !bytes.Equal(histBytes(t, eng.History()), histBytes(t, twin.History())) {
		t.Fatal("rejected restores perturbed the continuation")
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(st *anonRepState)
	}{
		// Accounts are kept by peer, so dropping the last one leaves the
		// last peer's current pseudonym with no account.
		{"anonrep pseudonym with no account", "accounts for", func(st *anonRepState) { st.Accts = st.Accts[:len(st.Accts)-1] }},
		{"anonrep NaN score", "score", func(st *anonRepState) { st.Scores[0] = math.NaN() }},
		{"anonrep +Inf account base", "account", func(st *anonRepState) { st.mutateAccount(func(a *anonRepAccount) { a.Base = math.Inf(1) }) }},
		{"anonrep NaN account sum", "account", func(st *anonRepState) { st.mutateAccount(func(a *anonRepAccount) { a.Sum = math.NaN() }) }},
		{"anonrep negative count", "account", func(st *anonRepState) { st.mutateAccount(func(a *anonRepAccount) { a.Count = -1 }) }},
		{"anonrep negative epoch", "epoch", func(st *anonRepState) { st.Epoch = -1 }},
		{"anonrep negative chain epoch", "chain epoch", func(st *anonRepState) { st.Nyms[2].Epoch = -3 }},
		{"anonrep infinite buffered Gaussian", "Gaussian", func(st *anonRepState) { st.RNG.Spare, st.RNG.HasSpare = math.Inf(-1), true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testAnonRepRestoreIsAtomic(t, tc.want, tc.mutate)
		})
	}
	t.Run("trustme NaN score", func(t *testing.T) {
		testTrustMeRestoreIsAtomic(t, "score", func(st *trustMeState) { st.Scores[len(st.Scores)-1] = math.NaN() })
	})
	t.Run("trustme ring keys unsorted", func(t *testing.T) {
		testTrustMeRestoreIsAtomic(t, "ascending", func(st *trustMeState) {
			st.Ring.Store[0], st.Ring.Store[1] = st.Ring.Store[1], st.Ring.Store[0]
		})
	})
	t.Run("trustme ring key duplicated", func(t *testing.T) {
		testTrustMeRestoreIsAtomic(t, "ascending", func(st *trustMeState) { st.Ring.Store[1].Key = st.Ring.Store[0].Key })
	})
	t.Run("powertrust NaN score", func(t *testing.T) {
		testPowerTrustRestoreIsAtomic(t)
	})
}

// gobBytes gob-encodes v.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// powerTrustState mirrors the PowerTrust mechanism blob; gob matches fields
// by name.
type powerTrustState struct {
	Feedback []struct {
		Rater, Ratee int
		Sum          float64
		Count        int
	}
	Scores    []float64
	Power     []int
	Dirty     bool
	DirtyRows []int32
	Conv      reputation.Convergence
	HasConv   bool
}

// testPowerTrustRestoreIsAtomic is TestRestoreIsAtomic's PowerTrust case: a
// blob whose last peer's score is NaN. The PowerTrust blob is byte-stable,
// so the engine is compared as its whole encoded snapshot.
func testPowerTrustRestoreIsAtomic(t *testing.T) {
	sc := sessionWith(408, MechanismSpec{Kind: "powertrust"})
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 1)
	earlier := snapshotRoundTrip(t, eng)
	runEpochs(t, eng, 1)
	runEpochs(t, twin, 2)
	encode := func() []byte {
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := encode()
	var buf bytes.Buffer
	if err := earlier.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	hostile, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var mech powerTrustState
	if err := gob.NewDecoder(bytes.NewReader(hostile.State.Engine.Mechanism)).Decode(&mech); err != nil {
		t.Fatal(err)
	}
	if len(mech.Feedback) == 0 {
		t.Fatal("snapshot carries no feedback, so the feedback restore goes unexercised")
	}
	mech.Scores[len(mech.Scores)-1] = math.NaN()
	hostile.State.Engine.Mechanism = gobBytes(t, mech)
	if err := eng.Restore(hostile); err == nil || !strings.Contains(err.Error(), "score") {
		t.Fatalf("restore of hostile snapshot = %v, want a score error", err)
	}
	if !bytes.Equal(encode(), before) {
		t.Fatal("rejected restore changed the engine")
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	if !bytes.Equal(histBytes(t, eng.History()), histBytes(t, twin.History())) {
		t.Fatal("rejected restore perturbed the continuation")
	}
}

// trustMeState mirrors the TrustMe mechanism blob; gob matches fields by
// name.
type trustMeState struct {
	Ring     dht.RingState
	Certs    []crypto.TransactionCert
	Messages int64
	Rejected int64
	Scores   []float64
	Dirty    bool
}

// testTrustMeRestoreIsAtomic is TestRestoreIsAtomic's TrustMe case: a blob
// that mutate makes hostile must be refused with an error naming want, and
// leave the engine's encoded snapshot unchanged byte for byte.
func testTrustMeRestoreIsAtomic(t *testing.T, want string, mutate func(st *trustMeState)) {
	sc := sessionWith(407, MechanismSpec{Kind: "trustme"})
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 1)
	earlier := snapshotRoundTrip(t, eng)
	runEpochs(t, eng, 1)
	runEpochs(t, twin, 2)
	capture := func(t *testing.T) []byte {
		t.Helper()
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := capture(t)
	var buf bytes.Buffer
	if err := earlier.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	hostile, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var mech trustMeState
	if err := gob.NewDecoder(bytes.NewReader(hostile.State.Engine.Mechanism)).Decode(&mech); err != nil {
		t.Fatal(err)
	}
	// Filing a report consumes its certificate, so a snapshot between
	// rounds holds none; the trustme package tests restore a pending one.
	if len(mech.Ring.Store) < 2 {
		t.Fatal("snapshot carries too little rating history to exercise the ring restore")
	}
	mutate(&mech)
	hostile.State.Engine.Mechanism = gobBytes(t, mech)
	if err := eng.Restore(hostile); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of hostile snapshot = %v, want a %s error", err, want)
	}
	if !bytes.Equal(capture(t), before) {
		t.Fatal("rejected restore changed the engine")
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	if !bytes.Equal(histBytes(t, eng.History()), histBytes(t, twin.History())) {
		t.Fatal("rejected restore perturbed the continuation")
	}
}

// TestTrustMeCertificatesBounded: TrustMe state does not grow with run
// length through its certificates. Filing a report consumes its
// certificate, so a 300-peer run holds no more after 40 epochs than after
// 10.
func TestTrustMeCertificatesBounded(t *testing.T) {
	sc := sessionWith(409, MechanismSpec{Kind: "trustme"})
	sc.Peers = 300
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	certs := func() int {
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var mech trustMeState
		if err := gob.NewDecoder(bytes.NewReader(snap.State.Engine.Mechanism)).Decode(&mech); err != nil {
			t.Fatal(err)
		}
		return len(mech.Certs)
	}
	runEpochs(t, eng, 10)
	early := certs()
	runEpochs(t, eng, 30)
	if late := certs(); late > early {
		t.Fatalf("%d certificates after 40 epochs, %d after 10", late, early)
	}
}

// anonRepState mirrors the AnonRep mechanism blob; gob matches fields by
// name.
type anonRepState struct {
	RNG          sim.RNGState
	Nyms         []crypto.ChainState
	Accts        []anonRepAccount
	Epoch        int
	LastTransfer []struct {
		Peer            int
		OldObs, Carried float64
	}
	Scores []float64
	Dirty  bool
}

// anonRepAccount mirrors one AnonRep bank account.
type anonRepAccount struct {
	Base    float64
	HasBase bool
	Sum     float64
	Count   int
}

// mutateAccount applies f to the account of peer 0's current pseudonym.
func (st *anonRepState) mutateAccount(f func(a *anonRepAccount)) { f(&st.Accts[0]) }

// testAnonRepRestoreIsAtomic is TestRestoreIsAtomic's AnonRep case: a blob
// that mutate makes hostile must be refused with an error naming want, and
// leave the engine's encoded snapshot byte-identical.
func testAnonRepRestoreIsAtomic(t *testing.T, want string, mutate func(st *anonRepState)) {
	sc := sessionWith(406, MechanismSpec{Kind: "anonrep", Seed: 5})
	eng, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 1)
	earlier := snapshotRoundTrip(t, eng)
	runEpochs(t, eng, 1)
	runEpochs(t, twin, 2)
	capture := func(t *testing.T) []byte {
		t.Helper()
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := capture(t)
	var buf bytes.Buffer
	if err := earlier.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	hostile, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var mech anonRepState
	if err := gob.NewDecoder(bytes.NewReader(hostile.State.Engine.Mechanism)).Decode(&mech); err != nil {
		t.Fatal(err)
	}
	mutate(&mech)
	hostile.State.Engine.Mechanism = gobBytes(t, mech)
	if err := eng.Restore(hostile); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of hostile snapshot = %v, want a %s error", err, want)
	}
	if !bytes.Equal(capture(t), before) {
		t.Fatal("rejected restore changed the engine")
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	if !bytes.Equal(histBytes(t, eng.History()), histBytes(t, twin.History())) {
		t.Fatal("rejected restore perturbed the continuation")
	}
}

// TestSnapshotEncodeIsByteStable snapshots and encodes one mid-run state
// several times: the bytes must not depend on map iteration order, in the
// snapshot or in the mechanism blob it carries.
func TestSnapshotEncodeIsByteStable(t *testing.T) {
	for _, mech := range []struct {
		name string
		spec MechanismSpec
	}{
		{"eigentrust", MechanismSpec{}},
		{"powertrust", MechanismSpec{Kind: "powertrust"}},
		{"none", MechanismSpec{Kind: "none"}},
		{"anonrep", MechanismSpec{Kind: "anonrep", Seed: 5}},
		{"trustme", MechanismSpec{Kind: "trustme"}},
	} {
		t.Run(mech.name, func(t *testing.T) {
			sc := sessionWith(405, mech.spec)
			sc.Peers = 200
			eng, err := sc.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			runEpochs(t, eng, 2)
			// Rotate AnonRep's pseudonyms, so its bank has retired some.
			if ar, ok := eng.Mechanism().(*AnonRepMechanism); ok {
				ar.NextEpoch()
			}
			var first []byte
			for i := 0; i < 4; i++ {
				snap, err := eng.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := snap.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), first) {
					t.Fatalf("snapshot %d of the same state encodes differently from the first", i)
				}
			}
		})
	}
}

// TestSnapshotSizeBounded pins bounded state: the snapshot carries
// sufficient statistics, not logs, so a 300-peer run's checkpoint stays
// small at 60 epochs instead of growing with every interaction and report.
// The scenario is trustsim's default one.
func TestSnapshotSizeBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 60 epochs")
	}
	eng := newEngine(t, Scenario{
		Peers:          300,
		Seed:           1,
		Mix:            mix(0.3),
		Mechanism:      MechanismSpec{Pretrusted: []int{0, 1, 2}},
		Privacy:        &PrivacyPolicy{Disclosure: 0.8},
		RecomputeEvery: 2,
		Coupled:        true,
		EpochRounds:    8,
	})
	runEpochs(t, eng, 60)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if size := buf.Len(); size > 1<<20 {
		t.Fatalf("300-peer snapshot at epoch 60 is %d bytes, want at most 1 MiB", size)
	}
}

// TestDecodeSnapshotOldVersionClearError pins the decode-time version probe:
// a snapshot from an older format generation — whose State would not even
// gob-decode into the current shape, or would decode into an empty ledger —
// must report a clear version mismatch, not a raw gob failure from deep
// inside the state or a silently emptied restore.
func TestDecodeSnapshotOldVersionClearError(t *testing.T) {
	// A v1-era blob stand-in: same header fields, but a State whose wire
	// type is incompatible with core.DynamicsState, so a single-pass decode
	// would fail inside the state before any version check.
	type v1State struct {
		Engine string // current Engine is a struct: gob "type mismatch"
	}
	type v1Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v1State
	}
	// A v2-era stand-in: the ledger was an event list, which has no field
	// in common with the v3 per-owner aggregates.
	type v2Event struct{ Owner, Recipient int }
	type v2State struct {
		Ledger struct{ Events []v2Event }
		Epoch  int
	}
	type v2Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v2State
	}
	v2 := v2Snapshot{Version: 2, Peers: 60, Mechanism: "eigentrust", Epoch: 3}
	v2.State.Ledger.Events = []v2Event{{Owner: 4, Recipient: -1}}
	// A v3-era stand-in: the coupling vectors sat beside the engine, whose
	// own copies lagged them by one epoch.
	type v3State struct {
		Disclosure, Honesty []float64
		Epoch               int
	}
	type v3Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v3State
	}
	v3 := v3Snapshot{Version: 3, Peers: 2, Mechanism: "eigentrust", Epoch: 3,
		State: v3State{Disclosure: []float64{0.4, 0.9}, Honesty: []float64{0.6, 1}, Epoch: 3}}
	// A v4-era stand-in: the ledger sat beside the engine, so it would
	// decode into nothing and leave the engine's ledger empty.
	type v4Owner struct{ Owner, Total, Consented int64 }
	type v4State struct {
		Ledger struct{ Owners []v4Owner }
		Epoch  int
	}
	type v4Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v4State
	}
	v4 := v4Snapshot{Version: 4, Peers: 60, Mechanism: "eigentrust", Epoch: 3}
	v4.State.Ledger.Owners = []v4Owner{{Owner: 4, Total: 2, Consented: 2}}
	// A v5-era stand-in: a ledger item listed its recipients, which does
	// not decode into a count.
	type v5Item struct {
		Key        string
		Recipients []int
	}
	type v5Owner struct {
		Owner int
		Items []v5Item
	}
	type v5State struct {
		Engine struct{ Ledger struct{ Owners []v5Owner } }
		Epoch  int
	}
	type v5Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v5State
	}
	v5 := v5Snapshot{Version: 5, Peers: 60, Mechanism: "eigentrust", Epoch: 3}
	v5.State.Engine.Ledger.Owners = []v5Owner{{Owner: 4, Items: []v5Item{{Key: "profile", Recipients: []int{7, 9}}}}}
	// A v6-era stand-in: the engine's privacy state was a ledger of
	// per-owner aggregates, which a v7 engine state has no field for, so
	// its feedback exposure would restore as 0.
	type v6Item struct {
		Key        string
		Weight     float64
		Recipients int64
	}
	type v6Owner struct {
		Owner            int
		Total, Consented int64
		Feedback         float64
		Items            []v6Item
	}
	type v6State struct {
		Engine struct{ Ledger struct{ Owners []v6Owner } }
		Epoch  int
	}
	type v6Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v6State
	}
	v6 := v6Snapshot{Version: 6, Peers: 60, Mechanism: "eigentrust", Epoch: 3}
	v6.State.Engine.Ledger.Owners = []v6Owner{{Owner: 4, Total: 3, Consented: 3, Feedback: 0.4, Items: []v6Item{{Key: "profile", Weight: 0.5, Recipients: 1}}}}
	// A v7-era stand-in: the epoch, round counter and cumulative totals
	// stood beside the logs they count, with nothing checking that they
	// agree. Gob would skip those fields in a v8 state, so only the version
	// refuses it.
	type v7Round struct{ Round, Interactions, BadService, Refused int }
	type v7State struct {
		Engine struct {
			Round      int
			Rounds     []v7Round
			Cumulative v7Round
		}
		Epoch        int
		PrevRepFacet float64
	}
	type v7Snapshot struct {
		Version   int
		Peers     int
		Mechanism string
		Epoch     int
		State     v7State
	}
	v7 := v7Snapshot{Version: 7, Peers: 60, Mechanism: "eigentrust", Epoch: 9}
	v7.State.Epoch, v7.State.PrevRepFacet = 1, 0.5
	v7.State.Engine.Round, v7.State.Engine.Rounds = -7, []v7Round{{Interactions: 5}}
	v7.State.Engine.Cumulative = v7Round{Interactions: 5}
	for _, blob := range []any{
		v1Snapshot{Version: 1, Peers: 60, Mechanism: "eigentrust", Epoch: 3, State: v1State{Engine: "dense matrices lived here"}},
		v2,
		v3,
		v4,
		v5,
		v6,
		v7,
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeSnapshot(&buf)
		if err == nil {
			t.Fatalf("old-version snapshot %T decoded without error", blob)
		}
		if want := fmt.Sprintf("snapshot version mismatch (got %d, want 8)", reflect.ValueOf(blob).Field(0).Int()); !strings.Contains(err.Error(), want) {
			t.Fatalf("decode error %q does not name the version mismatch %q", err, want)
		}
	}
}

// TestRestoreFromFile covers the shared file-resume helper both trustsim and
// trustnetd (and trustmaster's workers, via snapshot sync) sit on: a good
// checkpoint file restores bit-for-bit, a wrong-version file reports the
// version mismatch instead of a raw gob error, and a missing file fails.
func TestRestoreFromFile(t *testing.T) {
	eng, err := sessionScenario(77).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 3)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	f, err := os.Create(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := sessionScenario(77).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreFromFile(good); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.EpochIndex(), eng.EpochIndex(); got != want {
		t.Fatalf("resumed epoch = %d, want %d", got, want)
	}
	runEpochs(t, eng, 2)
	runEpochs(t, resumed, 2)
	a, b := eng.History(), resumed.History()
	if len(b) == 0 || a[len(a)-1] != b[len(b)-1] {
		t.Fatalf("post-resume epoch diverged: %+v vs %+v", a[len(a)-1], b[len(b)-1])
	}

	stale := filepath.Join(dir, "stale.snap")
	bad := *snap
	bad.Version = 1
	bf, err := os.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(bf).Encode(&bad); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}
	err = resumed.RestoreFromFile(stale)
	if err == nil || !strings.Contains(err.Error(), "snapshot version mismatch") {
		t.Fatalf("stale-version file restore = %v, want version mismatch", err)
	}

	if err := resumed.RestoreFromFile(filepath.Join(dir, "absent.snap")); err == nil {
		t.Fatal("restore from missing file succeeded")
	}
}
