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

	"repro/internal/privacy"
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
	reference, err := New(sessionScenario(101, WithShards(1))...)
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, reference, totalEpochs)
	want := histBytes(t, reference.History())

	for _, captureShards := range []int{1, 4} {
		for _, resumeShards := range []int{1, 4} {
			for boundary := 0; boundary <= totalEpochs; boundary++ {
				first, err := New(sessionScenario(101, WithShards(captureShards))...)
				if err != nil {
					t.Fatal(err)
				}
				runEpochs(t, first, boundary)
				snap := snapshotRoundTrip(t, first)
				if snap.Epoch != boundary {
					t.Fatalf("snapshot at boundary %d reports epoch %d", boundary, snap.Epoch)
				}

				second, err := New(sessionScenario(101, WithShards(resumeShards))...)
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
		name    string
		factory MechanismFactory
	}{
		{"eigentrust", EigenTrust(EigenTrustConfig{Pretrusted: []int{0, 1, 2}})},
		{"powertrust", PowerTrust(PowerTrustConfig{})},
		{"trustme", TrustMe(TrustMeConfig{})},
		{"anonrep", AnonRep(AnonRepConfig{Seed: 5})},
		{"none", NoReputation()},
	}
	for _, mk := range mechs {
		t.Run(mk.name, func(t *testing.T) {
			opts := func() []Option {
				return sessionScenario(211, WithReputationMechanism(mk.factory))
			}
			full, err := New(opts()...)
			if err != nil {
				t.Fatal(err)
			}
			runEpochs(t, full, totalEpochs)
			want := histBytes(t, full.History())

			first, err := New(opts()...)
			if err != nil {
				t.Fatal(err)
			}
			runEpochs(t, first, boundary)
			snap := snapshotRoundTrip(t, first)
			second, err := New(opts()...)
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

	full, err := New(sessionScenario(307)...)
	if err != nil {
		t.Fatal(err)
	}
	runScripted(full, totalEpochs)
	want := histBytes(t, full.History())

	first, err := New(sessionScenario(307)...)
	if err != nil {
		t.Fatal(err)
	}
	runScripted(first, boundary)
	snap := snapshotRoundTrip(t, first)

	second, err := New(sessionScenario(307, WithShards(4))...)
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
	eng, err := New(sessionScenario(401)...)
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 2)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	smaller, err := New(WithPeers(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := smaller.Restore(snap); err == nil || !strings.Contains(err.Error(), "peers") {
		t.Fatalf("restore into wrong population = %v, want peers mismatch", err)
	}

	otherMech, err := New(sessionScenario(401, WithReputationMechanism(TrustMe(TrustMeConfig{})))...)
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

// TestRestoreRejectsHostileLedger feeds snapshots whose privacy ledger is
// malformed or names users outside the population through the public
// encode/decode/restore path: each must be an error, not a panic or an
// out-of-memory growth of per-user state, and a rejected restore must leave
// the engine exactly as it was — its ledger state unchanged and its
// continuation bit-identical to a twin that never saw the hostile blobs.
func TestRestoreRejectsHostileLedger(t *testing.T) {
	eng, err := New(sessionScenario(402)...)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(sessionScenario(402)...)
	if err != nil {
		t.Fatal(err)
	}
	runEpochs(t, eng, 2)
	runEpochs(t, twin, 2)
	n := eng.Peers()
	// withItems returns the first owner disclosing an item to at least
	// minRcpt recipients.
	withItems := func(t *testing.T, st *privacy.LedgerState, minRcpt int) *privacy.OwnerState {
		for k := range st.Owners {
			if o := &st.Owners[k]; len(o.Items) > 0 && len(o.Items[0].Recipients) >= minRcpt {
				return o
			}
		}
		t.Fatalf("snapshot ledger has no item with %d recipients to corrupt", minRcpt)
		return nil
	}
	last := func(st *privacy.LedgerState) *privacy.OwnerState { return &st.Owners[len(st.Owners)-1] }
	cases := []struct {
		name   string
		mutate func(t *testing.T, st *privacy.LedgerState)
	}{
		{"huge owner", func(t *testing.T, st *privacy.LedgerState) { last(st).Owner = 1 << 62 }},
		{"mid-sized owner", func(t *testing.T, st *privacy.LedgerState) { last(st).Owner = 1 << 34 }},
		{"negative owner", func(t *testing.T, st *privacy.LedgerState) { st.Owners[0].Owner = -1 }},
		{"owner = peers", func(t *testing.T, st *privacy.LedgerState) { last(st).Owner = n }},
		{"owners unsorted", func(t *testing.T, st *privacy.LedgerState) { st.Owners[0], st.Owners[1] = st.Owners[1], st.Owners[0] }},
		{"owner duplicated", func(t *testing.T, st *privacy.LedgerState) { st.Owners[1].Owner = st.Owners[0].Owner }},
		{"recipient below -1", func(t *testing.T, st *privacy.LedgerState) { withItems(t, st, 1).Items[0].Recipients[0] = -2 }},
		{"recipient = peers", func(t *testing.T, st *privacy.LedgerState) {
			r := withItems(t, st, 1).Items[0].Recipients
			r[len(r)-1] = n
		}},
		{"recipients unsorted", func(t *testing.T, st *privacy.LedgerState) {
			r := withItems(t, st, 2).Items[0].Recipients
			r[0], r[1] = r[1], r[0]
		}},
		{"recipient duplicated", func(t *testing.T, st *privacy.LedgerState) {
			r := withItems(t, st, 2).Items[0].Recipients
			r[1] = r[0]
		}},
		{"item without recipients", func(t *testing.T, st *privacy.LedgerState) { withItems(t, st, 1).Items[0].Recipients = nil }},
		{"dirty owner out of range", func(t *testing.T, st *privacy.LedgerState) { st.FacetDirty = append(st.FacetDirty, 1<<62) }},
		{"consented > total", func(t *testing.T, st *privacy.LedgerState) { st.Owners[0].Consented = st.Owners[0].Total + 1 }},
		{"negative consented", func(t *testing.T, st *privacy.LedgerState) { st.Owners[0].Consented = -1 }},
		{"negative total", func(t *testing.T, st *privacy.LedgerState) { st.Owners[0].Total, st.Owners[0].Consented = -1, -1 }},
		{"feedback NaN", func(t *testing.T, st *privacy.LedgerState) { st.Owners[0].Feedback = math.NaN() }},
		{"feedback negative", func(t *testing.T, st *privacy.LedgerState) { st.Owners[0].Feedback = -0.2 }},
		{"feedback above 0.2 x total", func(t *testing.T, st *privacy.LedgerState) {
			st.Owners[0].Feedback = 0.2*float64(st.Owners[0].Total) + 0.2
		}},
		{"item keys unsorted", func(t *testing.T, st *privacy.LedgerState) {
			o := withItems(t, st, 1)
			o.Items = append(o.Items, privacy.ItemState{Key: "a", Weight: 0.5, Recipients: []int{0}})
		}},
		{"item key duplicated", func(t *testing.T, st *privacy.LedgerState) {
			o := withItems(t, st, 1)
			o.Items = append(o.Items, o.Items[len(o.Items)-1])
		}},
		{"weight of no class", func(t *testing.T, st *privacy.LedgerState) { withItems(t, st, 1).Items[0].Weight = 0.3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshotRoundTrip(t, eng)
			if len(snap.State.Ledger.Owners) < 2 {
				t.Fatal("snapshot ledger has too few owners to corrupt")
			}
			tc.mutate(t, &snap.State.Ledger)
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			hostile, err := DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(hostile); err == nil || !strings.Contains(err.Error(), "ledger") {
				t.Fatalf("restore of hostile ledger = %v, want a ledger error", err)
			}
			after, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after.State.Ledger, before.State.Ledger) || after.Epoch != before.Epoch {
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

// TestSnapshotSizeBounded pins bounded state: the snapshot carries
// sufficient statistics, not logs, so a 300-peer run's checkpoint stays
// small at 60 epochs instead of growing with every interaction and report.
// The scenario is trustsim's default one.
func TestSnapshotSizeBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 60 epochs")
	}
	eng, err := New(
		WithPeers(300),
		WithRNGSeed(1),
		WithMix(Mix{Fractions: map[Class]float64{Honest: 0.7, Malicious: 0.3}, ForceHonest: []int{0, 1, 2}}),
		WithReputationMechanism(EigenTrust(EigenTrustConfig{Pretrusted: []int{0, 1, 2}})),
		WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0.8}),
		WithRecomputeEvery(2),
		WithCoupling(true),
		WithEpochRounds(8),
	)
	if err != nil {
		t.Fatal(err)
	}
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
	for _, blob := range []any{
		v1Snapshot{Version: 1, Peers: 60, Mechanism: "eigentrust", Epoch: 3, State: v1State{Engine: "dense matrices lived here"}},
		v2,
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeSnapshot(&buf)
		if err == nil {
			t.Fatalf("old-version snapshot %T decoded without error", blob)
		}
		if want := fmt.Sprintf("snapshot version mismatch (got %d, want 3)", reflect.ValueOf(blob).Field(0).Int()); !strings.Contains(err.Error(), want) {
			t.Fatalf("decode error %q does not name the version mismatch %q", err, want)
		}
	}
}

// TestRestoreFromFile covers the shared file-resume helper both trustsim and
// trustnetd (and trustmaster's workers, via snapshot sync) sit on: a good
// checkpoint file restores bit-for-bit, a wrong-version file reports the
// version mismatch instead of a raw gob error, and a missing file fails.
func TestRestoreFromFile(t *testing.T) {
	eng, err := New(sessionScenario(77)...)
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

	resumed, err := New(sessionScenario(77)...)
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
