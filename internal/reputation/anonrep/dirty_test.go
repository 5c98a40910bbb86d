package anonrep

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/crypto"
	"repro/internal/reputation"
	"repro/internal/sim"
)

// feed submits `count` random valid reports to every mechanism, drawing one
// shared stream so all see identical input.
func feed(t *testing.T, rng *sim.RNG, count int, ms ...*Mechanism) {
	t.Helper()
	n := ms[0].cfg.N
	for k := 0; k < count; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		r := reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()}
		for _, m := range ms {
			if err := m.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIncrementalComputeMatchesFull pins the dirty-set refresh: a mechanism
// that computed mid-stream (refreshing only the peers rated since the last
// Compute) must match, bit for bit, one that saw all reports before a single
// Compute. Pseudonym epochs re-base every account, which flips the
// mechanism to a full refresh (allDirty) — both paths are exercised.
func TestIncrementalComputeMatchesFull(t *testing.T) {
	const n = 30
	cfg := Config{N: n, Seed: 4, Noise: 0.2}
	inc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(21)
	feed(t, rng, 200, inc, full)
	inc.Compute() // partial refresh
	feed(t, rng, 100, inc, full)
	inc.NextEpoch() // re-bases every account: forces the allDirty path
	full.NextEpoch()
	feed(t, rng, 100, inc, full)
	inc.Compute()
	feed(t, rng, 100, inc, full)
	inc.Compute()
	full.Compute()
	for p := 0; p < n; p++ {
		if inc.Score(p) != full.Score(p) {
			t.Fatalf("score[%d]: incremental %v != full %v", p, inc.Score(p), full.Score(p))
		}
	}
}

// TestSnapshotRoundTripMidDirty snapshots with dirty peers pending (reports
// after the last Compute) and checks restore-then-run equals the
// uninterrupted run bit for bit, epoch rotations included.
func TestSnapshotRoundTripMidDirty(t *testing.T) {
	const n = 25
	cfg := Config{N: n, Seed: 6, Noise: 0.1, Granularity: 0.05}
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(33)
	feed(t, rng, 200, orig)
	orig.Compute()
	orig.NextEpoch()
	feed(t, rng, 80, orig) // pending dirty peers at snapshot time

	blob, err := orig.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if got, want := restored.Pseudonym(p), orig.Pseudonym(p); got != want {
			t.Fatalf("pseudonym[%d] = %s after restore, want %s", p, got, want)
		}
	}

	feed(t, rng, 100, orig, restored)
	orig.Compute()
	restored.Compute()
	orig.NextEpoch() // epoch noise draws must continue from the same RNG state
	restored.NextEpoch()
	feed(t, rng, 60, orig, restored)
	orig.Compute()
	restored.Compute()
	for p := 0; p < n; p++ {
		if orig.Score(p) != restored.Score(p) {
			t.Fatalf("score[%d]: %v != %v after restore-then-run", p, orig.Score(p), restored.Score(p))
		}
	}
	if a, b := orig.TrustworthyFraction(), restored.TrustworthyFraction(); a != b {
		t.Fatalf("trustworthy fraction diverged: %v != %v", a, b)
	}
	b1, err := orig.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := restored.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("states diverged after restore-then-run:\n%+v\n%+v", decodeState(t, orig), decodeState(t, restored))
	}
}

// TestRotationsKeepOneAccountPerPeer: a rotation replaces each peer's
// account, so the bank and the blob hold one account per peer however many
// rotations ran.
func TestRotationsKeepOneAccountPerPeer(t *testing.T) {
	const n = 50
	m, err := New(Config{N: n, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(34)
	for i := 0; i < 10; i++ {
		feed(t, rng, 40, m)
		m.Compute()
		m.NextEpoch()
	}
	if len(m.accts) != n {
		t.Fatalf("%d accounts after 10 rotations of %d peers", len(m.accts), n)
	}
	if st := decodeState(t, m); len(st.Accts) != n {
		t.Fatalf("blob carries %d accounts for %d peers", len(st.Accts), n)
	}
}

// mapLayoutState is the blob layout that kept each peer's current
// pseudonym and the bank as a map from pseudonym to account, retired
// pseudonyms included.
type mapLayoutState struct {
	RNG          sim.RNGState
	Nyms         []crypto.ChainState
	Cur          []string
	Accts        map[string]accountState
	Epoch        int
	LastTransfer []transferState
	Scores       []float64
	Dirty        bool
}

// TestRestoreRejectsMapLayout: a blob in the map layout fails restore with
// an error and leaves the mechanism as it was.
func TestRestoreRejectsMapLayout(t *testing.T) {
	const n = 10
	m, err := New(Config{N: n, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sim.NewRNG(35), 30, m)
	m.Compute()
	before := decodeState(t, m)
	old := mapLayoutState{
		RNG:    before.RNG,
		Nyms:   before.Nyms,
		Cur:    make([]string, n),
		Accts:  map[string]accountState{},
		Scores: before.Scores,
	}
	for p := range old.Cur {
		old.Cur[p] = m.Pseudonym(p)
		old.Accts[old.Cur[p]] = before.Accts[p]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreMechanismState(buf.Bytes()); err == nil {
		t.Fatal("map-layout blob restored")
	}
	if after := decodeState(t, m); !reflect.DeepEqual(after, before) {
		t.Fatal("rejected restore changed the mechanism")
	}
}

func decodeState(t *testing.T, m *Mechanism) mechanismState {
	t.Helper()
	blob, err := m.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
