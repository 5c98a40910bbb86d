package trustme

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"repro/internal/crypto"
	"repro/internal/reputation"
	"repro/internal/sim"
)

// feedRandom submits `count` random valid reports, continuing the given
// transaction counter so two mechanisms fed from split halves of one stream
// see the same ids a single mechanism would.
func feedRandom(t *testing.T, rng *sim.RNG, tx *uint64, count int, ms ...*Mechanism) {
	t.Helper()
	n := ms[0].cfg.N
	for k := 0; k < count; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		*tx++
		r := reputation.Report{TxID: *tx, Rater: i, Ratee: j, Value: rng.Float64()}
		for _, m := range ms {
			if err := m.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIncrementalComputeMatchesFull pins the dirty-set refresh: a mechanism
// that computed mid-stream (so only peers rated since then are re-fetched)
// must produce bit-identical scores to one that saw every report before a
// single Compute. Each cached score is a pure function of the peer's own
// THA history, so the two paths are the same arithmetic.
func TestIncrementalComputeMatchesFull(t *testing.T) {
	const n = 25
	inc, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(13)
	var tx uint64
	for part := 0; part < 4; part++ {
		feedRandom(t, rng, &tx, 150, inc, full)
		inc.Compute() // partial refreshes along the way
	}
	inc.Compute()
	full.Compute()
	for p := 0; p < n; p++ {
		if inc.Score(p) != full.Score(p) {
			t.Fatalf("score[%d]: incremental %v != full %v", p, inc.Score(p), full.Score(p))
		}
	}
}

// TestTrustworthyFractionIncremental pins the community-assessment cache:
// interleaved TrustworthyFraction calls (which refresh only dirty peers and
// adjust the rated/positive tallies incrementally) must agree with a
// mechanism whose first assessment sees the whole history at once.
func TestTrustworthyFractionIncremental(t *testing.T) {
	const n = 30
	inc, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(29)
	var tx uint64
	for part := 0; part < 5; part++ {
		feedRandom(t, rng, &tx, 80, inc, full)
		inc.TrustworthyFraction() // exercises the incremental tally path
	}
	// Whitewash empties one history: the incremental path must remove its
	// old tally contribution, not just skip it.
	inc.Whitewash(3)
	full.Whitewash(3)
	if got, want := inc.TrustworthyFraction(), full.TrustworthyFraction(); got != want {
		t.Fatalf("incremental fraction %v != full-scan fraction %v", got, want)
	}
}

// TestSnapshotRoundTripMidDirty snapshots with dirty peers pending (reports
// after the last Compute and assessment) and checks restore-then-run equals
// the uninterrupted run bit for bit, state blob included. The snapshot does
// not record staleness, so the restored mechanism's first refreshes are
// full-population — which must be indistinguishable from the incremental
// continuation.
func TestSnapshotRoundTripMidDirty(t *testing.T) {
	const n = 20
	orig, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	var tx uint64
	feedRandom(t, rng, &tx, 200, orig)
	orig.Compute()
	orig.TrustworthyFraction()
	feedRandom(t, rng, &tx, 60, orig) // pending dirty peers at snapshot time

	blob, err := orig.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}

	feedRandom(t, rng, &tx, 120, orig, restored)
	orig.Compute()
	restored.Compute()
	for p := 0; p < n; p++ {
		if orig.Score(p) != restored.Score(p) {
			t.Fatalf("score[%d]: %v != %v after restore-then-run", p, orig.Score(p), restored.Score(p))
		}
	}
	if a, b := orig.TrustworthyFraction(), restored.TrustworthyFraction(); a != b {
		t.Fatalf("trustworthy fraction diverged after restore: %v != %v", a, b)
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

// TestRestoreRejectsHostileState feeds RestoreMechanismState blobs no run
// can produce: a score that is NaN or outside [0,1], a negative protocol
// counter, or ring keys or certificate TxIDs out of order or repeated. Each
// must be an error that leaves the mechanism's state and its scores version
// as they were; a valid blob restores and moves the version.
func TestRestoreRejectsHostileState(t *testing.T) {
	const n = 12
	m, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	var tx uint64
	feedRandom(t, rng, &tx, 80, m)
	m.Compute()
	// Two transactions still waiting for their reports hold certificates.
	for i := uint64(1); i <= 2; i++ {
		if _, err := m.BeginTransaction(tx+i, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	good := decodeState(t, m)
	if len(good.Ring.Store) < 2 || len(good.Certs) != 2 {
		t.Fatalf("state holds %d ring keys and %d certificates, want at least 2 and 2", len(good.Ring.Store), len(good.Certs))
	}
	cases := map[string]func(st *mechanismState){
		"NaN score":         func(st *mechanismState) { st.Scores[n-1] = math.NaN() },
		"score above one":   func(st *mechanismState) { st.Scores[3] = 1.5 },
		"negative score":    func(st *mechanismState) { st.Scores[0] = -0.1 },
		"negative messages": func(st *mechanismState) { st.Messages = -1 },
		"negative rejected": func(st *mechanismState) { st.Rejected = -1 },
		"ring keys unsorted": func(st *mechanismState) {
			st.Ring.Store[0], st.Ring.Store[1] = st.Ring.Store[1], st.Ring.Store[0]
		},
		"ring key duplicated": func(st *mechanismState) { st.Ring.Store[1].Key = st.Ring.Store[0].Key },
		"certificates unsorted": func(st *mechanismState) {
			st.Certs[0], st.Certs[1] = st.Certs[1], st.Certs[0]
		},
		"certificate duplicated": func(st *mechanismState) { st.Certs[1] = st.Certs[0] },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			st := decodeState(t, m)
			mutate(&st)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(st); err != nil {
				t.Fatal(err)
			}
			version := m.ScoresVersion()
			if err := m.RestoreMechanismState(buf.Bytes()); err == nil {
				t.Fatal("hostile state accepted")
			}
			if got := decodeState(t, m); !reflect.DeepEqual(got, good) {
				t.Fatal("rejected state changed the mechanism")
			}
			if m.ScoresVersion() != version {
				t.Fatal("rejected state moved the scores version")
			}
		})
	}
	blob, err := m.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	version := m.ScoresVersion()
	if err := m.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}
	if m.ScoresVersion() == version {
		t.Fatal("a restore left the scores version in place")
	}
}

// TestSubmitClampsRatings pins that a rating outside [0,1], which only a
// direct caller can submit, is stored clamped, so every score stays a mean
// of values in [0,1] and every snapshot passes the restore check.
func TestSubmitClampsRatings(t *testing.T) {
	m, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for tx, v := range []float64{5, 1} {
		if err := m.Submit(reputation.Report{TxID: uint64(tx + 1), Rater: 0, Ratee: 1, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Submit(reputation.Report{TxID: 3, Rater: 0, Ratee: 2, Value: -2}); err != nil {
		t.Fatal(err)
	}
	m.Compute()
	if a, b := m.Score(1), m.Score(2); a != 1 || b != 0 {
		t.Fatalf("scores %v and %v, want 1 and 0", a, b)
	}
	blob, err := m.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}
}

// mapLayoutState is the blob layout that kept the ring's store and the
// certificates as maps, which gob encodes in map order.
type mapLayoutState struct {
	Ring struct {
		Store   map[string][]byte
		Lookups int64
		Hops    int64
	}
	Certs    map[uint64]crypto.TransactionCert
	Messages int64
	Rejected int64
	Scores   []float64
	Dirty    bool
}

// TestRestoreRejectsMapLayout: a blob in the map layout fails restore with
// an error and leaves the mechanism as it was.
func TestRestoreRejectsMapLayout(t *testing.T) {
	const n = 10
	m, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	var tx uint64
	feedRandom(t, sim.NewRNG(35), &tx, 40, m)
	m.Compute()
	before := decodeState(t, m)
	old := mapLayoutState{
		Certs:    map[uint64]crypto.TransactionCert{},
		Messages: before.Messages,
		Rejected: before.Rejected,
		Scores:   before.Scores,
		Dirty:    before.Dirty,
	}
	old.Ring.Store = map[string][]byte{}
	for _, e := range before.Ring.Store {
		old.Ring.Store[e.Key] = e.Value
	}
	old.Ring.Lookups, old.Ring.Hops = before.Ring.Lookups, before.Ring.Hops
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
