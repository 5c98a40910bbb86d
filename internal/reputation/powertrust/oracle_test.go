package powertrust

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/reputation"
	"repro/internal/sim"
)

// refRatings is the map-of-maps feedback graph the shared flat rows
// replaced, kept as the differential oracle: one map per rater, a map dirty
// set, AppendRow and DirtyRows sorting afresh, the community scan walking
// maps, and the state encoding sorting the entries.
type refRatings struct {
	n     int
	rows  []map[int32]pair
	dirty map[int32]struct{}
}

func newRefRatings(n int) *refRatings {
	return &refRatings{n: n, rows: make([]map[int32]pair, n), dirty: make(map[int32]struct{})}
}

func (f *refRatings) SubmitBatch(rs []reputation.Report) error {
	for _, r := range rs {
		if err := r.Validate(f.n); err != nil {
			return fmt.Errorf("powertrust: %w", err)
		}
		v := min(max(r.Value, 0), 1)
		if f.rows[r.Rater] == nil {
			f.rows[r.Rater] = make(map[int32]pair)
		}
		f.dirty[int32(r.Rater)] = struct{}{}
		p := f.rows[r.Rater][int32(r.Ratee)]
		p.sum += v
		p.count++
		f.rows[r.Rater][int32(r.Ratee)] = p
	}
	return nil
}

func (f *refRatings) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	row := cols[len(cols):]
	for j := range f.rows[i] {
		row = append(row, j)
	}
	slices.Sort(row)
	for _, j := range row {
		p := f.rows[i][j]
		vals = append(vals, p.sum/float64(p.count))
	}
	return append(cols, row...), vals
}

func (f *refRatings) DirtyRows() []int {
	out := make([]int, 0, len(f.dirty))
	for i := range f.dirty {
		out = append(out, int(i))
	}
	slices.Sort(out)
	return out
}

func (f *refRatings) ClearDirty() { clear(f.dirty) }

func (f *refRatings) TrustworthyFraction() float64 {
	sums := make([]float64, f.n)
	counts := make([]int, f.n)
	for _, row := range f.rows {
		for j, p := range row {
			sums[j] += p.sum
			counts[j] += int(p.count)
		}
	}
	rated, positive := 0, 0
	for j := 0; j < f.n; j++ {
		if counts[j] == 0 {
			continue
		}
		rated++
		if sums[j]/float64(counts[j]) >= 0.5 {
			positive++
		}
	}
	if rated == 0 {
		return 1
	}
	return float64(positive) / float64(rated)
}

// encode fills st's feedback and dirty rows the way the map-based state
// encoding did.
func (f *refRatings) encode(st *mechanismState) {
	st.Feedback, st.DirtyRows = nil, nil
	for i := range f.dirty {
		st.DirtyRows = append(st.DirtyRows, i)
	}
	sort.Slice(st.DirtyRows, func(a, b int) bool { return st.DirtyRows[a] < st.DirtyRows[b] })
	for i, row := range f.rows {
		for j, p := range row {
			st.Feedback = append(st.Feedback, feedbackEntry{Rater: i, Ratee: int(j), Sum: p.sum, Count: int(p.count)})
		}
	}
	sort.Slice(st.Feedback, func(a, b int) bool {
		if st.Feedback[a].Rater != st.Feedback[b].Rater {
			return st.Feedback[a].Rater < st.Feedback[b].Rater
		}
		return st.Feedback[a].Ratee < st.Feedback[b].Ratee
	})
}

func (f *refRatings) restore(st mechanismState) {
	f.rows = make([]map[int32]pair, f.n)
	for _, e := range st.Feedback {
		if f.rows[e.Rater] == nil {
			f.rows[e.Rater] = make(map[int32]pair)
		}
		f.rows[e.Rater][int32(e.Ratee)] = pair{sum: e.Sum, count: int32(e.Count)}
	}
	f.dirty = make(map[int32]struct{})
	for _, i := range st.DirtyRows {
		f.dirty[i] = struct{}{}
	}
}

func decodeState(t *testing.T, blob []byte) mechanismState {
	t.Helper()
	var st mechanismState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func encodeState(t *testing.T, st mechanismState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compareRatings checks the feed queries and the state bytes bitwise
// against the oracle. The oracle's blob is the mechanism's own state with
// the feedback and dirty rows re-encoded the map-based way.
func compareRatings(t *testing.T, where string, m *Mechanism, ref *refRatings) {
	t.Helper()
	for i := 0; i < ref.n; i++ {
		gc, gv := m.feedback.AppendRow(i, []int32{-7}, []float64{-7})
		wc, wv := ref.AppendRow(i, []int32{-7}, []float64{-7})
		if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
			t.Fatalf("%s: AppendRow(%d) = %v %v, want %v %v", where, i, gc, gv, wc, wv)
		}
	}
	if got, want := m.feedback.DirtyRows(), ref.DirtyRows(); !slices.Equal(got, want) {
		t.Fatalf("%s: DirtyRows = %v, want %v", where, got, want)
	}
	if got, want := m.TrustworthyFraction(), ref.TrustworthyFraction(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: TrustworthyFraction = %v, want %v", where, got, want)
	}
	got, err := m.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	st := decodeState(t, got)
	ref.encode(&st)
	if want := encodeState(t, st); !bytes.Equal(got, want) {
		t.Fatalf("%s: MechanismState bytes differ from the map encoding", where)
	}
}

// TestRatingsMatchMapOracle drives seeded report streams through the
// mechanism and the map oracle: batches with runs of equal raters,
// out-of-[0,1] values and an invalid report (out of range, self-rating,
// NaN) mid-batch, Computes that clear the dirty set, and snapshot/restore
// both round-tripped into a fresh mechanism and rewound to an earlier
// capture. Every query is compared bitwise after every step.
func TestRatingsMatchMapOracle(t *testing.T) {
	const n = 12
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		fresh := func() *Mechanism {
			m, err := New(Config{N: n, M: 2})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m, ref := fresh(), newRefRatings(n)
		saved, err := m.MechanismState()
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 400; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(40); {
			case op < 30:
				batch := make([]reputation.Report, 1+rng.Intn(10))
				rater := rng.Intn(n)
				for k := range batch {
					if rng.Bool(0.4) {
						rater = rng.Intn(n)
					}
					batch[k] = reputation.Report{Rater: rater, Ratee: rng.Intn(n), Value: 1.2*rng.Float64() - 0.1}
				}
				if rng.Bool(0.2) {
					bad := &batch[rng.Intn(len(batch))]
					switch rng.Intn(3) {
					case 0:
						bad.Ratee = n
					case 1:
						bad.Ratee = bad.Rater
					default:
						bad.Value = math.NaN()
					}
				}
				gotErr, wantErr := m.SubmitBatch(batch), ref.SubmitBatch(batch)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: SubmitBatch error %v, want %v", where, gotErr, wantErr)
				}
			case op < 34:
				if m.Dirty() {
					m.Compute()
					ref.ClearDirty()
				}
			case op < 37:
				blob, err := m.MechanismState()
				if err != nil {
					t.Fatal(err)
				}
				saved = blob
				m = fresh()
				if err := m.RestoreMechanismState(blob); err != nil {
					t.Fatalf("%s: round trip: %v", where, err)
				}
				ref.restore(decodeState(t, blob))
			default:
				if err := m.RestoreMechanismState(saved); err != nil {
					t.Fatalf("%s: rewind: %v", where, err)
				}
				ref.restore(decodeState(t, saved))
			}
			compareRatings(t, where, m, ref)
		}
	}
}

// TestRestoreRejectsHostile feeds RestoreMechanismState states no sequence
// of reports can build. Each must be an error that leaves the mechanism
// unchanged; accepted, a zero count or a self-loop reaches the walk as a
// NaN row.
func TestRestoreRejectsHostile(t *testing.T) {
	const n = 4
	cases := []struct {
		name   string
		mutate func(st *mechanismState)
	}{
		{"rater out of range", func(st *mechanismState) { st.Feedback[0].Rater = n }},
		{"negative ratee", func(st *mechanismState) { st.Feedback[0].Ratee = -1 }},
		{"self-loop", func(st *mechanismState) { st.Feedback[0].Ratee = st.Feedback[0].Rater }},
		{"duplicate pair", func(st *mechanismState) { st.Feedback = append(st.Feedback, st.Feedback[0]) }},
		{"zero count", func(st *mechanismState) { st.Feedback[0].Count, st.Feedback[0].Sum = 0, 0 }},
		{"negative count", func(st *mechanismState) { st.Feedback[0].Count = -2 }},
		{"count beyond the cell", func(st *mechanismState) { st.Feedback[0].Count = math.MaxInt32 + 1 }},
		{"NaN sum", func(st *mechanismState) { st.Feedback[0].Sum = math.NaN() }},
		{"infinite sum", func(st *mechanismState) { st.Feedback[0].Sum = math.Inf(1) }},
		{"negative sum", func(st *mechanismState) { st.Feedback[0].Sum = -0.5 }},
		{"sum above count", func(st *mechanismState) { st.Feedback[0].Sum = float64(st.Feedback[0].Count) + 0.5 }},
		{"dirty row out of range", func(st *mechanismState) { st.DirtyRows = append(st.DirtyRows, n) }},
		{"negative dirty row", func(st *mechanismState) { st.DirtyRows = append(st.DirtyRows, -1) }},
		{"power node out of range", func(st *mechanismState) { st.Power = append(st.Power, n) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(Config{N: n, M: 1})
			if err != nil {
				t.Fatal(err)
			}
			feed(t, m, 0, 1, 0.9, 2)
			feed(t, m, 2, 3, 0.2, 1)
			m.Compute()
			feed(t, m, 3, 0, 0.7, 1)
			before, err := m.MechanismState()
			if err != nil {
				t.Fatal(err)
			}
			st := decodeState(t, before)
			c.mutate(&st)
			if err := m.RestoreMechanismState(encodeState(t, st)); err == nil {
				t.Fatal("hostile state accepted")
			}
			after, err := m.MechanismState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatal("rejected state changed the mechanism")
			}
			m.Compute()
			for i, v := range m.ScoresView() {
				if !(v >= 0 && v <= 1) {
					t.Fatalf("score[%d] = %v after a rejected restore", i, v)
				}
			}
		})
	}
}

// TestSubmitBatchSteadyStateAllocFree pins the per-interaction feedback
// path at zero allocations once a pair has a cell, along with the row
// materialization into reused scratch and the community scan.
func TestSubmitBatchSteadyStateAllocFree(t *testing.T) {
	m, err := New(Config{N: 50})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom(t, m, sim.NewRNG(5), 50, 400)
	batch := []reputation.Report{{Rater: 7, Ratee: 8, Value: 0.9}, {Rater: 7, Ratee: 8, Value: 0.1}}
	if err := m.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _ = m.SubmitBatch(batch) }); a != 0 {
		t.Fatalf("re-folding an existing cell allocates %v per call", a)
	}
	cols, vals := make([]int32, 0, 50), make([]float64, 0, 50)
	if a := testing.AllocsPerRun(100, func() { cols, vals = m.feedback.AppendRow(7, cols[:0], vals[:0]) }); a != 0 {
		t.Fatalf("AppendRow allocates %v per call", a)
	}
	m.TrustworthyFraction() // first call sizes the scan buffers
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink = m.TrustworthyFraction() }); a != 0 {
		t.Fatalf("TrustworthyFraction allocates %v per call", a)
	}
	_ = sink
}
