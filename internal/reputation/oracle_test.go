package reputation

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refLocalTrust is the map-based local-trust matrix the flat sorted rows
// replaced, kept as the differential oracle: one map per rater, a map dirty
// set, AppendRow sorting each row's keys afresh, and NetPositiveFraction
// walking every row into fresh per-ratee tallies.
type refLocalTrust struct {
	n     int
	rows  []map[int32]refCell
	dirty map[int32]struct{}
}

type refCell struct{ sat, unsat int32 }

func newRefLocalTrust(n int) *refLocalTrust {
	return &refLocalTrust{n: n, rows: make([]map[int32]refCell, n), dirty: make(map[int32]struct{})}
}

func (l *refLocalTrust) AddBatch(rs []Report) error {
	for _, r := range rs {
		if err := r.Validate(l.n); err != nil {
			return fmt.Errorf("reputation: %w", err)
		}
		if l.rows[r.Rater] == nil {
			l.rows[r.Rater] = make(map[int32]refCell)
		}
		l.dirty[int32(r.Rater)] = struct{}{}
		c := l.rows[r.Rater][int32(r.Ratee)]
		if r.Value >= SatThreshold {
			c.sat++
		} else {
			c.unsat++
		}
		l.rows[r.Rater][int32(r.Ratee)] = c
	}
	return nil
}

func (l *refLocalTrust) S(i, j int) float64 {
	if i < 0 || i >= l.n || j < 0 || j >= l.n {
		return 0
	}
	c := l.rows[i][int32(j)]
	if v := c.sat - c.unsat; v > 0 {
		return float64(v)
	}
	return 0
}

func (l *refLocalTrust) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	if i < 0 || i >= l.n {
		return cols, vals
	}
	start := len(cols)
	for j, c := range l.rows[i] {
		if c.sat > c.unsat {
			cols = append(cols, j)
		}
	}
	row := cols[start:]
	sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
	for _, j := range row {
		c := l.rows[i][j]
		vals = append(vals, float64(c.sat-c.unsat))
	}
	return cols, vals
}

func (l *refLocalTrust) NetPositiveFraction() float64 {
	net := make([]int32, l.n)
	seen := make([]int32, l.n)
	for _, row := range l.rows {
		for j, c := range row {
			net[j] += c.sat - c.unsat
			seen[j] += c.sat + c.unsat
		}
	}
	rated, positive := 0, 0
	for p := 0; p < l.n; p++ {
		if seen[p] == 0 {
			continue
		}
		rated++
		if net[p] > 0 {
			positive++
		}
	}
	if rated == 0 {
		return 1
	}
	return float64(positive) / float64(rated)
}

func (l *refLocalTrust) ResetPeer(i int) {
	if i < 0 || i >= l.n {
		return
	}
	if l.rows[i] != nil {
		l.rows[i] = nil
		l.dirty[int32(i)] = struct{}{}
	}
	for k, row := range l.rows {
		if _, ok := row[int32(i)]; ok {
			delete(row, int32(i))
			l.dirty[int32(k)] = struct{}{}
		}
	}
}

func (l *refLocalTrust) HasOutgoing(i int) bool {
	if i < 0 || i >= l.n {
		return false
	}
	for _, c := range l.rows[i] {
		if c.sat > c.unsat {
			return true
		}
	}
	return false
}

func (l *refLocalTrust) DirtyRows() []int {
	out := make([]int, 0, len(l.dirty))
	for i := range l.dirty {
		out = append(out, int(i))
	}
	sort.Ints(out)
	return out
}

func (l *refLocalTrust) ClearDirty() { clear(l.dirty) }

func (l *refLocalTrust) State() LocalTrustState {
	st := LocalTrustState{N: l.n}
	for i, row := range l.rows {
		for j, c := range row {
			st.Entries = append(st.Entries, LocalTrustEntry{I: int32(i), J: j, Sat: c.sat, Unsat: c.unsat})
		}
	}
	sort.Slice(st.Entries, func(a, b int) bool {
		if st.Entries[a].I != st.Entries[b].I {
			return st.Entries[a].I < st.Entries[b].I
		}
		return st.Entries[a].J < st.Entries[b].J
	})
	for i := range l.dirty {
		st.Dirty = append(st.Dirty, i)
	}
	slices.Sort(st.Dirty)
	return st
}

func (l *refLocalTrust) SetState(st LocalTrustState) {
	l.rows = make([]map[int32]refCell, l.n)
	for _, e := range st.Entries {
		if l.rows[e.I] == nil {
			l.rows[e.I] = make(map[int32]refCell)
		}
		l.rows[e.I][e.J] = refCell{sat: e.Sat, unsat: e.Unsat}
	}
	l.dirty = make(map[int32]struct{})
	for _, i := range st.Dirty {
		l.dirty[i] = struct{}{}
	}
}

// compareLocalTrust checks every query bitwise against the oracle.
func compareLocalTrust(t *testing.T, where string, l *LocalTrust, ref *refLocalTrust) {
	t.Helper()
	n := l.N()
	for i := -1; i <= n; i++ {
		for j := -1; j <= n; j++ {
			if got, want := l.S(i, j), ref.S(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: S(%d,%d) = %v, want %v", where, i, j, got, want)
			}
		}
		gc, gv := l.AppendRow(i, []int32{-7}, []float64{-7})
		wc, wv := ref.AppendRow(i, []int32{-7}, []float64{-7})
		if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
			t.Fatalf("%s: AppendRow(%d) = %v %v, want %v %v", where, i, gc, gv, wc, wv)
		}
		if got, want := l.HasOutgoing(i), ref.HasOutgoing(i); got != want {
			t.Fatalf("%s: HasOutgoing(%d) = %v, want %v", where, i, got, want)
		}
	}
	if got, want := l.DirtyRows(), ref.DirtyRows(); !slices.Equal(got, want) {
		t.Fatalf("%s: DirtyRows = %v, want %v", where, got, want)
	}
	if got, want := l.HasDirty(), len(ref.dirty) > 0; got != want {
		t.Fatalf("%s: HasDirty = %v, want %v", where, got, want)
	}
	if got, want := l.NetPositiveFraction(), ref.NetPositiveFraction(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: NetPositiveFraction = %v, want %v", where, got, want)
	}
	if got, want := l.State(), ref.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: State = %+v, want %+v", where, got, want)
	}
}

// TestLocalTrustMatchesMapOracle drives seeded random operation sequences
// through the flat matrix and the map oracle: batches with runs of equal
// raters and an invalid report (out of range, self-rating, NaN) mid-batch,
// ResetPeer, ClearDirty, and SetState both round-tripped and rewound to an
// earlier capture. Every query is compared bitwise after every step.
func TestLocalTrustMatchesMapOracle(t *testing.T) {
	const n = 12
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		l, ref := NewLocalTrust(n), newRefLocalTrust(n)
		saved := l.State()
		for step := 0; step < 600; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(40); {
			case op < 30:
				batch := make([]Report, 1+rng.Intn(10))
				rater := rng.Intn(n)
				for k := range batch {
					if rng.Bool(0.4) {
						rater = rng.Intn(n)
					}
					batch[k] = Report{Rater: rater, Ratee: rng.Intn(n), Value: rng.Float64()}
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
				gotErr, wantErr := l.AddBatch(batch), ref.AddBatch(batch)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: AddBatch error %v, want %v", where, gotErr, wantErr)
				}
			case op < 32:
				p := rng.Intn(n+2) - 1
				l.ResetPeer(p)
				ref.ResetPeer(p)
			case op < 35:
				l.ClearDirty()
				ref.ClearDirty()
			case op < 38:
				st := l.State()
				saved = st
				if err := l.SetState(st); err != nil {
					t.Fatalf("%s: round trip: %v", where, err)
				}
				ref.SetState(st)
			default:
				if err := l.SetState(saved); err != nil {
					t.Fatalf("%s: rewind: %v", where, err)
				}
				ref.SetState(saved)
			}
			compareLocalTrust(t, where, l, ref)
		}
	}
}

// TestLocalTrustSetStateRejectsHostile feeds SetState states that no
// sequence of valid reports can build; each must be an error that leaves
// the matrix unchanged.
func TestLocalTrustSetStateRejectsHostile(t *testing.T) {
	cases := []struct {
		name    string
		entries []LocalTrustEntry
	}{
		{"self-loop", []LocalTrustEntry{{I: 2, J: 2, Sat: 1}}},
		{"negative sat", []LocalTrustEntry{{I: 0, J: 1, Sat: -3}}},
		{"negative unsat", []LocalTrustEntry{{I: 0, J: 1, Sat: 1, Unsat: -1}}},
		{"duplicate pair", []LocalTrustEntry{{I: 0, J: 1, Sat: 1}, {I: 1, J: 0, Sat: 1}, {I: 0, J: 1, Unsat: 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := NewLocalTrust(4)
			if err := l.Add(Report{Rater: 3, Ratee: 1, Value: 1}); err != nil {
				t.Fatal(err)
			}
			before := l.State()
			if err := l.SetState(LocalTrustState{N: 4, Entries: c.entries, Dirty: []int32{0}}); err == nil {
				t.Fatal("hostile state accepted")
			}
			if got := l.State(); !reflect.DeepEqual(got, before) {
				t.Fatalf("rejected state changed the matrix: %+v, want %+v", got, before)
			}
			if got := l.NetPositiveFraction(); got != 1 {
				t.Fatalf("rejected state changed the tallies: NetPositiveFraction = %v", got)
			}
		})
	}
}

// TestLocalTrustSetStateUnsortedEntries checks that a valid state whose
// entries arrive out of order restores the same matrix as the canonical one.
func TestLocalTrustSetStateUnsortedEntries(t *testing.T) {
	st := LocalTrustState{N: 4, Entries: []LocalTrustEntry{
		{I: 2, J: 0, Sat: 1}, {I: 0, J: 3, Unsat: 2}, {I: 0, J: 1, Sat: 2, Unsat: 1},
	}}
	l := NewLocalTrust(4)
	if err := l.SetState(st); err != nil {
		t.Fatal(err)
	}
	ref := newRefLocalTrust(4)
	ref.SetState(st)
	compareLocalTrust(t, "unsorted restore", l, ref)
}

// TestLocalTrustHotPathAllocFree pins the per-epoch and per-interaction
// matrix operations at zero allocations: materializing a row into reused
// scratch, the community assessment, and re-folding a report into an
// existing cell.
func TestLocalTrustHotPathAllocFree(t *testing.T) {
	l := NewLocalTrust(50)
	rng := sim.NewRNG(5)
	for k := 0; k < 400; k++ {
		i, j := rng.Intn(50), rng.Intn(50)
		if i != j {
			if err := l.Add(Report{Rater: i, Ratee: j, Value: rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cols, vals := make([]int32, 0, 50), make([]float64, 0, 50)
	if a := testing.AllocsPerRun(100, func() { cols, vals = l.AppendRow(7, cols[:0], vals[:0]) }); a != 0 {
		t.Fatalf("AppendRow allocates %v per call", a)
	}
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink = l.NetPositiveFraction() }); a != 0 {
		t.Fatalf("NetPositiveFraction allocates %v per call", a)
	}
	_ = sink
	batch := []Report{{Rater: 7, Ratee: 8, Value: 0.9}, {Rater: 7, Ratee: 8, Value: 0.1}}
	if err := l.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _ = l.AddBatch(batch) }); a != 0 {
		t.Fatalf("re-folding an existing cell allocates %v per call", a)
	}
}

// TestRestoreGathererRejectsHostile checks that a captured gatherer round
// trips, and that a stream whose buffered Gaussian is not finite is an
// error rather than a restored position.
func TestRestoreGathererRejectsHostile(t *testing.T) {
	g := NewGatherer(sim.NewRNG(1), []float64{1, 0.5, 1})
	for rater := range 3 {
		if g.Admit(rater) {
			g.Commit()
		}
	}
	good := g.State()
	back, err := RestoreGatherer(good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.State(), good) {
		t.Fatalf("round trip lost state: %+v, want %+v", back.State(), good)
	}
	cases := map[string]float64{
		"spare NaN":  math.NaN(),
		"spare +Inf": math.Inf(1),
		"spare -Inf": math.Inf(-1),
	}
	for name, spare := range cases {
		t.Run(name, func(t *testing.T) {
			st := good
			st.RNG.Spare, st.RNG.HasSpare = spare, true
			if _, err := RestoreGatherer(st); err == nil {
				t.Fatal("hostile gatherer state accepted")
			}
		})
	}
}
