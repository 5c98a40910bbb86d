package linalg

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// denseOf expands the matrix for reference checks.
func denseOf(c *CSR) [][]float64 {
	d := make([][]float64, c.n)
	for i := 0; i < c.n; i++ {
		d[i] = make([]float64, c.n)
		cols, vals := c.Row(i)
		for k, col := range cols {
			d[i][col] = vals[k]
		}
	}
	return d
}

func TestFromTriplets(t *testing.T) {
	c, err := FromTriplets(3, []Triplet{
		{Row: 2, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 2},
		{Row: 0, Col: 1, Val: 3}, // duplicate: summed
		{Row: 0, Col: 2, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", c.NNZ())
	}
	d := denseOf(c)
	want := [][]float64{{0, 5, 4}, {0, 0, 0}, {1, 0, 0}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("at (%d,%d): %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
	if !c.RowEmpty(1) || c.RowEmpty(0) {
		t.Fatal("RowEmpty wrong")
	}
	if _, err := FromTriplets(2, []Triplet{{Row: 0, Col: 5, Val: 1}}); err == nil {
		t.Fatal("out-of-range triplet accepted")
	}
}

func TestSetRowGrowthAndCompaction(t *testing.T) {
	c := New(4)
	rng := sim.NewRNG(1)
	// Repeatedly rewrite rows with growing support; the arena must stay
	// consistent through in-place rewrites, moves and compactions.
	want := make([][]float64, 4)
	for i := range want {
		want[i] = make([]float64, 4)
	}
	for step := 0; step < 200; step++ {
		i := rng.Intn(4)
		k := rng.Intn(5)
		cols := make([]int32, 0, k)
		vals := make([]float64, 0, k)
		for j := int32(0); j < 4 && len(cols) < k; j++ {
			if rng.Bool(0.7) {
				cols = append(cols, j)
				vals = append(vals, rng.Float64())
			}
		}
		c.SetRow(i, cols, vals)
		for j := range want[i] {
			want[i][j] = 0
		}
		for k, col := range cols {
			want[i][col] = vals[k]
		}
		d := denseOf(c)
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if d[a][b] != want[a][b] {
					t.Fatalf("step %d: at (%d,%d): %v, want %v", step, a, b, d[a][b], want[a][b])
				}
			}
		}
	}
}

func TestSetRowPanicsOnBadInput(t *testing.T) {
	c := New(3)
	for name, fn := range map[string]func(){
		"unsorted":     func() { c.SetRow(0, []int32{2, 1}, []float64{1, 1}) },
		"out-of-range": func() { c.SetRow(0, []int32{5}, []float64{1}) },
		"length":       func() { c.SetRow(0, []int32{1}, []float64{1, 2}) },
		"bad-row":      func() { c.SetRow(9, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestNormalizeRow(t *testing.T) {
	c := New(3)
	c.SetRow(0, []int32{0, 2}, []float64{1, 3})
	if sum := c.NormalizeRow(0); sum != 4 {
		t.Fatalf("sum = %v, want 4", sum)
	}
	_, vals := c.Row(0)
	if vals[0] != 0.25 || vals[1] != 0.75 {
		t.Fatalf("normalized row = %v", vals)
	}
	// A zero-sum row becomes dangling, not a dense uniform fill.
	c.SetRow(1, []int32{0, 1}, []float64{0, 0})
	if sum := c.NormalizeRow(1); sum != 0 {
		t.Fatalf("zero row sum = %v", sum)
	}
	if !c.RowEmpty(1) {
		t.Fatal("zero-sum row not cleared")
	}
}

// randomMatrix builds a random sparse row-stochastic-ish matrix with some
// dangling rows.
func randomMatrix(t *testing.T, rng *sim.RNG, n int) *CSR {
	t.Helper()
	var ts []Triplet
	for i := 0; i < n; i++ {
		if rng.Bool(0.2) {
			continue // dangling row
		}
		deg := 1 + rng.Intn(4)
		for d := 0; d < deg; d++ {
			ts = append(ts, Triplet{Row: i, Col: rng.Intn(n), Val: rng.Float64()})
		}
	}
	c, err := FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMulTransposeMatchesDense(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		c := randomMatrix(t, rng, n)
		x := make([]float64, n)
		dangle := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			dangle[i] = rng.Float64()
		}
		y := make([]float64, n)
		var ws Workspace
		c.MulTranspose(y, x, dangle, 1, &ws)

		d := denseOf(c)
		want := make([]float64, n)
		mass := 0.0
		for i := 0; i < n; i++ {
			if c.RowEmpty(i) {
				mass += x[i]
				continue
			}
			for j := 0; j < n; j++ {
				want[j] += d[i][j] * x[i]
			}
		}
		for j := 0; j < n; j++ {
			want[j] += mass * dangle[j]
			if math.Abs(y[j]-want[j]) > 1e-12 {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, j, y[j], want[j])
			}
		}
	}
}

func TestMulTransposeWorkerInvariance(t *testing.T) {
	rng := sim.NewRNG(11)
	// Large enough for multiple scatter blocks.
	n := 3 * spmvBlockRows
	c := randomMatrix(t, rng, n)
	x := make([]float64, n)
	dangle := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		dangle[i] = 1 / float64(n)
	}
	ref := make([]float64, n)
	var ws Workspace
	c.MulTranspose(ref, x, dangle, 1, &ws)
	for _, workers := range []int{2, 3, 4, 8, 17} {
		y := make([]float64, n)
		var w2 Workspace
		c.MulTranspose(y, x, dangle, workers, &w2)
		for j := range y {
			if y[j] != ref[j] {
				t.Fatalf("workers=%d: y[%d] = %v differs from serial %v (bit-for-bit contract)",
					workers, j, y[j], ref[j])
			}
		}
	}
}

func TestMulTransposeNilDangle(t *testing.T) {
	c := New(2) // all rows dangling
	x := []float64{0.5, 0.5}
	y := []float64{9, 9}
	var ws Workspace
	c.MulTranspose(y, x, nil, 1, &ws)
	if y[0] != 0 || y[1] != 0 {
		t.Fatalf("nil dangle: y = %v, want zeros", y)
	}
}

func TestMulTransposeSteadyStateAllocFree(t *testing.T) {
	rng := sim.NewRNG(13)
	n := 400
	c := randomMatrix(t, rng, n)
	x := make([]float64, n)
	y := make([]float64, n)
	dangle := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		dangle[i] = 1 / float64(n)
	}
	var ws Workspace
	c.MulTranspose(y, x, dangle, 1, &ws) // warm the workspace
	allocs := testing.AllocsPerRun(50, func() {
		c.MulTranspose(y, x, dangle, 1, &ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SpMV allocates %v objects/op, want 0", allocs)
	}
	// A value-only rewrite (same columns, then normalization) keeps the
	// block patterns: still no allocation.
	row := 0
	for c.RowEmpty(row) {
		row++
	}
	cols, _ := c.Row(row)
	cols = append([]int32(nil), cols...)
	vals := make([]float64, len(cols))
	allocs = testing.AllocsPerRun(50, func() {
		for k := range vals {
			vals[k] = rng.Float64()
		}
		c.SetRow(row, cols, vals)
		c.NormalizeRow(row)
		c.MulTranspose(y, x, dangle, 1, &ws)
	})
	if allocs != 0 {
		t.Fatalf("SpMV after a same-pattern SetRow+NormalizeRow allocates %v objects/op, want 0", allocs)
	}
}
