package linalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// table is a RowSource over explicit raw rows: the test stand-in for a
// mechanism's feed.
type table struct {
	cols [][]int32
	vals [][]float64
}

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int {
	n := 0
	for i := range c.blocks {
		n += len(c.blocks[i].row)
	}
	return n
}

func newTable(n int) *table {
	return &table{cols: make([][]int32, n), vals: make([][]float64, n)}
}

func (t *table) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	return append(cols, t.cols[i]...), append(vals, t.vals[i]...)
}

// set replaces row i with copies of cols and vals.
func (t *table) set(i int, cols []int32, vals []float64) {
	t.cols[i] = slices.Clone(cols)
	t.vals[i] = slices.Clone(vals)
}

// normalized is row i as the matrix must hold it: divided by its sum taken
// in column order, or empty when that sum is not positive.
func (t *table) normalized(i int) ([]int32, []float64) {
	sum := 0.0
	for _, v := range t.vals[i] {
		sum += v
	}
	if sum <= 0 {
		return nil, nil
	}
	vals := make([]float64, len(t.vals[i]))
	for k, v := range t.vals[i] {
		vals[k] = v / sum
	}
	return t.cols[i], vals
}

// Triplet is one (row, col, value) coordinate entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// FromTriplets builds the matrix whose rows are the coordinate entries in
// any order, duplicates summed in input order, each row then normalized as
// Update does. Out-of-range coordinates are an error. It is the tests'
// fixture constructor.
func FromTriplets(n int, ts []Triplet) (*CSR, error) {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, fmt.Errorf("linalg: triplet (%d,%d) out of range [0,%d)", t.Row, t.Col, n)
		}
	}
	sorted := slices.Clone(ts)
	slices.SortStableFunc(sorted, func(a, b Triplet) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	return Build(n, tripletRows(sorted)), nil
}

// tripletRows serves rows from triplets sorted by (row, col).
type tripletRows []Triplet

func (ts tripletRows) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	start := len(cols)
	for k := sort.Search(len(ts), func(k int) bool { return ts[k].Row >= i }); k < len(ts) && ts[k].Row == i; k++ {
		if m := len(cols); m > start && cols[m-1] == int32(ts[k].Col) {
			vals[m-1] += ts[k].Val
			continue
		}
		cols = append(cols, int32(ts[k].Col))
		vals = append(vals, ts[k].Val)
	}
	return cols, vals
}

// sourceFunc adapts a function to RowSource.
type sourceFunc func(i int, cols []int32, vals []float64) ([]int32, []float64)

func (f sourceFunc) AppendRow(i int, cols []int32, vals []float64) ([]int32, []float64) {
	return f(i, cols, vals)
}

// denseOf expands the matrix for reference checks.
func denseOf(c *CSR) [][]float64 {
	d := make([][]float64, c.n)
	for i := 0; i < c.n; i++ {
		d[i] = make([]float64, c.n)
		cols, vals := rowOf(c, i)
		for k, col := range cols {
			d[i][col] = vals[k]
		}
	}
	return d
}

// rowOf returns row i's columns and values.
func rowOf(c *CSR, i int) ([]int32, []float64) { return c.AppendRow(i, nil, nil) }

func rowEmpty(c *CSR, i int) bool {
	cols, _ := rowOf(c, i)
	return len(cols) == 0
}

func TestFromTriplets(t *testing.T) {
	c, err := FromTriplets(4, []Triplet{
		{Row: 2, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 2},
		{Row: 0, Col: 1, Val: 3}, // duplicate: summed
		{Row: 0, Col: 2, Val: 4},
		{Row: 3, Col: 1, Val: 0}, // zero sum: dangling
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", c.NNZ())
	}
	d := denseOf(c)
	want := [][]float64{{0, 5.0 / 9, 4.0 / 9, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("at (%d,%d): %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
	if !rowEmpty(c, 1) || !rowEmpty(c, 3) || rowEmpty(c, 0) {
		t.Fatal("empty rows wrong")
	}
	if _, err := FromTriplets(2, []Triplet{{Row: 0, Col: 5, Val: 1}}); err == nil {
		t.Fatal("out-of-range triplet accepted")
	}
}

// TestUpdateGrowsAndShrinksRows drives a small matrix through random
// batches whose rows gain, lose and keep entries; the matrix must equal the
// normalized rows after every batch, whichever update path ran.
func TestUpdateGrowsAndShrinksRows(t *testing.T) {
	const n = 4
	c := New(n)
	tbl := newTable(n)
	rng := sim.NewRNG(1)
	for step := 0; step < 200; step++ {
		var dirty []int
		for i := 0; i < n; i++ {
			if !rng.Bool(0.5) {
				continue
			}
			dirty = append(dirty, i)
			if len(tbl.cols[i]) > 0 && rng.Bool(0.3) {
				vals := make([]float64, len(tbl.cols[i]))
				for k := range vals {
					vals[k] = rng.Float64()
				}
				tbl.set(i, tbl.cols[i], vals)
				continue
			}
			var cols []int32
			var vals []float64
			for j := int32(0); j < n; j++ {
				if rng.Bool(0.5) {
					cols = append(cols, j)
					vals = append(vals, rng.Float64())
				}
			}
			tbl.set(i, cols, vals)
		}
		c.Update(tbl, dirty)
		d := denseOf(c)
		nnz := 0
		for i := 0; i < n; i++ {
			want := make([]float64, n)
			cols, vals := tbl.normalized(i)
			for k, col := range cols {
				want[col] = vals[k]
			}
			nnz += len(cols)
			for j := range want {
				if d[i][j] != want[j] {
					t.Fatalf("step %d: at (%d,%d): %v, want %v", step, i, j, d[i][j], want[j])
				}
			}
		}
		if c.NNZ() != nnz {
			t.Fatalf("step %d: NNZ = %d, want %d", step, c.NNZ(), nnz)
		}
	}
}

func TestUpdatePanicsOnBadInput(t *testing.T) {
	c := New(3)
	row := func(cols []int32, vals []float64) RowSource {
		return sourceFunc(func(_ int, cs []int32, vs []float64) ([]int32, []float64) {
			return append(cs, cols...), append(vs, vals...)
		})
	}
	ok := row([]int32{1}, []float64{1})
	for name, fn := range map[string]func(){
		"unsorted":       func() { c.Update(row([]int32{2, 1}, []float64{1, 1}), []int{0}) },
		"duplicate":      func() { c.Update(row([]int32{1, 1}, []float64{1, 1}), []int{0}) },
		"out-of-range":   func() { c.Update(row([]int32{5}, []float64{1}), []int{0}) },
		"negative":       func() { c.Update(row([]int32{-1}, []float64{1}), []int{0}) },
		"length":         func() { c.Update(row([]int32{1}, []float64{1, 2}), []int{0}) },
		"bad-row":        func() { c.Update(ok, []int{9}) },
		"rows-unordered": func() { c.Update(ok, []int{2, 1}) },
		"rows-repeated":  func() { c.Update(ok, []int{1, 1}) },
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

func TestUpdateNormalizesRows(t *testing.T) {
	c := New(3)
	tbl := newTable(3)
	tbl.set(0, []int32{0, 2}, []float64{1, 3})
	c.Update(tbl, []int{0})
	if _, vals := rowOf(c, 0); len(vals) != 2 || vals[0] != 0.25 || vals[1] != 0.75 {
		t.Fatalf("normalized row = %v", vals)
	}
	// A zero-sum row becomes dangling, not a dense uniform fill.
	tbl.set(1, []int32{0, 1}, []float64{0, 0})
	c.Update(tbl, []int{1})
	if !rowEmpty(c, 1) {
		t.Fatal("zero-sum row not cleared")
	}
	// A row that turns zero-sum is cleared too.
	tbl.set(0, []int32{0, 2}, []float64{0, 0})
	c.Update(tbl, []int{0})
	if !rowEmpty(c, 0) || c.NNZ() != 0 {
		t.Fatalf("row turned zero-sum not cleared: nnz = %d", c.NNZ())
	}
}

// randomMatrix builds a random sparse row-stochastic matrix with some
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
		mulDangle(c, y, x, dangle, &ws)

		d := denseOf(c)
		want := make([]float64, n)
		mass := 0.0
		for i := 0; i < n; i++ {
			if rowEmpty(c, i) {
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

// TestMulTransposeMatchesBlockFold pins the one-pass kernel bit for bit,
// product and dangling mass, to the canonical block fold it replaced: every
// block scattered into its compressed partial by ScatterBlocks and folded
// by FoldBlocks, and the dense-partial reference. The matrices aim most
// rows at a few hot columns, so nearly every block touches some columns
// more than once and parks them; a fifth of the rows dangle, a fifth of x
// is zero, and an all-empty matrix leaves y at zero with all of x as mass.
func TestMulTransposeMatchesBlockFold(t *testing.T) {
	for _, n := range []int{1, 255, 257, 773, 9001} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := sim.NewRNG(uint64(n) + 7)
			tbl := newTable(n)
			hot := min(n, 8)
			for i := 0; i < n; i++ {
				if rng.Bool(0.2) {
					continue // dangling row
				}
				cols, vals := randomRow(rng, n, 1+rng.Intn(3))
				cols = append(cols, int32(rng.Intn(hot)))
				slices.Sort(cols)
				cols = slices.Compact(cols)
				vals = append(vals, rng.Float64())[:len(cols)]
				tbl.set(i, cols, vals)
			}
			x := make([]float64, n)
			for i := range x {
				if !rng.Bool(0.2) {
					x[i] = rng.Float64()
				}
			}
			for _, c := range []*CSR{Build(n, tbl), New(n)} {
				if n >= 255 && c.NNZ() > 0 && len(c.blocks[0].shared) == 0 {
					t.Fatal("fixture block 0 touches no column twice, so parking goes unexercised")
				}
				var ws Workspace
				got := make([]float64, n)
				mass := c.MulTranspose(got, x, &ws)
				want := make([]float64, n)
				wantMass, ok := FoldBlocks(want, c.ScatterBlocks(x, 0, BlockCount(n), &ws))
				if !ok {
					t.Fatal("FoldBlocks rejected the kernel's own partials")
				}
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("nnz=%d: y[%d] = %v, block fold %v", c.NNZ(), j, got[j], want[j])
				}
				if math.Float64bits(mass) != math.Float64bits(wantMass) {
					t.Fatalf("nnz=%d: mass %v, block fold %v", c.NNZ(), mass, wantMass)
				}
				dense := make([]float64, n)
				denseBlockProduct(c, dense, x, x)
				mulDangle(c, got, x, x, &ws)
				if j, ok := sameBits(got, dense); !ok {
					t.Fatalf("nnz=%d: corrected y[%d] = %v, dense-partial reference %v", c.NNZ(), j, got[j], dense[j])
				}
			}
		})
	}
}

// TestMulTransposeNilDangle: the product leaves the dangling correction to
// its caller. An all-dangling matrix gives y = 0, whatever y held, and all
// of x as mass.
func TestMulTransposeNilDangle(t *testing.T) {
	c := New(2) // all rows dangling
	x := []float64{0.5, 0.25}
	y := []float64{9, 9}
	var ws Workspace
	if mass := c.MulTranspose(y, x, &ws); mass != 0.75 || y[0] != 0 || y[1] != 0 {
		t.Fatalf("all-dangling product: y = %v, mass %v; want zeros and 0.75", y, mass)
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
	mulDangle(c, y, x, dangle, &ws) // warm the workspace
	allocs := testing.AllocsPerRun(50, func() {
		mulDangle(c, y, x, dangle, &ws)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SpMV allocates %v objects/op, want 0", allocs)
	}
	// A value-only update (same columns, new values) keeps the block
	// layout: still no allocation.
	row := 0
	for rowEmpty(c, row) {
		row++
	}
	cols, _ := rowOf(c, row)
	cols = slices.Clone(cols)
	vals := make([]float64, len(cols))
	src := sourceFunc(func(_ int, cs []int32, vs []float64) ([]int32, []float64) {
		return append(cs, cols...), append(vs, vals...)
	})
	rows := []int{row}
	c.Update(src, rows) // warm the update scratch
	allocs = testing.AllocsPerRun(50, func() {
		for k := range vals {
			vals[k] = rng.Float64()
		}
		c.Update(src, rows)
		mulDangle(c, y, x, dangle, &ws)
	})
	if allocs != 0 {
		t.Fatalf("SpMV after a value-only Update allocates %v objects/op, want 0", allocs)
	}
}
