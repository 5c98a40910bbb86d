package linalg

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// denseBlockProduct is the dense-partial SpMV the compressed kernel must
// match bit for bit: every canonical block scatters into its own length-n
// partial (rows ascending, columns ascending), and each output index sums
// all blocks' partials in ascending block order before the rank-one
// dangling correction.
func denseBlockProduct(c *CSR, y, x, dangle []float64) {
	n := c.n
	blocks := BlockCount(n)
	rowsPer := (n + blocks - 1) / blocks
	partials := make([][]float64, blocks)
	masses := make([]float64, blocks)
	for b := range partials {
		p := make([]float64, n)
		for i := b * rowsPer; i < min((b+1)*rowsPer, n); i++ {
			cols, vals := rowOf(c, i)
			if len(cols) == 0 {
				masses[b] += x[i]
				continue
			}
			if x[i] == 0 {
				continue
			}
			for k, col := range cols {
				p[col] += vals[k] * x[i]
			}
		}
		partials[b] = p
	}
	mass := 0.0
	for _, m := range masses {
		mass += m
	}
	for j := range y {
		s := 0.0
		for b := range partials {
			s += partials[b][j]
		}
		if dangle == nil {
			y[j] = s
		} else {
			y[j] = s + mass*dangle[j]
		}
	}
}

// mulDangle is the product with the rank-one dangling correction the
// solver applies: y = Aᵀx + mass·dangle, or y = Aᵀx when dangle is nil.
func mulDangle(c *CSR, y, x, dangle []float64, ws *Workspace) {
	mass := c.MulTranspose(y, x, ws)
	if dangle != nil {
		for j := range y {
			y[j] += float64(mass * dangle[j])
		}
	}
}

// randomRow draws up to k distinct ascending columns in [0, n) (k draws,
// duplicates merged) with random values.
func randomRow(rng *sim.RNG, n, k int) ([]int32, []float64) {
	cols := make([]int32, k)
	for d := range cols {
		cols[d] = int32(rng.Intn(n))
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)
	vals := make([]float64, len(cols))
	for d := range vals {
		vals[d] = rng.Float64()
	}
	return cols, vals
}

// randomTable draws n raw rows that are non-empty with probability fill,
// each with 1–4 entries.
func randomTable(rng *sim.RNG, n int, fill float64) *table {
	tbl := newTable(n)
	for i := 0; i < n; i++ {
		if rng.Bool(fill) {
			cols, vals := randomRow(rng, n, 1+rng.Intn(4))
			tbl.set(i, cols, vals)
		}
	}
	return tbl
}

// sparseRandomMatrix builds an n×n matrix whose rows are non-empty with
// probability fill, each with 1–4 entries.
func sparseRandomMatrix(rng *sim.RNG, n int, fill float64) *CSR {
	return Build(n, randomTable(rng, n, fill))
}

// mutateTable applies one random batch of row changes of the given kind to
// tbl and returns the changed rows, ascending. Kinds: 0 rewrites values
// keeping columns, 1 changes column sets, 2 empties rows (no entries or a
// zero sum), 3 refills empty rows, 4 empties one whole block.
func mutateTable(rng *sim.RNG, tbl *table, kind int) []int {
	n := len(tbl.cols)
	var rows []int
	if kind == 4 {
		blocks := BlockCount(n)
		rowsPer := (n + blocks - 1) / blocks
		b := rng.Intn(blocks)
		for i := b * rowsPer; i < min((b+1)*rowsPer, n); i++ {
			rows = append(rows, i)
		}
	} else {
		for k := 1 + rng.Intn(8); k > 0; k-- {
			rows = append(rows, rng.Intn(n))
		}
		slices.Sort(rows)
		rows = slices.Compact(rows)
	}
	for _, i := range rows {
		switch {
		case kind == 0 && len(tbl.cols[i]) > 0:
			vals := make([]float64, len(tbl.cols[i]))
			for k := range vals {
				vals[k] = rng.Float64()
			}
			tbl.set(i, tbl.cols[i], vals)
		case kind == 1, kind == 3 && len(tbl.cols[i]) == 0:
			cols, vals := randomRow(rng, n, 1+rng.Intn(6))
			tbl.set(i, cols, vals)
		case kind == 2 && rng.Bool(0.5):
			cols, _ := randomRow(rng, n, 2)
			tbl.set(i, cols, make([]float64, len(cols)))
		case kind == 2, kind == 4:
			tbl.set(i, nil, nil)
		}
	}
	return rows
}

func sameBits(a, b []float64) (int, bool) {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j, false
		}
	}
	return 0, true
}

// TestMulTransposeBitIdentity pins the kernel to the dense-block reference
// bit for bit — for long-lived workspaces and fresh ones, and through the
// cluster path (ScatterBlocks over every block, then FoldBlocks) — while
// random batched updates change the matrix between products: in-place
// value rewrites, column-set changes, rows turning empty and refilling, a
// whole block emptied, and full rebuilds. A block whose pattern missed a
// change would park or skip the wrong columns and diverge.
func TestMulTransposeBitIdentity(t *testing.T) {
	kinds := []string{"value rewrite", "column-set change", "rows to empty", "refill", "all-empty block", "full rebuild"}
	for _, n := range []int{1, 255, 257, 773, 9001} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := sim.NewRNG(uint64(n))
			tbl := randomTable(rng, n, 0.3)
			c := Build(n, tbl)
			x := make([]float64, n)
			dangle := make([]float64, n)
			for i := range x {
				if !rng.Bool(0.2) { // zero x entries add +0 for their rows
					x[i] = rng.Float64()
				}
				dangle[i] = rng.Float64() / float64(n)
			}
			var long, scatterWS Workspace
			want := make([]float64, n)
			got := make([]float64, n)
			check := func(step int, op string) {
				t.Helper()
				denseBlockProduct(c, want, x, dangle)
				mulDangle(c, got, x, dangle, &long)
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("step %d (%s): long-lived workspace: y[%d] = %v, want %v", step, op, j, got[j], want[j])
				}
				var fresh Workspace
				mulDangle(c, got, x, dangle, &fresh)
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("step %d (%s): fresh workspace: y[%d] = %v, want %v", step, op, j, got[j], want[j])
				}
				// The cluster path: every block scattered (in two ranges, as
				// two workers would) and folded by FoldBlocks, on a long-lived
				// workspace and on a fresh one.
				blocks := BlockCount(n)
				for _, ws := range []*Workspace{&scatterWS, new(Workspace)} {
					low := c.ScatterBlocks(x, 0, blocks/2, ws)
					high := c.ScatterBlocks(x, blocks/2, blocks, ws)
					mass, ok := FoldBlocks(got, append(low, high...))
					if !ok {
						t.Fatalf("step %d (%s): FoldBlocks rejected the kernel's own partials", step, op)
					}
					for j := range got {
						got[j] += float64(mass * dangle[j])
					}
					if j, ok := sameBits(got, want); !ok {
						t.Fatalf("step %d (%s): ScatterBlocks+FoldBlocks: y[%d] = %v, want %v",
							step, op, j, got[j], want[j])
					}
				}
			}
			check(0, "initial")
			steps := 120
			if n > 1000 {
				steps = 40
			}
			seen := make([]bool, len(kinds))
			for step := 1; step <= steps; step++ {
				kind := rng.Intn(len(kinds))
				seen[kind] = true
				if kind == 5 {
					c = Build(n, tbl)
				} else {
					c.Update(tbl, mutateTable(rng, tbl, kind))
				}
				check(step, kinds[kind])
			}
			for kind, ok := range seen {
				if !ok {
					t.Fatalf("%s never exercised in %d steps", kinds[kind], steps)
				}
			}
		})
	}
}

// TestUpdateMatchesBuild: a matrix kept current by batched updates equals
// one built from scratch from the same rows, bitwise, in every row and in
// every product, and every row is the normalized source row.
func TestUpdateMatchesBuild(t *testing.T) {
	for _, n := range []int{1, 257, 2000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := sim.NewRNG(uint64(n) + 100)
			tbl := randomTable(rng, n, 0.5)
			c := Build(n, tbl)
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			got := make([]float64, n)
			want := make([]float64, n)
			var wsGot, wsWant Workspace
			for step := 0; step < 60; step++ {
				c.Update(tbl, mutateTable(rng, tbl, rng.Intn(5)))
				ref := Build(n, tbl)
				if c.NNZ() != ref.NNZ() {
					t.Fatalf("step %d: NNZ = %d, rebuilt %d", step, c.NNZ(), ref.NNZ())
				}
				for i := 0; i < n; i++ {
					cols, vals := rowOf(c, i)
					refCols, refVals := rowOf(ref, i)
					srcCols, srcVals := tbl.normalized(i)
					if !slices.Equal(cols, refCols) || !slices.Equal(cols, srcCols) {
						t.Fatalf("step %d: row %d columns %v, rebuilt %v, source %v", step, i, cols, refCols, srcCols)
					}
					if _, ok := sameBits(vals, refVals); !ok || len(vals) != len(refVals) {
						t.Fatalf("step %d: row %d values %v, rebuilt %v", step, i, vals, refVals)
					}
					if _, ok := sameBits(vals, srcVals); !ok || len(vals) != len(srcVals) {
						t.Fatalf("step %d: row %d values %v, normalized source %v", step, i, vals, srcVals)
					}
				}
				mulDangle(c, got, x, x, &wsGot)
				mulDangle(ref, want, x, x, &wsWant)
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("step %d: y[%d] = %v, rebuilt %v", step, j, got[j], want[j])
				}
			}
		})
	}
}

// TestPatternRebuildsOnlyOnColumnChanges pins the incremental layout: only
// a changed column set (a row gaining or losing columns, a row turning
// empty or zero-sum) rebuilds a block; value-only rewrites and rewrites of
// empty rows to empty keep it in place.
func TestPatternRebuildsOnlyOnColumnChanges(t *testing.T) {
	const n = 1000 // 4 blocks of 250 rows
	c := New(n)
	tbl := newTable(n)
	tbl.set(10, []int32{1, 5}, []float64{1, 3})
	tbl.set(600, []int32{7}, []float64{2})
	c.Update(tbl, []int{10, 600})
	layout := func() []*int32 {
		ptrs := make([]*int32, len(c.blocks))
		for b := range c.blocks {
			ptrs[b] = unsafe.SliceData(c.blocks[b].ptr)
		}
		return ptrs
	}
	before := layout()
	expect := func(op string, rebuilt int) {
		t.Helper()
		after := layout()
		for b := range after {
			if changed := after[b] != before[b]; changed != (b == rebuilt) {
				t.Fatalf("%s: block %d rebuilt = %v, want a rebuild only in block %d", op, b, changed, rebuilt)
			}
		}
		before = after
	}
	tbl.set(10, []int32{1, 5}, []float64{2, 2})
	tbl.set(300, nil, nil) // already empty
	c.Update(tbl, []int{10, 300})
	expect("value-only rewrite and an empty row kept empty", -1)
	if _, vals := rowOf(c, 10); vals[0] != 0.5 || vals[1] != 0.5 {
		t.Fatalf("value-only rewrite not applied: %v", vals)
	}
	tbl.set(10, []int32{1, 6}, []float64{1, 1})
	c.Update(tbl, []int{10})
	expect("new column set", 0)
	tbl.set(600, []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, make([]float64, 12))
	c.Update(tbl, []int{600})
	expect("row turning zero-sum", 2)
	tbl.set(600, []int32{1, 2}, []float64{1, 1})
	c.Update(tbl, []int{600})
	expect("row refilled", 2)
	tbl.set(10, nil, nil)
	c.Update(tbl, []int{10})
	expect("row emptied", 0)
}

// kernelBytes is what one product reads and writes besides x and y: the
// workspace, and every per-block array of the matrix — entries, touched
// and shared columns, empty rows and row offsets.
func kernelBytes(c *CSR, w *Workspace) int {
	bytes := (cap(w.park) + cap(w.dense)) * 8
	bytes += cap(c.blocks) * int(unsafe.Sizeof(block{}))
	for _, blk := range c.blocks {
		bytes += (cap(blk.row)+cap(blk.col)+cap(blk.cols)+cap(blk.shared)+cap(blk.empty)+cap(blk.ptr))*4 + cap(blk.val)*8
	}
	return bytes
}

// TestWorkspaceFootprint pins the SpMV scratch to the touched structure: a
// 100k-user matrix with ~1k entries must not cost 32 dense partials
// (32 × 100k × 8 B = 25.6 MB).
func TestWorkspaceFootprint(t *testing.T) {
	const n = 100000
	rng := sim.NewRNG(5)
	c := sparseRandomMatrix(rng, n, 0.004)
	if nnz := c.NNZ(); nnz < 500 || nnz > 2000 {
		t.Fatalf("fixture nnz = %d, want ~1k", nnz)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	var ws Workspace
	mulDangle(c, y, x, x, &ws)
	bytes := kernelBytes(c, &ws)
	if bytes >= 1<<20 {
		t.Fatalf("SpMV scratch + block arrays hold %d B at n=%d, nnz=%d; want < 1 MB", bytes, n, c.NNZ())
	}
	t.Logf("n=%d nnz=%d: workspace and block arrays %d B", n, c.NNZ(), bytes)
}

// TestScatterBlocksAllocatesOnlyItsBlocks pins ScatterBlocks to the blocks
// it returns: on a warm workspace a two-block sub-range allocates one column
// array and one value array sized to those blocks' touched columns, plus the
// partials' headers — never a dense (hib-lob) × n expansion, let alone a
// full blocks × n workspace.
func TestScatterBlocksAllocatesOnlyItsBlocks(t *testing.T) {
	const n = 9001 // 32 blocks
	rng := sim.NewRNG(9)
	c := sparseRandomMatrix(rng, n, 0.5)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	const lob, hib = 3, 5
	var ws Workspace
	parts := c.ScatterBlocks(x, lob, hib, &ws)
	if len(parts) != hib-lob {
		t.Fatalf("got %d partials, want %d", len(parts), hib-lob)
	}
	touched := 0
	for _, p := range parts {
		if !p.Valid(n) {
			t.Fatalf("ScatterBlocks returned a malformed partial: %d cols, %d vals", len(p.Cols), len(p.Vals))
		}
		touched += len(p.Cols)
	}
	if touched == 0 || touched >= (hib-lob)*n/2 {
		t.Fatalf("blocks %d..%d touch %d columns; the bound below needs a sparse, non-empty range", lob, hib, touched)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		c.ScatterBlocks(x, lob, hib, &ws)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	headers := uint64((hib - lob) * int(unsafe.Sizeof(BlockPartial{})))
	// Slack: malloc size classes round each array up by at most 1/8.
	limit := uint64(touched*(4+8))*9/8 + headers + 256
	if perCall > limit {
		t.Fatalf("ScatterBlocks(%d, %d) allocates %d B/call, want <= %d (%d touched columns; dense: %d B)",
			lob, hib, perCall, limit, touched, (hib-lob)*n*8)
	}
	if allocs := testing.AllocsPerRun(runs, func() { c.ScatterBlocks(x, lob, hib, &ws) }); allocs > 3 {
		t.Fatalf("ScatterBlocks(%d, %d) makes %v allocations/call, want <= 3", lob, hib, allocs)
	}
}

// TestFoldBlocksRejectsMalformedPartials: a partial that arrives from
// outside the process (a cluster worker's reply) is checked before the fold
// indexes y with it — unsorted, duplicate and out-of-range columns and a
// value count that differs from the column count all make FoldBlocks return
// false without panicking and without touching y.
func TestFoldBlocksRejectsMalformedPartials(t *testing.T) {
	const n = 8
	good := BlockPartial{Cols: []int32{1, 4, 7}, Vals: []float64{0.5, 0.25, 0.125}, Mass: 0.5}
	cases := map[string]BlockPartial{
		"unsorted":       {Cols: []int32{4, 1}, Vals: []float64{1, 1}},
		"duplicate":      {Cols: []int32{2, 2}, Vals: []float64{1, 1}},
		"negative":       {Cols: []int32{-1, 3}, Vals: []float64{1, 1}},
		"past end":       {Cols: []int32{3, n}, Vals: []float64{1, 1}},
		"far past end":   {Cols: []int32{1 << 30}, Vals: []float64{1}},
		"short values":   {Cols: []int32{1, 2}, Vals: []float64{1}},
		"long values":    {Cols: []int32{1}, Vals: []float64{1, 2}},
		"values no cols": {Vals: []float64{1}},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			y := []float64{9, 9, 9, 9, 9, 9, 9, 9}
			if _, ok := FoldBlocks(y, []BlockPartial{good, bad}); ok {
				t.Fatalf("FoldBlocks accepted %+v", bad)
			}
			for j, v := range y {
				if v != 9 {
					t.Fatalf("rejected fold wrote y[%d] = %v", j, v)
				}
			}
		})
	}
	y := []float64{9, 9, 9, 9, 9, 9, 9, 9}
	mass, ok := FoldBlocks(y, []BlockPartial{good, {Mass: 0.25}})
	if !ok {
		t.Fatal("FoldBlocks rejected well-formed partials")
	}
	if y[4] != 0.25 || y[0] != 0 || mass != 0.75 {
		t.Fatalf("fold of well-formed partials = %v, mass %v", y, mass)
	}
}

// BenchmarkMulTranspose measures one power-iteration product, without the
// solver's dangling-correction pass, at the epoch-active shape (~2 stored
// entries per row, a fifth of rows dangling) for 20k and 100k users. ns/nnz
// is advisory: it should stay flat as n grows, since the kernel's cost
// follows the stored entries, not blocks × n.
func BenchmarkMulTranspose(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		rng := sim.NewRNG(21)
		var ts []Triplet
		for i := 0; i < n; i++ {
			if rng.Bool(0.2) {
				continue
			}
			for d := 1 + rng.Intn(4); d > 0; d-- {
				ts = append(ts, Triplet{Row: i, Col: rng.Intn(n), Val: rng.Float64()})
			}
		}
		c, err := FromTriplets(n, ts)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(n)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ws Workspace
			c.MulTranspose(y, x, &ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.MulTranspose(y, x, &ws)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.NNZ()), "ns/nnz")
		})
	}
}

// BenchmarkCSRUpdate measures one batched refresh at the epoch-active
// shape: 20k rows with 1–4 entries each (a fifth dangling) and 5k dirty
// rows. With changed=half, every other dirty row gets a new column set, so
// every block is rebuilt, as in an epoch-active recompute; with
// changed=none every dirty row keeps its columns and every block is
// rewritten in place. Iterations alternate the dirty rows between two
// versions, so every call changes them.
func BenchmarkCSRUpdate(b *testing.B) {
	const n, dirty = 20000, 5000
	for _, changed := range []string{"half", "none"} {
		b.Run(fmt.Sprintf("n=%d/dirty=%d/changed=%s", n, dirty, changed), func(b *testing.B) {
			rng := sim.NewRNG(23)
			a, alt := newTable(n), newTable(n)
			for i := 0; i < n; i++ {
				if rng.Bool(0.8) {
					cols, vals := randomRow(rng, n, 1+rng.Intn(4))
					a.set(i, cols, vals)
					alt.set(i, cols, vals)
				}
			}
			rows := rng.Sample(n, dirty)
			slices.Sort(rows)
			for k, i := range rows {
				cols, vals := randomRow(rng, n, 1+rng.Intn(4))
				if changed == "none" || k%2 == 1 {
					cols = a.cols[i]
					vals = vals[:0]
					for range cols {
						vals = append(vals, rng.Float64())
					}
				}
				alt.set(i, cols, vals)
			}
			c := Build(n, a)
			versions := [2]*table{alt, a}
			for _, src := range versions {
				c.Update(src, rows) // size the scratch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Update(versions[i%2], rows)
			}
		})
	}
}
