package linalg

import (
	"fmt"
	"math"
	"runtime"
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
	blocks := blockCount(n)
	rowsPer := (n + blocks - 1) / blocks
	partials := make([][]float64, blocks)
	masses := make([]float64, blocks)
	for b := range partials {
		p := make([]float64, n)
		for i := b * rowsPer; i < min((b+1)*rowsPer, n); i++ {
			cols, vals := c.Row(i)
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

// sparseRandomMatrix builds an n×n matrix whose rows are non-empty with
// probability fill, each with 1–4 entries.
func sparseRandomMatrix(t testing.TB, rng *sim.RNG, n int, fill float64) *CSR {
	t.Helper()
	var ts []Triplet
	for i := 0; i < n; i++ {
		if !rng.Bool(fill) {
			continue
		}
		for d := 1 + rng.Intn(4); d > 0; d-- {
			ts = append(ts, Triplet{Row: i, Col: rng.Intn(n), Val: rng.Float64()})
		}
	}
	c, err := FromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomRow draws k distinct ascending columns in [0, n) with random values.
func randomRow(rng *sim.RNG, n, k int) ([]int32, []float64) {
	if k > n {
		k = n
	}
	picked := rng.Sample(n, k)
	on := make([]bool, n)
	for _, j := range picked {
		on[j] = true
	}
	cols := make([]int32, 0, k)
	vals := make([]float64, 0, k)
	for j, ok := range on {
		if ok {
			cols = append(cols, int32(j))
			vals = append(vals, rng.Float64())
		}
	}
	return cols, vals
}

// setRandomRow replaces row i with k random entries.
func setRandomRow(c *CSR, rng *sim.RNG, i, k int) {
	cols, vals := randomRow(rng, c.n, k)
	c.SetRow(i, cols, vals)
}

func sameBits(a, b []float64) (int, bool) {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j, false
		}
	}
	return 0, true
}

// TestMulTransposeBitIdentity pins the compressed kernel to the dense-block
// reference bit for bit — at worker counts {1,2,3,8}, through the cluster
// path (ScatterBlocks over every block, then FoldBlocks), and for a
// long-lived workspace against a fresh one — while a random sequence of
// same-pattern rewrites, new patterns, arena moves and compactions,
// clears and normalizations to dangling rows mutates the matrix between
// products. A workspace that missed a structural change would scatter
// through a stale pattern and diverge.
func TestMulTransposeBitIdentity(t *testing.T) {
	for _, n := range []int{1, 255, 257, 773, 9001} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := sim.NewRNG(uint64(n))
			c := sparseRandomMatrix(t, rng, n, 0.3)
			x := make([]float64, n)
			dangle := make([]float64, n)
			for i := range x {
				if !rng.Bool(0.2) { // zero x entries skip their rows
					x[i] = rng.Float64()
				}
				dangle[i] = rng.Float64() / float64(n)
			}
			workerCounts := []int{1, 2, 3, 8}
			long := make([]Workspace, len(workerCounts))
			var scatterWS Workspace
			want := make([]float64, n)
			got := make([]float64, n)
			check := func(step int, op string) {
				t.Helper()
				denseBlockProduct(c, want, x, dangle)
				for wi, workers := range workerCounts {
					c.MulTranspose(got, x, dangle, workers, &long[wi])
					if j, ok := sameBits(got, want); !ok {
						t.Fatalf("step %d (%s): workers=%d long-lived workspace: y[%d] = %v, want %v",
							step, op, workers, j, got[j], want[j])
					}
					var fresh Workspace
					c.MulTranspose(got, x, dangle, workers, &fresh)
					if j, ok := sameBits(got, want); !ok {
						t.Fatalf("step %d (%s): workers=%d fresh workspace: y[%d] = %v, want %v",
							step, op, workers, j, got[j], want[j])
					}
				}
				// The cluster path: every block scattered (in two ranges, as
				// two workers would) and folded by FoldBlocks, on a long-lived
				// workspace and on a fresh one.
				blocks := BlockCount(n)
				for _, ws := range []*Workspace{&scatterWS, new(Workspace)} {
					low := c.ScatterBlocks(x, 0, blocks/2, ws)
					high := c.ScatterBlocks(x, blocks/2, blocks, ws)
					if !FoldBlocks(got, dangle, append(low, high...)) {
						t.Fatalf("step %d (%s): FoldBlocks rejected the kernel's own partials", step, op)
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
			compactions := 0
			for step := 1; step <= steps; step++ {
				i := rng.Intn(n)
				e := c.rows[i]
				var op string
				switch rng.Intn(5) {
				case 0:
					op = "same-pattern SetRow"
					cols, _ := c.Row(i)
					cols = append([]int32(nil), cols...)
					vals := make([]float64, len(cols))
					for k := range vals {
						vals[k] = rng.Float64()
					}
					c.SetRow(i, cols, vals)
				case 1:
					op = "new-pattern SetRow"
					setRandomRow(c, rng, i, 1+rng.Intn(4))
				case 2:
					op = "outgrow"
					arena := len(c.cols)
					setRandomRow(c, rng, i, e.cap+1+rng.Intn(24))
					// Churn other rows through moves until the arena repacks.
					for tries := 0; len(c.cols) >= arena && tries < 64 && n > 1; tries++ {
						r := rng.Intn(n)
						arena = len(c.cols)
						setRandomRow(c, rng, r, c.rows[r].cap+1+rng.Intn(24))
						c.ClearRow(r)
					}
					if len(c.cols) < arena {
						compactions++
					}
				case 3:
					op = "ClearRow"
					c.ClearRow(i)
				case 4:
					op = "NormalizeRow to dangling"
					cols, _ := c.Row(i)
					if len(cols) == 0 {
						cols, _ = randomRow(rng, n, 2)
					}
					cols = append([]int32(nil), cols...)
					c.SetRow(i, cols, make([]float64, len(cols)))
					c.NormalizeRow(i)
					if !c.RowEmpty(i) {
						t.Fatalf("step %d: zero-sum row %d not dangling", step, i)
					}
				}
				// Keep the rest of the matrix row-stochastic like the
				// mechanisms' matrices.
				if !c.RowEmpty(i) {
					c.NormalizeRow(i)
				}
				check(step, op)
			}
			if n > 1 && compactions == 0 {
				t.Fatalf("no arena compaction exercised in %d steps", steps)
			}
		})
	}
}

// TestPatternRebuildsOnlyOnColumnChanges pins the incremental index: only
// a changed column set (new-pattern SetRow, ClearRow of a non-empty row, a
// zero-sum NormalizeRow) invalidates a block's pattern; value-only rewrites
// and arena compaction keep it.
func TestPatternRebuildsOnlyOnColumnChanges(t *testing.T) {
	const n = 1000 // 4 blocks of 250 rows
	c := New(n)
	c.SetRow(10, []int32{1, 5}, []float64{1, 3})
	c.SetRow(600, []int32{7}, []float64{2})
	gen := append([]uint64(nil), c.gen...)
	expect := func(op string, bumped int) {
		t.Helper()
		for b := range c.gen {
			if changed := c.gen[b] != gen[b]; changed != (b == bumped) {
				t.Fatalf("%s: block %d generation %d -> %d, want bump only in block %d", op, b, gen[b], c.gen[b], bumped)
			}
		}
		copy(gen, c.gen)
	}
	c.SetRow(10, []int32{1, 5}, []float64{2, 2})
	c.NormalizeRow(10)
	c.compact()
	expect("same-pattern SetRow + NormalizeRow + compact", -1)
	c.ClearRow(300) // already empty
	expect("ClearRow of an empty row", -1)
	c.SetRow(10, []int32{1, 6}, []float64{1, 1})
	expect("new-pattern SetRow", 0)
	c.SetRow(600, []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, make([]float64, 12))
	expect("SetRow outgrowing its extent", 2)
	c.NormalizeRow(600)
	expect("zero-sum NormalizeRow", 2)
	c.ClearRow(10)
	expect("ClearRow", 0)
}

// workspaceBytes is the memory a workspace holds: compressed partials,
// block patterns, bitmap scratch and masses.
func workspaceBytes(w *Workspace) int {
	bytes := cap(w.pats)*int(unsafe.Sizeof(blockPattern{})) +
		cap(w.mass)*8 + cap(w.mark)*8 + cap(w.rank)*4
	for _, p := range w.pats {
		bytes += cap(p.cols)*4 + cap(p.lidx)*4 + cap(p.part)*8
	}
	return bytes
}

// TestWorkspaceFootprint pins the SpMV scratch to the touched structure: a
// 100k-user matrix with ~1k entries must not cost 32 dense partials
// (32 × 100k × 8 B = 25.6 MB).
func TestWorkspaceFootprint(t *testing.T) {
	const n = 100000
	rng := sim.NewRNG(5)
	c := sparseRandomMatrix(t, rng, n, 0.004)
	if nnz := c.NNZ(); nnz < 500 || nnz > 2000 {
		t.Fatalf("fixture nnz = %d, want ~1k", nnz)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	var ws Workspace
	c.MulTranspose(y, x, x, 2, &ws)
	bytes := workspaceBytes(&ws) + cap(c.gen)*8
	if bytes >= 1<<20 {
		t.Fatalf("SpMV scratch + block patterns hold %d B at n=%d, nnz=%d; want < 1 MB", bytes, n, c.NNZ())
	}
	t.Logf("n=%d nnz=%d: workspace %d B", n, c.NNZ(), bytes)
}

// TestScatterBlocksAllocatesOnlyItsBlocks pins ScatterBlocks to the blocks
// it returns: on a warm workspace a two-block sub-range allocates one column
// array and one value array sized to those blocks' touched columns, plus the
// partials' headers — never a dense (hib-lob) × n expansion, let alone a
// full blocks × n workspace.
func TestScatterBlocksAllocatesOnlyItsBlocks(t *testing.T) {
	const n = 9001 // 32 blocks
	rng := sim.NewRNG(9)
	c := sparseRandomMatrix(t, rng, n, 0.5)
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
			if FoldBlocks(y, nil, []BlockPartial{good, bad}) {
				t.Fatalf("FoldBlocks accepted %+v", bad)
			}
			for j, v := range y {
				if v != 9 {
					t.Fatalf("rejected fold wrote y[%d] = %v", j, v)
				}
			}
		})
	}
	y := make([]float64, n)
	dangle := make([]float64, n)
	for j := range dangle {
		dangle[j] = 1.0 / n
	}
	if !FoldBlocks(y, dangle, []BlockPartial{good, {Mass: 0.25}}) {
		t.Fatal("FoldBlocks rejected well-formed partials")
	}
	if y[4] != 0.25+0.75/n || y[0] != 0.75/n {
		t.Fatalf("fold of well-formed partials = %v", y)
	}
}

// BenchmarkMulTranspose measures one power-iteration product at the
// epoch-active shape (~2 stored entries per row, a fifth of rows dangling)
// for 20k and 100k users. ns/nnz is advisory: it should stay flat as n
// grows, since the kernel's cost follows the stored entries, not blocks × n.
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
		for i := 0; i < n; i++ {
			c.NormalizeRow(i)
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(n)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				var ws Workspace
				c.MulTranspose(y, x, x, workers, &ws)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.MulTranspose(y, x, x, workers, &ws)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.NNZ()), "ns/nnz")
			})
		}
	}
}
