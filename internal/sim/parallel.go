package sim

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForChunks splits the index range [0, n) into at most `workers` contiguous
// chunks and runs fn(lo, hi) over each. With workers <= 1 (or a degenerate
// range) it runs inline on the caller's goroutine; otherwise each chunk runs
// on its own goroutine and ForChunks blocks until all complete.
//
// It is the scatter primitive of the sharded epoch pipeline: callers must
// ensure fn writes only to per-index state (out[i] for i in [lo, hi)), so
// the result is identical for every worker count.
func ForChunks(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		fn(0, n)
		return
	}
	chunk := ChunkLen(workers, n)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ChunkLen returns the length of the chunks ForChunks(workers, n, ...)
// runs: the chunk starting at lo is chunk lo/ChunkLen(workers, n), and
// there are at most max(workers, 1) of them, so a caller can keep one
// scratch buffer per chunk.
func ChunkLen(workers, n int) int {
	workers = min(workers, n)
	if workers <= 1 {
		return max(n, 1)
	}
	return (n + workers - 1) / workers
}

// RunIndexed runs fn(0) .. fn(n-1) under a bounded pool of at most
// `workers` goroutines and returns the first error in *index* order (not
// arrival order), so the outcome is identical for every pool size — the
// deterministic-fold discipline of the sharded epoch pipeline applied to
// job matrices (explorer grids, sweep run matrices, hill-climb batches).
//
// Dispatch stops once any job has failed or ctx is cancelled; jobs already
// dispatched run to completion. A cancelled context wins over job errors.
// Callers must ensure fn(i) writes only to per-index state (out[i]), never
// to shared accumulators.
func RunIndexed(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if errs[i] = fn(i); errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		// Stop dispatching once any job failed: each job may run a whole
		// fresh scenario, so finishing a doomed matrix is pure waste.
		if failed.Load() {
			break
		}
		select {
		case <-ctx.Done():
			break feed
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
