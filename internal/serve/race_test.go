package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/trustnet"
)

// TestConcurrentQueriesUnderAdvance is the -race hammer for the serving
// layer: eight reader goroutines pound score, rank, and top-K queries —
// deliberately holding views across epoch swaps — while the background loop
// advances epochs as fast as it can and external reports land at boundaries,
// under shards 1 and 4. Every view a reader observes must be epoch-consistent
// (checksum intact, rank a permutation agreeing with the order) and epochs
// must only move forward.
func TestConcurrentQueriesUnderAdvance(t *testing.T) {
	const (
		readers   = 8
		maxEpochs = 30
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := servedScenario(31, shards).NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Engine: eng, MaxEpochs: maxEpochs})
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var (
				wg      sync.WaitGroup
				failed  atomic.Bool
				failMsg atomic.Pointer[string]
				reads   atomic.Int64
			)
			fail := func(format string, args ...any) {
				msg := fmt.Sprintf(format, args...)
				failMsg.CompareAndSwap(nil, &msg)
				failed.Store(true)
			}
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					lastEpoch := -1
					var held *View // deliberately stale view held across swaps
					for i := 0; ctx.Err() == nil && !failed.Load(); i++ {
						v := srv.View()
						if v.Epoch < lastEpoch {
							fail("reader %d: epoch went backwards %d -> %d", g, lastEpoch, v.Epoch)
							return
						}
						lastEpoch = v.Epoch
						if !v.Consistent() {
							fail("reader %d: torn view at epoch %d", g, v.Epoch)
							return
						}
						user := (g*131 + i*17) % v.Len()
						score, err := v.Score(user)
						if err != nil {
							fail("reader %d: %v", g, err)
							return
						}
						rank, _ := v.Rank(user)
						top := v.TopK(5)
						if rank <= len(top) && (top[rank-1].User != user || top[rank-1].Score != score) {
							fail("reader %d: rank %d of user %d disagrees with top-K", g, rank, user)
							return
						}
						// Re-check a view held across many swaps: immutability
						// means it stays internally consistent forever.
						if held != nil && i%64 == 0 && !held.Consistent() {
							fail("reader %d: held view (epoch %d) torn after swaps", g, held.Epoch)
							return
						}
						if i%128 == 0 {
							held = v
						}
						reads.Add(1)
						if i%32 == 0 {
							runtime.Gosched() // let the epoch loop breathe on small GOMAXPROCS
						}
					}
				}(g)
			}
			// A writer goroutine feeds a trickle of reports so boundaries
			// exercise the queue drain while readers run. It paces itself on
			// observed epoch progress rather than spinning, so the queue
			// stays bounded and the epoch loop is never starved.
			wg.Add(1)
			go func() {
				defer wg.Done()
				lastEpoch := -1
				for i := 0; ctx.Err() == nil; {
					select {
					case <-ctx.Done():
						return
					case <-srv.Done():
						return
					default:
					}
					epoch := srv.View().Epoch
					if epoch == lastEpoch {
						runtime.Gosched()
						continue
					}
					lastEpoch = epoch
					for j := 0; j < 4; j++ {
						i++
						r := trustnet.Report{Rater: i % 60, Ratee: (i + 7) % 60, Value: float64(i%5) / 4}
						if r.Rater == r.Ratee {
							continue
						}
						if _, err := srv.EnqueueReport(r); err != nil {
							fail("enqueue: %v", err)
							return
						}
					}
				}
			}()

			if err := srv.Start(ctx); err != nil {
				t.Fatal(err)
			}
			<-srv.Done()
			cancel()
			wg.Wait()

			if failed.Load() {
				t.Fatal(*failMsg.Load())
			}
			if err := srv.Err(); err != nil {
				t.Fatal(err)
			}
			if got := srv.View().Epoch; got != maxEpochs {
				t.Fatalf("finished at epoch %d, want %d", got, maxEpochs)
			}
			if reads.Load() == 0 {
				t.Fatal("readers never observed a view")
			}
			t.Logf("shards=%d: %d consistent reads across %d epochs, %d reports applied",
				shards, reads.Load(), maxEpochs, srv.Stats().ReportsApplied)
		})
	}
}
