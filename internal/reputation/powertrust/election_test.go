package powertrust

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/reputation"
	"repro/internal/sim"
)

// fullSortElection is the reference election: every peer sorted by rank
// descending, ties by ascending id, the first m kept.
func fullSortElection(rank []float64, m int) []int {
	ids := make([]int, len(rank))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if rank[ids[a]] != rank[ids[b]] {
			return rank[ids[a]] > rank[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids[:m]
}

// TestElectPowerNodesMatchesFullSort pins the heap selection to the full
// sort — same ids in the same order — on rankings dense with ties, both
// from global scores and from the bootstrap in-degree ranking.
func TestElectPowerNodesMatchesFullSort(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 1}, {2, 1}, {7, 3}, {50, 50}, {400, 20}, {1000, 50}} {
		t.Run(fmt.Sprintf("n=%d/m=%d", tc.n, tc.m), func(t *testing.T) {
			rng := sim.NewRNG(uint64(tc.n*100 + tc.m))
			mech, err := New(Config{N: tc.n, M: tc.m})
			if err != nil {
				t.Fatal(err)
			}
			// Bootstrap: uniform scores, in-degree from ratings on a
			// three-level scale so many peers tie.
			for k := 0; k < 3*tc.n && tc.n > 1; k++ {
				i, j := rng.Intn(tc.n), rng.Intn(tc.n)
				if i == j {
					continue
				}
				v := float64(rng.Intn(3)) / 2
				if err := mech.Submit(reputation.Report{Rater: i, Ratee: j, Value: v}); err != nil {
					t.Fatal(err)
				}
			}
			rank := make([]float64, tc.n) // summed exactly as the election sums
			for _, c := range mech.feedback.All() {
				rank[c.Col] += c.Val.sum / float64(c.Val.count)
			}
			checkElection(t, "bootstrap", mech.electPowerNodes(), fullSortElection(rank, tc.m))

			// Scores: a handful of levels, so most peers tie with others.
			scores := mech.RawView()
			for i := range scores {
				scores[i] = float64(1+rng.Intn(4)) / float64(tc.n)
			}
			scores[0] = 2 // never within 1% of uniform
			checkElection(t, "scores", mech.electPowerNodes(), fullSortElection(scores, tc.m))

			if allocs := testing.AllocsPerRun(10, func() { mech.electPowerNodes() }); allocs != 0 {
				t.Fatalf("election allocates %v objects/op, want 0", allocs)
			}
		})
	}
}

func checkElection(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: elected %d peers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: elected[%d] = %d, want %d (got %v, want %v)", label, i, got[i], want[i], got, want)
		}
	}
}
