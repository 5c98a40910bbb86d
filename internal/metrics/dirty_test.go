package metrics

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

func TestDirtySetZeroValueUsable(t *testing.T) {
	var s DirtySet
	if s.Len() != 0 || s.Dirty(0) || len(s.Sorted()) != 0 {
		t.Fatal("zero-value set not empty")
	}
	s.Mark(3)
	if !s.Dirty(3) || s.Len() != 1 {
		t.Fatal("Mark on zero value failed")
	}
}

func TestDirtySetMarkDedupes(t *testing.T) {
	var s DirtySet
	for i := 0; i < 5; i++ {
		s.Mark(7)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after repeated marks, want 1", s.Len())
	}
}

func TestDirtySetIgnoresNegatives(t *testing.T) {
	var s DirtySet
	s.Mark(-1)
	if s.Len() != 0 || s.Dirty(-1) {
		t.Fatal("negative id recorded")
	}
}

func TestDirtySetSortedMemoized(t *testing.T) {
	var s DirtySet
	for _, id := range []int{9, 2, 5, 2, 0, 9} {
		s.Mark(id)
	}
	want := []int{0, 2, 5, 9}
	got := s.Sorted()
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
	// Ascending insertion after sorting keeps the memoized order valid.
	s.Mark(11)
	got = s.Sorted()
	if got[len(got)-1] != 11 {
		t.Fatalf("Sorted after ascending Mark = %v", got)
	}
}

func TestDirtySetReset(t *testing.T) {
	var s DirtySet
	s.Mark(4)
	s.Mark(1)
	s.Reset()
	if s.Len() != 0 || s.Dirty(4) || s.Dirty(1) {
		t.Fatal("Reset left dirty state")
	}
	// The bitmap capacity survives; marking again works.
	s.Mark(4)
	if !s.Dirty(4) || s.Len() != 1 {
		t.Fatal("Mark after Reset failed")
	}
}

// TestDirtySetSortedMatchesSortOracle drives random marks across bitmap
// growth and Resets and checks Sorted, Len and Dirty against a sorted copy
// of the marked ids.
func TestDirtySetSortedMatchesSortOracle(t *testing.T) {
	rng := sim.NewRNG(64)
	var s DirtySet
	for round := 0; round < 300; round++ {
		span := 1 + rng.Intn(1<<uint(1+round%14))
		marked := map[int]bool{}
		for k := rng.Intn(2 * span); k > 0; k-- {
			id := rng.Intn(span) + round%3*span
			if rng.Bool(0.05) {
				id = -1 - id
			}
			s.Mark(id)
			if id >= 0 {
				marked[id] = true
			}
			if rng.Bool(0.02) {
				s.Sorted() // memoized mid-stream, then invalidated
			}
		}
		want := make([]int, 0, len(marked))
		for id := range marked {
			want = append(want, id)
		}
		sort.Ints(want)
		if got := s.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("round %d: Sorted = %v, want %v", round, got, want)
		}
		if s.Len() != len(want) {
			t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), len(want))
		}
		for _, id := range want {
			if !s.Dirty(id) {
				t.Fatalf("round %d: marked id %d not dirty", round, id)
			}
		}
		if probe := rng.Intn(3 * span); !marked[probe] && s.Dirty(probe) {
			t.Fatalf("round %d: unmarked id %d dirty", round, probe)
		}
		s.Reset()
		if s.Len() != 0 || len(s.Sorted()) != 0 {
			t.Fatalf("round %d: Reset left %d ids", round, s.Len())
		}
		for _, id := range want {
			if s.Dirty(id) {
				t.Fatalf("round %d: id %d dirty after Reset", round, id)
			}
		}
	}
}
