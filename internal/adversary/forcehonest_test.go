package adversary

import (
	"testing"

	"repro/internal/sim"
)

func TestForceHonestGuaranteesClass(t *testing.T) {
	rng := sim.NewRNG(21)
	mix := Mix{
		Fractions:   map[Class]float64{Honest: 0.5, Malicious: 0.5},
		ForceHonest: []int{0, 1, 2},
	}
	for trial := 0; trial < 20; trial++ {
		classes, err := mix.Assign(rng, 40)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 1, 2} {
			if classes[id] != Honest {
				t.Fatalf("trial %d: forced peer %d has class %v", trial, id, classes[id])
			}
		}
		// Class counts are preserved by the swap.
		counts := map[Class]int{}
		for _, c := range classes {
			counts[c]++
		}
		if counts[Honest] != 20 || counts[Malicious] != 20 {
			t.Fatalf("counts changed: %v", counts)
		}
	}
}

func TestForceHonestBestEffortWhenImpossible(t *testing.T) {
	rng := sim.NewRNG(23)
	mix := Mix{
		Fractions:   map[Class]float64{Malicious: 1},
		ForceHonest: []int{0},
	}
	classes, err := mix.Assign(rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	// No honest peers exist to swap with; id 0 keeps its class.
	if classes[0] != Malicious {
		t.Fatalf("impossible force produced %v", classes[0])
	}
}

func TestForceHonestIgnoresOutOfRange(t *testing.T) {
	rng := sim.NewRNG(25)
	mix := Mix{
		Fractions:   map[Class]float64{Honest: 1},
		ForceHonest: []int{-3, 99},
	}
	if _, err := mix.Assign(rng, 10); err != nil {
		t.Fatal(err)
	}
}

func TestForceHonestDoesNotStealFromOtherForcedSlot(t *testing.T) {
	rng := sim.NewRNG(27)
	mix := Mix{
		Fractions:   map[Class]float64{Honest: 0.2, Malicious: 0.8},
		ForceHonest: []int{0, 1},
	}
	for trial := 0; trial < 30; trial++ {
		classes, err := mix.Assign(rng, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly 2 honest peers exist; both must land on the forced ids.
		if classes[0] != Honest || classes[1] != Honest {
			t.Fatalf("trial %d: forced slots = %v %v", trial, classes[0], classes[1])
		}
	}
}
