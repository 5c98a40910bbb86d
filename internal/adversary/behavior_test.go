package adversary

import (
	"testing"

	"repro/internal/sim"
)

func avgQuality(b Behavior, rng *sim.RNG, t, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += b.ServiceQuality(rng, t)
	}
	return sum / float64(n)
}

func TestHonestBehavior(t *testing.T) {
	rng := sim.NewRNG(1)
	b := MustNew(Honest, Config{})
	if b.Class() != Honest {
		t.Fatal("class mismatch")
	}
	if !b.Serves(rng) {
		t.Fatal("honest peer refused service")
	}
	if q := avgQuality(b, rng, 0, 500); q < 0.85 || q > 0.95 {
		t.Fatalf("honest quality = %v, want ~0.9", q)
	}
	if got := b.Rate(rng, 5, 0.7); got != 0.7 {
		t.Fatalf("honest rating = %v, want truthful", got)
	}
}

func TestMaliciousBehavior(t *testing.T) {
	rng := sim.NewRNG(2)
	b := MustNew(Malicious, Config{})
	if q := avgQuality(b, rng, 0, 500); q > 0.2 {
		t.Fatalf("malicious quality = %v, want ~0.1", q)
	}
	if got := b.Rate(rng, 1, 0.9); got > 0.2 {
		t.Fatalf("malicious rating of good partner = %v, want inverted", got)
	}
}

func TestSelfishBehavior(t *testing.T) {
	rng := sim.NewRNG(3)
	b := MustNew(Selfish, Config{SelfishServeProb: 0.2})
	serves := 0
	for i := 0; i < 10000; i++ {
		if b.Serves(rng) {
			serves++
		}
	}
	if serves < 1700 || serves > 2300 {
		t.Fatalf("selfish served %d/10000, want ~2000", serves)
	}
	// When it serves, quality is good and feedback honest.
	if q := avgQuality(b, rng, 0, 500); q < 0.85 {
		t.Fatalf("selfish quality = %v", q)
	}
	if got := b.Rate(rng, 0, 0.7); got != 0.7 {
		t.Fatalf("selfish rating = %v, want truthful", got)
	}
}

func TestTraitorOscillates(t *testing.T) {
	rng := sim.NewRNG(4)
	b := MustNew(Traitor, Config{TraitorPeriod: 10})
	early := avgQuality(b, rng, 5, 200)  // phase 0: good
	late := avgQuality(b, rng, 15, 200)  // phase 1: bad
	again := avgQuality(b, rng, 25, 200) // phase 0 again
	if early < 0.8 || late > 0.2 || again < 0.8 {
		t.Fatalf("traitor phases: %v / %v / %v", early, late, again)
	}
}

func TestSlandererLiesButServesWell(t *testing.T) {
	rng := sim.NewRNG(5)
	b := MustNew(Slanderer, Config{})
	if q := avgQuality(b, rng, 0, 500); q < 0.85 {
		t.Fatalf("slanderer quality = %v, want good", q)
	}
	if got := b.Rate(rng, 2, 0.9); got > 0.2 {
		t.Fatalf("slanderer rating = %v, want inverted", got)
	}
}

func TestColluderInflatesClique(t *testing.T) {
	rng := sim.NewRNG(6)
	b := MustNew(Colluder, Config{Clique: map[int]bool{7: true, 8: true}})
	if got := b.Rate(rng, 7, 0.1); got != 1 {
		t.Fatalf("clique rating = %v, want 1", got)
	}
	if got := b.Rate(rng, 3, 0.4); got != 0.4 {
		t.Fatalf("non-clique rating = %v, want truthful", got)
	}
	if q := avgQuality(b, rng, 0, 500); q > 0.2 {
		t.Fatalf("colluder quality = %v, want bad", q)
	}
}

func TestColluderRequiresClique(t *testing.T) {
	if _, err := New(Colluder, Config{}); err == nil {
		t.Fatal("colluder without clique accepted")
	}
}

func TestNewUnknownClass(t *testing.T) {
	if _, err := New(Class(99), Config{}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestQualityAlwaysInRange(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, c := range []Class{Honest, Malicious, Selfish, Traitor, Slanderer} {
		b := MustNew(c, Config{Noise: 0.3})
		for i := 0; i < 1000; i++ {
			q := b.ServiceQuality(rng, i)
			if q < 0 || q > 1 {
				t.Fatalf("%v quality %v out of range", c, q)
			}
		}
	}
}

func TestClassString(t *testing.T) {
	if Honest.String() != "honest" || Traitor.String() != "traitor" {
		t.Fatal("class names wrong")
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class has empty name")
	}
}

func TestMixAssignProportions(t *testing.T) {
	rng := sim.NewRNG(8)
	mix := Mix{Fractions: map[Class]float64{Honest: 0.7, Malicious: 0.3}}
	behaviors, classes, err := mix.Assign(rng, 200, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(behaviors) != 200 || len(classes) != 200 {
		t.Fatal("wrong population size")
	}
	counts := map[Class]int{}
	for i, c := range classes {
		counts[c]++
		if behaviors[i].Class() != c {
			t.Fatal("behavior/class mismatch")
		}
	}
	if counts[Honest] != 140 || counts[Malicious] != 60 {
		t.Fatalf("counts = %v, want 140/60", counts)
	}
}

func TestMixAssignLargestRemainder(t *testing.T) {
	rng := sim.NewRNG(9)
	mix := Mix{Fractions: map[Class]float64{Honest: 1, Malicious: 1, Selfish: 1}}
	_, classes, err := mix.Assign(rng, 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Class]int{}
	for _, c := range classes {
		counts[c]++
	}
	total := 0
	for _, n := range counts {
		if n < 3 || n > 4 {
			t.Fatalf("unbalanced thirds: %v", counts)
		}
		total += n
	}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
}

func TestMixAssignShuffles(t *testing.T) {
	rng := sim.NewRNG(10)
	mix := Mix{Fractions: map[Class]float64{Honest: 0.5, Malicious: 0.5}}
	_, classes, err := mix.Assign(rng, 100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Malicious peers must not all be in the second half.
	firstHalfMal := 0
	for _, c := range classes[:50] {
		if c == Malicious {
			firstHalfMal++
		}
	}
	if firstHalfMal == 0 || firstHalfMal == 50 {
		t.Fatalf("assignment not shuffled: %d malicious in first half", firstHalfMal)
	}
}

func TestMixColludersShareClique(t *testing.T) {
	rng := sim.NewRNG(11)
	mix := Mix{Fractions: map[Class]float64{Honest: 0.8, Colluder: 0.2}}
	behaviors, classes, err := mix.Assign(rng, 50, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var colluders []int
	for id, c := range classes {
		if c == Colluder {
			colluders = append(colluders, id)
		}
	}
	if len(colluders) != 10 {
		t.Fatalf("colluders = %d", len(colluders))
	}
	// Every colluder must rate every other colluder 1.
	for _, a := range colluders {
		for _, b := range colluders {
			if a == b {
				continue
			}
			if got := behaviors[a].Rate(rng, b, 0.1); got != 1 {
				t.Fatalf("colluder %d rated clique member %d as %v", a, b, got)
			}
		}
	}
}

func TestMixAssignErrors(t *testing.T) {
	rng := sim.NewRNG(12)
	if _, _, err := (Mix{}).Assign(rng, 10, Config{}); err == nil {
		t.Fatal("empty mix accepted")
	}
	m := Mix{Fractions: map[Class]float64{Honest: 1}}
	if _, _, err := m.Assign(rng, 0, Config{}); err == nil {
		t.Fatal("zero population accepted")
	}
	bad := Mix{Fractions: map[Class]float64{Honest: -1, Malicious: 2}}
	if _, _, err := bad.Assign(rng, 10, Config{}); err == nil {
		t.Fatal("negative fraction accepted")
	}
}
