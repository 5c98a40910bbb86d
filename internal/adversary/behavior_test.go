package adversary

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// classOp identifies the class function a pinned row calls.
type classOp int

const (
	opServes classOp = iota
	opQuality
	opRate
)

// classPins drives every class through Serves, ServiceQuality (at steps in
// both traitor phases) and Rate (with a colluding and a non-colluding
// partner) in order on one stream seeded 20100. Each row records what the
// call returned and the stream state after it. The figures were recorded
// from the per-peer behaviour objects these functions replace, so a change
// to any draw, its order or its rounding shows here.
var classPins = []struct {
	class           Class
	op              classOp
	t               int
	observed        float64
	partnerColludes bool
	serves          bool
	value           float64
	state           uint64
}{
	{Honest, opServes, 0, 0, false, true, 0, 0x4e84},
	{Honest, opServes, 0, 0, false, true, 0, 0x4e84},
	{Honest, opServes, 0, 0, false, true, 0, 0x4e84},
	{Honest, opQuality, 0, 0, false, false, 0.9207509037817536, 0x9e3779b97f4aca99},
	{Honest, opQuality, 49, 0, false, false, 0.9182395021187522, 0x3c6ef372fe9546ae},
	{Honest, opQuality, 50, 0, false, false, 0.8903750011421795, 0xdaa66d2c7ddfc2c3},
	{Honest, opQuality, 99, 0, false, false, 0.8614622206615762, 0x78dde6e5fd2a3ed8},
	{Honest, opQuality, 100, 0, false, false, 0.8733973901582072, 0x1715609f7c74baed},
	{Honest, opQuality, 175, 0, false, false, 0.8804685418139728, 0xb54cda58fbbf3702},
	{Honest, opRate, 0, 0, true, false, 0, 0xb54cda58fbbf3702},
	{Honest, opRate, 0, 0.3, true, false, 0.3, 0xb54cda58fbbf3702},
	{Honest, opRate, 0, 0.95, true, false, 0.95, 0xb54cda58fbbf3702},
	{Honest, opRate, 0, 0, false, false, 0, 0xb54cda58fbbf3702},
	{Honest, opRate, 0, 0.3, false, false, 0.3, 0xb54cda58fbbf3702},
	{Honest, opRate, 0, 0.95, false, false, 0.95, 0xb54cda58fbbf3702},
	{Malicious, opServes, 0, 0, false, true, 0, 0xb54cda58fbbf3702},
	{Malicious, opServes, 0, 0, false, true, 0, 0xb54cda58fbbf3702},
	{Malicious, opServes, 0, 0, false, true, 0, 0xb54cda58fbbf3702},
	{Malicious, opQuality, 0, 0, false, false, 0.0690643793798632, 0x538454127b09b317},
	{Malicious, opQuality, 49, 0, false, false, 0.08199132502340171, 0xf1bbcdcbfa542f2c},
	{Malicious, opQuality, 50, 0, false, false, 0.053097808447233455, 0x8ff34785799eab41},
	{Malicious, opQuality, 99, 0, false, false, 0.05812257779791083, 0x2e2ac13ef8e92756},
	{Malicious, opQuality, 100, 0, false, false, 0.07452094711525607, 0xcc623af87833a36b},
	{Malicious, opQuality, 175, 0, false, false, 0.0761993247233914, 0x6a99b4b1f77e1f80},
	{Malicious, opRate, 0, 0, true, false, 1, 0x6a99b4b1f77e1f80},
	{Malicious, opRate, 0, 0.3, true, false, 0.7, 0x6a99b4b1f77e1f80},
	{Malicious, opRate, 0, 0.95, true, false, 0.050000000000000044, 0x6a99b4b1f77e1f80},
	{Malicious, opRate, 0, 0, false, false, 1, 0x6a99b4b1f77e1f80},
	{Malicious, opRate, 0, 0.3, false, false, 0.7, 0x6a99b4b1f77e1f80},
	{Malicious, opRate, 0, 0.95, false, false, 0.050000000000000044, 0x6a99b4b1f77e1f80},
	{Selfish, opServes, 0, 0, false, false, 0, 0x8d12e6b76c89b95},
	{Selfish, opServes, 0, 0, false, false, 0, 0xa708a824f61317aa},
	{Selfish, opServes, 0, 0, false, false, 0, 0x454021de755d93bf},
	{Selfish, opQuality, 0, 0, false, false, 0.9303241536967398, 0xe3779b97f4a80fd4},
	{Selfish, opQuality, 49, 0, false, false, 0.8802586030597926, 0x81af155173f28be9},
	{Selfish, opQuality, 50, 0, false, false, 0.9240123128008427, 0x1fe68f0af33d07fe},
	{Selfish, opQuality, 99, 0, false, false, 0.8778293910635275, 0xbe1e08c472878413},
	{Selfish, opQuality, 100, 0, false, false, 0.8651364730136404, 0x5c55827df1d20028},
	{Selfish, opQuality, 175, 0, false, false, 0.8585647948486391, 0xfa8cfc37711c7c3d},
	{Selfish, opRate, 0, 0, true, false, 0, 0xfa8cfc37711c7c3d},
	{Selfish, opRate, 0, 0.3, true, false, 0.3, 0xfa8cfc37711c7c3d},
	{Selfish, opRate, 0, 0.95, true, false, 0.95, 0xfa8cfc37711c7c3d},
	{Selfish, opRate, 0, 0, false, false, 0, 0xfa8cfc37711c7c3d},
	{Selfish, opRate, 0, 0.3, false, false, 0.3, 0xfa8cfc37711c7c3d},
	{Selfish, opRate, 0, 0.95, false, false, 0.95, 0xfa8cfc37711c7c3d},
	{Traitor, opServes, 0, 0, false, true, 0, 0xfa8cfc37711c7c3d},
	{Traitor, opServes, 0, 0, false, true, 0, 0xfa8cfc37711c7c3d},
	{Traitor, opServes, 0, 0, false, true, 0, 0xfa8cfc37711c7c3d},
	{Traitor, opQuality, 0, 0, false, false, 0.9455344390790472, 0x98c475f0f066f852},
	{Traitor, opQuality, 49, 0, false, false, 0.857270283563933, 0x36fbefaa6fb17467},
	{Traitor, opQuality, 50, 0, false, false, 0.12419073522054334, 0xd5336963eefbf07c},
	{Traitor, opQuality, 99, 0, false, false, 0.08070265918316573, 0x736ae31d6e466c91},
	{Traitor, opQuality, 100, 0, false, false, 0.8511599820965616, 0x11a25cd6ed90e8a6},
	{Traitor, opQuality, 175, 0, false, false, 0.10578341531132351, 0xafd9d6906cdb64bb},
	{Traitor, opRate, 0, 0, true, false, 0, 0xafd9d6906cdb64bb},
	{Traitor, opRate, 0, 0.3, true, false, 0.3, 0xafd9d6906cdb64bb},
	{Traitor, opRate, 0, 0.95, true, false, 0.95, 0xafd9d6906cdb64bb},
	{Traitor, opRate, 0, 0, false, false, 0, 0xafd9d6906cdb64bb},
	{Traitor, opRate, 0, 0.3, false, false, 0.3, 0xafd9d6906cdb64bb},
	{Traitor, opRate, 0, 0.95, false, false, 0.95, 0xafd9d6906cdb64bb},
	{Whitewasher, opServes, 0, 0, false, true, 0, 0xafd9d6906cdb64bb},
	{Whitewasher, opServes, 0, 0, false, true, 0, 0xafd9d6906cdb64bb},
	{Whitewasher, opServes, 0, 0, false, true, 0, 0xafd9d6906cdb64bb},
	{Whitewasher, opQuality, 0, 0, false, false, 0.14752063693606246, 0x4e115049ec25e0d0},
	{Whitewasher, opQuality, 49, 0, false, false, 0.12880703631603635, 0xec48ca036b705ce5},
	{Whitewasher, opQuality, 50, 0, false, false, 0.1383670840392271, 0x8a8043bceabad8fa},
	{Whitewasher, opQuality, 99, 0, false, false, 0.12625951243729805, 0x28b7bd766a05550f},
	{Whitewasher, opQuality, 100, 0, false, false, 0.10121883973998337, 0xc6ef372fe94fd124},
	{Whitewasher, opQuality, 175, 0, false, false, 0.08795552778568151, 0x6526b0e9689a4d39},
	{Whitewasher, opRate, 0, 0, true, false, 1, 0x6526b0e9689a4d39},
	{Whitewasher, opRate, 0, 0.3, true, false, 0.7, 0x6526b0e9689a4d39},
	{Whitewasher, opRate, 0, 0.95, true, false, 0.050000000000000044, 0x6526b0e9689a4d39},
	{Whitewasher, opRate, 0, 0, false, false, 1, 0x6526b0e9689a4d39},
	{Whitewasher, opRate, 0, 0.3, false, false, 0.7, 0x6526b0e9689a4d39},
	{Whitewasher, opRate, 0, 0.95, false, false, 0.050000000000000044, 0x6526b0e9689a4d39},
	{Slanderer, opServes, 0, 0, false, true, 0, 0x6526b0e9689a4d39},
	{Slanderer, opServes, 0, 0, false, true, 0, 0x6526b0e9689a4d39},
	{Slanderer, opServes, 0, 0, false, true, 0, 0x6526b0e9689a4d39},
	{Slanderer, opQuality, 0, 0, false, false, 0.8662835258052379, 0x35e2aa2e7e4c94e},
	{Slanderer, opQuality, 49, 0, false, false, 0.9447157044799289, 0xa195a45c672f4563},
	{Slanderer, opQuality, 50, 0, false, false, 0.8970103206888542, 0x3fcd1e15e679c178},
	{Slanderer, opQuality, 99, 0, false, false, 0.9436935469960619, 0xde0497cf65c43d8d},
	{Slanderer, opQuality, 100, 0, false, false, 0.9169244982391695, 0x7c3c1188e50eb9a2},
	{Slanderer, opQuality, 175, 0, false, false, 0.8726958476011385, 0x1a738b42645935b7},
	{Slanderer, opRate, 0, 0, true, false, 1, 0x1a738b42645935b7},
	{Slanderer, opRate, 0, 0.3, true, false, 0.7, 0x1a738b42645935b7},
	{Slanderer, opRate, 0, 0.95, true, false, 0.050000000000000044, 0x1a738b42645935b7},
	{Slanderer, opRate, 0, 0, false, false, 1, 0x1a738b42645935b7},
	{Slanderer, opRate, 0, 0.3, false, false, 0.7, 0x1a738b42645935b7},
	{Slanderer, opRate, 0, 0.95, false, false, 0.050000000000000044, 0x1a738b42645935b7},
	{Colluder, opServes, 0, 0, false, true, 0, 0x1a738b42645935b7},
	{Colluder, opServes, 0, 0, false, true, 0, 0x1a738b42645935b7},
	{Colluder, opServes, 0, 0, false, true, 0, 0x1a738b42645935b7},
	{Colluder, opQuality, 0, 0, false, false, 0.12550957222017164, 0xb8ab04fbe3a3b1cc},
	{Colluder, opQuality, 49, 0, false, false, 0.060537139088728466, 0x56e27eb562ee2de1},
	{Colluder, opQuality, 50, 0, false, false, 0.05752225688883458, 0xf519f86ee238a9f6},
	{Colluder, opQuality, 99, 0, false, false, 0.13611283036699634, 0x935172286183260b},
	{Colluder, opQuality, 100, 0, false, false, 0.05882041959279293, 0x3188ebe1e0cda220},
	{Colluder, opQuality, 175, 0, false, false, 0.051904722912976625, 0xcfc0659b60181e35},
	{Colluder, opRate, 0, 0, true, false, 1, 0xcfc0659b60181e35},
	{Colluder, opRate, 0, 0.3, true, false, 1, 0xcfc0659b60181e35},
	{Colluder, opRate, 0, 0.95, true, false, 1, 0xcfc0659b60181e35},
	{Colluder, opRate, 0, 0, false, false, 0, 0xcfc0659b60181e35},
	{Colluder, opRate, 0, 0.3, false, false, 0.3, 0xcfc0659b60181e35},
	{Colluder, opRate, 0, 0.95, false, false, 0.95, 0xcfc0659b60181e35},
}

func TestClassFunctionsPinned(t *testing.T) {
	rng := sim.NewRNG(20100)
	for i, p := range classPins {
		switch p.op {
		case opServes:
			if got := Serves(p.class, rng); got != p.serves {
				t.Fatalf("row %d: Serves(%v) = %v, want %v", i, p.class, got, p.serves)
			}
		case opQuality:
			if got := ServiceQuality(p.class, rng, p.t); math.Float64bits(got) != math.Float64bits(p.value) {
				t.Fatalf("row %d: ServiceQuality(%v, t=%d) = %v, want %v", i, p.class, p.t, got, p.value)
			}
		case opRate:
			if got := Rate(p.class, p.observed, p.partnerColludes); math.Float64bits(got) != math.Float64bits(p.value) {
				t.Fatalf("row %d: Rate(%v, %v, %v) = %v, want %v", i, p.class, p.observed, p.partnerColludes, got, p.value)
			}
		}
		if st := rng.State(); st.State != p.state || st.HasSpare {
			t.Fatalf("row %d (%v): stream state %#x (spare %v) after the call, want %#x", i, p.class, st.State, st.HasSpare, p.state)
		}
	}
}

func avgQuality(c Class, rng *sim.RNG, t, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += ServiceQuality(c, rng, t)
	}
	return sum / float64(n)
}

func TestHonestBehavior(t *testing.T) {
	rng := sim.NewRNG(1)
	if !Serves(Honest, rng) {
		t.Fatal("honest peer refused service")
	}
	if q := avgQuality(Honest, rng, 0, 500); q < 0.85 || q > 0.95 {
		t.Fatalf("honest quality = %v, want ~0.9", q)
	}
	if got := Rate(Honest, 0.7, false); got != 0.7 {
		t.Fatalf("honest rating = %v, want truthful", got)
	}
}

func TestMaliciousBehavior(t *testing.T) {
	rng := sim.NewRNG(2)
	for _, c := range []Class{Malicious, Whitewasher} {
		if q := avgQuality(c, rng, 0, 500); q > 0.2 {
			t.Fatalf("%v quality = %v, want ~0.1", c, q)
		}
		if got := Rate(c, 0.9, false); got > 0.2 {
			t.Fatalf("%v rating of good partner = %v, want inverted", c, got)
		}
	}
}

func TestSelfishBehavior(t *testing.T) {
	rng := sim.NewRNG(3)
	serves := 0
	for i := 0; i < 10000; i++ {
		if Serves(Selfish, rng) {
			serves++
		}
	}
	if serves < 850 || serves > 1150 {
		t.Fatalf("selfish served %d/10000, want ~1000", serves)
	}
	// When it serves, quality is good and feedback honest.
	if q := avgQuality(Selfish, rng, 0, 500); q < 0.85 {
		t.Fatalf("selfish quality = %v", q)
	}
	if got := Rate(Selfish, 0.7, false); got != 0.7 {
		t.Fatalf("selfish rating = %v, want truthful", got)
	}
}

func TestTraitorOscillates(t *testing.T) {
	rng := sim.NewRNG(4)
	early := avgQuality(Traitor, rng, 25, 200)  // phase 0: good
	late := avgQuality(Traitor, rng, 75, 200)   // phase 1: bad
	again := avgQuality(Traitor, rng, 125, 200) // phase 0 again
	if early < 0.8 || late > 0.2 || again < 0.8 {
		t.Fatalf("traitor phases: %v / %v / %v", early, late, again)
	}
}

func TestSlandererLiesButServesWell(t *testing.T) {
	rng := sim.NewRNG(5)
	if q := avgQuality(Slanderer, rng, 0, 500); q < 0.85 {
		t.Fatalf("slanderer quality = %v, want good", q)
	}
	if got := Rate(Slanderer, 0.9, false); got > 0.2 {
		t.Fatalf("slanderer rating = %v, want inverted", got)
	}
}

func TestColluderInflatesClique(t *testing.T) {
	rng := sim.NewRNG(6)
	if got := Rate(Colluder, 0.1, true); got != 1 {
		t.Fatalf("clique rating = %v, want 1", got)
	}
	if got := Rate(Colluder, 0.4, false); got != 0.4 {
		t.Fatalf("non-clique rating = %v, want truthful", got)
	}
	if q := avgQuality(Colluder, rng, 0, 500); q > 0.2 {
		t.Fatalf("colluder quality = %v, want bad", q)
	}
}

// TestNewUnknownClass checks that an unknown class is refused wherever a
// class enters: it is not Valid, has no name, and a mix naming it fails.
func TestNewUnknownClass(t *testing.T) {
	for _, c := range []Class{0, Colluder + 1, Class(99), Class(255)} {
		if c.Valid() {
			t.Fatalf("class %d is valid", int(c))
		}
		if _, err := c.MarshalText(); err == nil {
			t.Fatalf("class %d has a name", int(c))
		}
		if err := (Mix{Fractions: map[Class]float64{Honest: 1, c: 0.5}}).Validate(); err == nil {
			t.Fatalf("mix naming class %d accepted", int(c))
		}
	}
	for c := Honest; c <= Colluder; c++ {
		if !c.Valid() {
			t.Fatalf("class %v is not valid", c)
		}
	}
}

func TestQualityAlwaysInRange(t *testing.T) {
	rng := sim.NewRNG(7)
	for c := Honest; c <= Colluder; c++ {
		for i := 0; i < 1000; i++ {
			q := ServiceQuality(c, rng, i)
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
	for c := Honest; c <= Colluder; c++ {
		if got, ok := ClassNamed(c.String()); !ok || got != c {
			t.Fatalf("ClassNamed(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ClassNamed(""); ok {
		t.Fatal("the empty name resolved to a class")
	}
}

func TestMixAssignProportions(t *testing.T) {
	rng := sim.NewRNG(8)
	mix := Mix{Fractions: map[Class]float64{Honest: 0.7, Malicious: 0.3}}
	classes, err := mix.Assign(rng, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 200 {
		t.Fatal("wrong population size")
	}
	counts := map[Class]int{}
	for _, c := range classes {
		counts[c]++
	}
	if counts[Honest] != 140 || counts[Malicious] != 60 {
		t.Fatalf("counts = %v, want 140/60", counts)
	}
}

func TestMixAssignLargestRemainder(t *testing.T) {
	rng := sim.NewRNG(9)
	mix := Mix{Fractions: map[Class]float64{Honest: 1, Malicious: 1, Selfish: 1}}
	classes, err := mix.Assign(rng, 10)
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

// TestMixAssignIsDeterministic: equal seeds give equal populations. The
// fractions' sum depends on the order it is folded in, so summing in map
// order gave this mix two different assignments over 200 calls.
func TestMixAssignIsDeterministic(t *testing.T) {
	mix := Mix{Fractions: map[Class]float64{Honest: 0.7, Malicious: 0.1, Selfish: 0.1, Traitor: 0.1}}
	first, err := mix.Assign(sim.NewRNG(7), 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got, err := mix.Assign(sim.NewRNG(7), 25)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, first) {
			t.Fatalf("call %d: assignment %v differs from the first %v", i, got, first)
		}
	}
}

func TestMixAssignShuffles(t *testing.T) {
	rng := sim.NewRNG(10)
	mix := Mix{Fractions: map[Class]float64{Honest: 0.5, Malicious: 0.5}}
	classes, err := mix.Assign(rng, 100)
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
	classes, err := mix.Assign(rng, 50)
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
	// Every colluder must rate every other colluder 1, and an honest
	// partner truthfully.
	for _, a := range colluders {
		for id, c := range classes {
			if id == a {
				continue
			}
			want := 0.1
			if c == Colluder {
				want = 1
			}
			if got := Rate(classes[a], 0.1, c == Colluder); got != want {
				t.Fatalf("colluder %d rated peer %d (%v) as %v, want %v", a, id, c, got, want)
			}
		}
	}
}

func TestMixAssignErrors(t *testing.T) {
	rng := sim.NewRNG(12)
	if _, err := (Mix{}).Assign(rng, 10); err == nil {
		t.Fatal("empty mix accepted")
	}
	m := Mix{Fractions: map[Class]float64{Honest: 1}}
	if _, err := m.Assign(rng, 0); err == nil {
		t.Fatal("zero population accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		mix := Mix{Fractions: map[Class]float64{Honest: bad, Malicious: 2}}
		if _, err := mix.Assign(rng, 10); err == nil {
			t.Fatalf("fraction %v accepted", bad)
		}
	}
}
