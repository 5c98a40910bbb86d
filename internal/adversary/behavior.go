// Package adversary models peer behaviour classes. Section 2.2 of the paper
// scopes reputation design by "expected user behavior ... as well as
// adversarial goals and power (e.g., selfish peers, malicious peers,
// traitors, whitewashers)", following Marti & Garcia-Molina's taxonomy.
// Each class decides (a) the service quality a peer delivers, (b) whether it
// serves at all, and (c) how honestly it rates partners. A peer's behaviour
// is a pure function of its class, so the class is all a population stores.
package adversary

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Class enumerates the behaviour classes used across experiments.
type Class uint8

// Behaviour classes. Honest is the baseline; the rest are the adversarial
// powers named by the paper (plus slanderers and colluders from the cited
// taxonomy).
const (
	Honest Class = iota + 1
	Malicious
	Selfish
	Traitor
	Whitewasher
	Slanderer
	Colluder
)

// classNames is indexed by Class; index 0 is no class.
var classNames = [...]string{
	Honest:      "honest",
	Malicious:   "malicious",
	Selfish:     "selfish",
	Traitor:     "traitor",
	Whitewasher: "whitewasher",
	Slanderer:   "slanderer",
	Colluder:    "colluder",
}

// Valid reports whether c is one of the behaviour classes.
func (c Class) Valid() bool { return c >= Honest && c <= Colluder }

// String returns the lowercase class name.
func (c Class) String() string {
	if c.Valid() {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ClassNamed resolves a lowercase class name ("honest", "malicious", ...)
// back to its Class; ok is false for unknown names.
func ClassNamed(name string) (Class, bool) {
	for c := Honest; c <= Colluder; c++ {
		if classNames[c] == name {
			return c, true
		}
	}
	return 0, false
}

// MarshalText encodes the class as its lowercase name, so JSON scenario
// specs read "malicious" instead of a magic integer.
func (c Class) MarshalText() ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("adversary: unknown class %d", int(c))
	}
	return []byte(classNames[c]), nil
}

// UnmarshalText decodes a lowercase class name.
func (c *Class) UnmarshalText(text []byte) error {
	cls, ok := ClassNamed(string(text))
	if !ok {
		return fmt.Errorf("adversary: unknown class name %q", string(text))
	}
	*c = cls
	return nil
}

// The behaviour models' parameters.
const (
	goodQuality      = 0.9  // mean quality delivered by well-behaved peers
	badQuality       = 0.1  // mean quality delivered by misbehaving peers
	noise            = 0.05 // half-width of the uniform jitter on qualities
	traitorPeriod    = 50   // traitors serve well for one period, then badly for one
	selfishServeProb = 0.1  // probability a selfish peer serves
)

// Serves reports whether a peer of class c accepts a service request.
// Selfish free-riders serve with probability selfishServeProb, drawing once
// from rng; every other class always serves and draws nothing.
func Serves(c Class, rng *sim.RNG) bool {
	if c == Selfish {
		return rng.Bool(selfishServeProb)
	}
	return true
}

// ServiceQuality returns the quality in [0,1] a peer of class c delivers at
// logical step t, drawing once from rng. Malicious, whitewashing and
// colluding peers serve badly; a whitewasher sheds its reputation through
// churn but serves as a malicious peer does. Traitors serve well for
// traitorPeriod steps, building reputation, then badly for traitorPeriod
// steps, milking it. Everyone else serves well.
func ServiceQuality(c Class, rng *sim.RNG, t int) float64 {
	switch c {
	case Malicious, Whitewasher, Colluder:
		return jitter(rng, badQuality)
	case Traitor:
		if (t/traitorPeriod)%2 != 0 {
			return jitter(rng, badQuality)
		}
	}
	return jitter(rng, goodQuality)
}

// Rate converts the quality a peer of class c observed from a partner into
// the rating it reports, in [0,1]. Malicious, whitewashing and slandering
// peers report the inverse; a colluder gives a partner that also colludes a
// perfect score, inflating the clique's standing. Everyone else rates
// truthfully. It makes no random draw.
func Rate(c Class, observed float64, partnerColludes bool) float64 {
	switch c {
	case Malicious, Whitewasher, Slanderer:
		return 1 - observed
	case Colluder:
		if partnerColludes {
			return 1
		}
	}
	return observed
}

// jitter draws q plus uniform noise in [-noise, noise). The product is
// rounded before the add, so no platform fuses it; every result lies inside
// [0,1] because noise is smaller than both mean qualities' distance to it.
func jitter(rng *sim.RNG, q float64) float64 {
	return q + float64((float64(rng.Float64()*2)-1)*noise)
}

// Mix describes a population composition; weights need not sum to 1 (they
// are normalized).
type Mix struct {
	Fractions map[Class]float64
	// ForceHonest lists peer ids guaranteed to be assigned the Honest
	// class (swapped with honest peers elsewhere in the shuffle). This
	// models EigenTrust's deployment assumption that the pre-trusted set
	// consists of known-good peers (the network founders). It is
	// best-effort: if the mix contains fewer honest peers than forced ids,
	// the excess ids keep their sampled class.
	ForceHonest []int
}

// Validate checks the composition without assigning classes. An empty
// Fractions map is valid (callers default it to all honest).
func (m Mix) Validate() error {
	for c := range m.Fractions {
		if !c.Valid() {
			return fmt.Errorf("adversary: mix names an unknown class")
		}
	}
	for c := Honest; c <= Colluder; c++ {
		if f := m.Fractions[c]; !(f >= 0 && f <= math.MaxFloat64) {
			return fmt.Errorf("adversary: %v fraction %v is negative or not finite", c, f)
		}
	}
	if len(m.Fractions) > 0 && m.total() == 0 {
		return fmt.Errorf("adversary: empty mix")
	}
	return nil
}

// total sums the fractions in class order: a float sum depends on its
// order, and map order is random.
func (m Mix) total() float64 {
	total := 0.0
	for c := Honest; c <= Colluder; c++ {
		total += m.Fractions[c]
	}
	return total
}

// Assign deterministically assigns n peers to classes proportionally to the
// mix (largest-remainder), shuffled by rng, and returns the class of each
// peer.
func (m Mix) Assign(rng *sim.RNG, n int) ([]Class, error) {
	if n <= 0 {
		return nil, fmt.Errorf("adversary: population size %d must be positive", n)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Fractions) == 0 {
		return nil, fmt.Errorf("adversary: empty mix")
	}
	total := m.total()
	var counts [Colluder + 1]int
	assigned := 0
	type rem struct {
		c Class
		r float64
	}
	var rems []rem
	for c := Honest; c <= Colluder; c++ {
		exact := float64(m.Fractions[c] / total * float64(n))
		k := int(exact)
		counts[c] = k
		assigned += k
		rems = append(rems, rem{c, exact - float64(k)})
	}
	// Largest remainder fills the gap deterministically.
	for assigned < n {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i].r > rems[best].r {
				best = i
			}
		}
		counts[rems[best].c]++
		rems[best].r = -1
		assigned++
	}
	// Build the class list, then shuffle it for placement.
	classByPeer := make([]Class, 0, n)
	for c := Honest; c <= Colluder; c++ {
		for i := 0; i < counts[c]; i++ {
			classByPeer = append(classByPeer, c)
		}
	}
	rng.Shuffle(len(classByPeer), func(i, j int) {
		classByPeer[i], classByPeer[j] = classByPeer[j], classByPeer[i]
	})
	// Honour ForceHonest by swapping honest assignments into the forced
	// slots.
	forced := make(map[int]bool, len(m.ForceHonest))
	for _, id := range m.ForceHonest {
		if id >= 0 && id < n {
			forced[id] = true
		}
	}
	for _, id := range m.ForceHonest {
		if id < 0 || id >= n || classByPeer[id] == Honest {
			continue
		}
		for j := 0; j < n; j++ {
			if classByPeer[j] == Honest && !forced[j] {
				classByPeer[id], classByPeer[j] = classByPeer[j], classByPeer[id]
				break
			}
		}
	}
	return classByPeer, nil
}
