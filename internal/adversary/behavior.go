// Package adversary models peer behaviour classes. Section 2.2 of the paper
// scopes reputation design by "expected user behavior ... as well as
// adversarial goals and power (e.g., selfish peers, malicious peers,
// traitors, whitewashers)", following Marti & Garcia-Molina's taxonomy.
// Each class decides (a) the service quality a peer delivers, (b) whether it
// serves at all, and (c) how honestly it rates partners.
package adversary

import (
	"fmt"

	"repro/internal/sim"
)

// Class enumerates the behaviour classes used across experiments.
type Class int

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

var classNames = map[Class]string{
	Honest:      "honest",
	Malicious:   "malicious",
	Selfish:     "selfish",
	Traitor:     "traitor",
	Whitewasher: "whitewasher",
	Slanderer:   "slanderer",
	Colluder:    "colluder",
}

// String returns the lowercase class name.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ClassNamed resolves a lowercase class name ("honest", "malicious", ...)
// back to its Class; ok is false for unknown names.
func ClassNamed(name string) (Class, bool) {
	for c, s := range classNames {
		if s == name {
			return c, true
		}
	}
	return 0, false
}

// MarshalText encodes the class as its lowercase name, so JSON scenario
// specs read "malicious" instead of a magic integer.
func (c Class) MarshalText() ([]byte, error) {
	s, ok := classNames[c]
	if !ok {
		return nil, fmt.Errorf("adversary: unknown class %d", int(c))
	}
	return []byte(s), nil
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

// Behavior is one peer's behavioural policy.
type Behavior interface {
	// Serves reports whether the peer accepts a service request.
	Serves(rng *sim.RNG) bool
	// ServiceQuality returns the quality in [0,1] the peer delivers at
	// logical step t (traitors oscillate with t).
	ServiceQuality(rng *sim.RNG, t int) float64
	// Rate converts an observed quality from a partner into the rating the
	// peer reports ([0,1]); liars invert or inflate.
	Rate(rng *sim.RNG, partner int, observed float64) float64
}

// Config tunes the behaviour models.
type Config struct {
	// GoodQuality is the mean quality delivered by well-behaved peers
	// (default 0.9).
	GoodQuality float64
	// BadQuality is the mean quality delivered by misbehaving peers
	// (default 0.1).
	BadQuality float64
	// Noise is the +/- uniform jitter applied to qualities (default 0.05).
	Noise float64
	// TraitorPeriod is the oscillation period for traitors (default 50):
	// they behave well for one period, then badly for one period.
	TraitorPeriod int
	// SelfishServeProb is the probability a selfish peer serves (default 0.1).
	SelfishServeProb float64
	// Clique is the set of partner ids a colluder inflates (required for
	// Colluder).
	Clique map[int]bool
}

func (c Config) withDefaults() Config {
	if c.GoodQuality == 0 {
		c.GoodQuality = 0.9
	}
	if c.BadQuality == 0 {
		c.BadQuality = 0.1
	}
	if c.Noise == 0 {
		c.Noise = 0.05
	}
	if c.TraitorPeriod == 0 {
		c.TraitorPeriod = 50
	}
	if c.SelfishServeProb == 0 {
		c.SelfishServeProb = 0.1
	}
	return c
}

// New constructs the behaviour for a class. It returns an error for unknown
// classes or a Colluder without a clique.
func New(class Class, cfg Config) (Behavior, error) {
	cfg = cfg.withDefaults()
	switch class {
	case Honest:
		return &basic{cfg: cfg, quality: cfg.GoodQuality, honest: true}, nil
	case Malicious, Whitewasher:
		// A whitewasher resets its identity via churn; in the protocol it
		// serves and rates as a malicious peer does.
		return &basic{cfg: cfg, quality: cfg.BadQuality}, nil
	case Selfish:
		return &selfish{cfg: cfg}, nil
	case Traitor:
		return &traitor{cfg: cfg}, nil
	case Slanderer:
		return &slanderer{cfg: cfg}, nil
	case Colluder:
		if len(cfg.Clique) == 0 {
			return nil, fmt.Errorf("adversary: colluder requires a non-empty clique")
		}
		return &colluder{cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("adversary: unknown class %d", int(class))
	}
}

func jitter(rng *sim.RNG, q, noise float64) float64 {
	q += float64((float64(rng.Float64()*2) - 1) * noise)
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// basic serves a fixed mean quality; honest peers rate truthfully,
// malicious/whitewashing peers rate adversarially (invert).
type basic struct {
	cfg     Config
	quality float64
	honest  bool
}

func (b *basic) Serves(*sim.RNG) bool { return true }
func (b *basic) ServiceQuality(rng *sim.RNG, t int) float64 {
	return jitter(rng, b.quality, b.cfg.Noise)
}
func (b *basic) Rate(rng *sim.RNG, partner int, observed float64) float64 {
	if b.honest {
		return observed
	}
	return 1 - observed // malicious peers also lie in feedback
}

// selfish free-riders deliver good quality when they bother to serve, and
// rate honestly — their damage is refusal, not lies.
type selfish struct{ cfg Config }

func (s *selfish) Serves(rng *sim.RNG) bool { return rng.Bool(s.cfg.SelfishServeProb) }
func (s *selfish) ServiceQuality(rng *sim.RNG, t int) float64 {
	return jitter(rng, s.cfg.GoodQuality, s.cfg.Noise)
}
func (s *selfish) Rate(rng *sim.RNG, partner int, observed float64) float64 {
	return observed
}

// traitor oscillates: good for TraitorPeriod steps (building reputation),
// then bad for TraitorPeriod steps (milking it).
type traitor struct{ cfg Config }

func (tr *traitor) Serves(*sim.RNG) bool { return true }
func (tr *traitor) ServiceQuality(rng *sim.RNG, t int) float64 {
	phase := (t / tr.cfg.TraitorPeriod) % 2
	if phase == 0 {
		return jitter(rng, tr.cfg.GoodQuality, tr.cfg.Noise)
	}
	return jitter(rng, tr.cfg.BadQuality, tr.cfg.Noise)
}
func (tr *traitor) Rate(rng *sim.RNG, partner int, observed float64) float64 {
	return observed
}

// slanderer provides good service but reports the inverse of what it
// observes, poisoning the feedback pool.
type slanderer struct{ cfg Config }

func (s *slanderer) Serves(*sim.RNG) bool { return true }
func (s *slanderer) ServiceQuality(rng *sim.RNG, t int) float64 {
	return jitter(rng, s.cfg.GoodQuality, s.cfg.Noise)
}
func (s *slanderer) Rate(rng *sim.RNG, partner int, observed float64) float64 {
	return 1 - observed
}

// colluder serves badly but rates clique members with perfect scores and
// everyone else truthfully-low, inflating the clique's standing.
type colluder struct{ cfg Config }

func (c *colluder) Serves(*sim.RNG) bool { return true }
func (c *colluder) ServiceQuality(rng *sim.RNG, t int) float64 {
	return jitter(rng, c.cfg.BadQuality, c.cfg.Noise)
}
func (c *colluder) Rate(rng *sim.RNG, partner int, observed float64) float64 {
	if c.cfg.Clique[partner] {
		return 1
	}
	return observed
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

// Assign deterministically assigns n peers to classes proportionally to the
// mix (largest-remainder), shuffled by rng. Colluders all share one clique.
// It returns the behaviour list and the ground-truth class per peer.
// Validate checks the composition without assigning behaviours. An empty
// Fractions map is valid (callers default it to all honest).
func (m Mix) Validate() error {
	total := 0.0
	for _, f := range m.Fractions {
		if f < 0 {
			return fmt.Errorf("adversary: negative fraction")
		}
		total += f
	}
	if len(m.Fractions) > 0 && total == 0 {
		return fmt.Errorf("adversary: empty mix")
	}
	return nil
}

func (m Mix) Assign(rng *sim.RNG, n int, cfg Config) ([]Behavior, []Class, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("adversary: population size %d must be positive", n)
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if len(m.Fractions) == 0 {
		return nil, nil, fmt.Errorf("adversary: empty mix")
	}
	total := 0.0
	for _, f := range m.Fractions {
		total += f
	}
	classes := []Class{Honest, Malicious, Selfish, Traitor, Whitewasher, Slanderer, Colluder}
	counts := make(map[Class]int)
	assigned := 0
	type rem struct {
		c Class
		r float64
	}
	var rems []rem
	for _, c := range classes {
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
	// Build the id list, shuffle for placement, then construct behaviours.
	classByPeer := make([]Class, 0, n)
	for _, c := range classes {
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
	clique := make(map[int]bool)
	for id, c := range classByPeer {
		if c == Colluder {
			clique[id] = true
		}
	}
	behaviors := make([]Behavior, n)
	for id, c := range classByPeer {
		bcfg := cfg
		if c == Colluder {
			bcfg.Clique = clique
		}
		b, err := New(c, bcfg)
		if err != nil {
			return nil, nil, err
		}
		behaviors[id] = b
	}
	return behaviors, classByPeer, nil
}
