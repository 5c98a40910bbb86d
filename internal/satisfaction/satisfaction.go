// Package satisfaction implements the participant-satisfaction model the
// paper adopts from Quiané-Ruiz, Lamarre & Valduriez (VLDB J. 2009, the
// paper's [17]): participants have intentions; the *adequacy* of one
// allocation measures how well it matched those intentions; *allocation
// satisfaction* is the per-allocation value; and *satisfaction* proper is
// the long-run notion — an exponential moving average that captures whether
// the system "meets its intentions in the long term" (§2.1).
//
// Consumers intend to receive service from the providers they prefer
// (preferences are private, informed by delivered quality); providers intend
// to serve the requests they are willing to treat, even though the system
// may sometimes impose others.
package satisfaction

import (
	"fmt"
	"slices"
)

// DefaultMemory is the EMA weight used when a zero memory is supplied:
// each new allocation contributes 10% — satisfaction is a long-run notion.
const DefaultMemory = 0.1

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Population is what every consumer and provider of one population shares,
// held once by their owner rather than by each of them: the population size,
// the preference a consumer holds for a provider it has not experienced, the
// willingness every provider serves any consumer with, and the EMA memory.
// The owner passes it to every Consumer and Provider method that reads it.
type Population struct {
	N      int     // peer count: providers for a consumer, consumers for a provider
	Pref   float64 // a consumer's preference for a provider without an override
	Will   float64 // a provider's willingness to serve any consumer
	Memory float64 // EMA weight of the newest allocation
}

// NewPopulation validates the shared settings of n uniform consumers and
// providers. The preference and the willingness are clamped into [0,1]; a
// zero memory means DefaultMemory.
func NewPopulation(n int, pref, will, memory float64) (Population, error) {
	if n <= 0 {
		return Population{}, fmt.Errorf("satisfaction: a population needs at least one peer, got %d", n)
	}
	if memory == 0 {
		memory = DefaultMemory
	}
	if !(memory >= 0 && memory <= 1) {
		return Population{}, fmt.Errorf("satisfaction: memory %v out of (0,1]", memory)
	}
	return Population{N: n, Pref: clamp01(pref), Will: clamp01(will), Memory: memory}, nil
}

// Willingness returns a provider's willingness to serve a consumer: the
// shared willingness, or 0 for a consumer outside the population.
func (pop *Population) Willingness(consumer int) float64 {
	if consumer < 0 || consumer >= pop.N {
		return 0
	}
	return pop.Will
}

// Consumer tracks one data consumer's intentions and satisfaction. Its
// zero value is a consumer with no history.
//
// Preferences are the population's shared default plus per-provider
// overrides, kept sorted by provider. A consumer starts with no overrides
// and gains one per provider it experiences — at population scale almost
// every preference is still the untouched default, so memory stays
// proportional to interactions, not population². Everything the population
// shares lives in its Population, so a consumer is 48 bytes.
type Consumer struct {
	overrides []Override // ascending by provider
	sat       float64
	// n counts the allocations folded into sat; the first one seeds it.
	n int64
	// disclosed counts the overrides flagged Disclosed: the distinct
	// recipients of the consumer's profile.
	disclosed int32 //trustlint:derived recounted from the restored overrides' flags on SetState
}

// Override is one provider's own preference, shadowing the default, and
// whether the consumer has disclosed its profile to that provider. The flag
// sits in the padding after Provider, so an override stays 16 bytes.
type Override struct {
	Provider  int32
	Disclosed bool
	Pref      float64
}

// overrideCap is the capacity a uniform consumer's overrides start with:
// one allocation covers the handful of providers a typical consumer meets.
const overrideCap = 8

// findOverride returns the position of provider's override: its index when
// present, else the index it would be inserted at. The interaction path
// searches short lists for unpredictable providers, so each halving step
// advances by a mask rather than a branch the CPU would mispredict.
func (c *Consumer) findOverride(provider int) (int, bool) {
	p, ovs := int32(provider), c.overrides
	if len(ovs) == 0 {
		return 0, false
	}
	// The position lies in [base, base+n].
	base, n := 0, len(ovs)
	for n > 1 {
		half := n >> 1
		below := 0
		if ovs[base+half].Provider < p {
			below = 1
		}
		base += half & -below
		n -= half
	}
	if ovs[base].Provider < p {
		base++
	}
	return base, base < len(ovs) && ovs[base].Provider == p
}

// ObserveAllocation records one allocation together with the quality the
// chosen provider delivered, and returns the allocation satisfaction. When
// disclose is set the allocation also disclosed the consumer's profile to
// chosen (a served interaction does; a refused one does not): the chosen
// provider's override is the one record of who holds the profile, and
// Disclosed counts the providers it reached.
//
// The allocation satisfaction is adequacy × quality. Adequacy is how well
// allocating chosen matched the consumer's intention given the candidate
// set: the preference of the chosen provider relative to the best available
// preference. It is 0 when chosen is invalid or not among the candidates,
// and 1 when every candidate's preference is 0 (an indifferent consumer).
// §2.1 requires "a system which both provides results of good quality and
// is also usable accordingly to the user needs": being handed the best of a
// uniformly bad candidate set is still a bad outcome. The allocation
// satisfaction folds into the long-run satisfaction.
//
// The delivered quality then folds into the consumer's private preference
// for the chosen provider (quality of results "is a private notion that is
// assumed to be used by a data consumer to decide which providers she
// prefers").
//
// It is one pass over the overrides: each candidate's override is searched
// once, and the chosen provider's slot serves the adequacy, the preference
// update and the disclosure flag, so the update inserts at most once and
// searches again only when chosen is not a candidate.
func (c *Consumer) ObserveAllocation(pop *Population, chosen int, candidates []int32, quality float64, disclose bool) float64 {
	q := clamp01(quality)
	valid := chosen >= 0 && chosen < pop.N
	adequacy := 0.0
	// slot is chosen's position in the overrides (found: an override is
	// there; else the position one is inserted at); -1 until searched.
	slot, found := -1, false
	if valid {
		best := 0.0
		for _, cand := range candidates {
			p := 0.0
			if cand >= 0 && int(cand) < pop.N {
				k, ok := c.findOverride(int(cand))
				p = pop.Pref
				if ok {
					p = c.overrides[k].Pref
				}
				if int(cand) == chosen {
					slot, found = k, ok
				}
			}
			if p > best {
				best = p
			}
		}
		switch {
		case slot < 0: // chosen is not a candidate: adequacy 0
			slot, found = c.findOverride(chosen)
		case best == 0:
			adequacy = 1 // indifferent consumer: any allocation is adequate
		case found:
			adequacy = c.overrides[slot].Pref / best
		default:
			adequacy = pop.Pref / best
		}
	}
	a := adequacy * q
	c.fold(pop.Memory, a)
	if !valid {
		return a
	}
	if !found {
		if c.overrides == nil {
			c.overrides = make([]Override, 0, overrideCap)
		}
		c.overrides = slices.Insert(c.overrides, slot, Override{Provider: int32(chosen), Pref: pop.Pref})
	}
	o := &c.overrides[slot]
	o.Pref = float64((1-pop.Memory)*o.Pref) + float64(pop.Memory*q)
	if disclose && !o.Disclosed {
		o.Disclosed = true
		c.disclosed++
	}
	return a
}

// Disclosed returns the number of distinct providers the consumer's profile
// was disclosed to.
func (c *Consumer) Disclosed() int { return int(c.disclosed) }

// ObserveFailure records an allocation round in which the consumer got no
// service at all (adequacy 0).
func (c *Consumer) ObserveFailure(pop *Population) {
	c.fold(pop.Memory, 0)
}

// fold folds one allocation satisfaction into the long-run EMA of the given
// memory; the first allocation seeds it.
func (c *Consumer) fold(memory, a float64) {
	if c.n == 0 {
		c.sat = a
	} else {
		c.sat = float64((1-memory)*c.sat) + float64(memory*a)
	}
	c.n++
}

// Satisfaction returns the long-run satisfaction in [0,1]. A consumer with
// no history is neutrally satisfied (0.5): it has no grounds for judgment.
func (c *Consumer) Satisfaction() float64 {
	if c.n == 0 {
		return 0.5
	}
	return c.sat
}

// Provider tracks one data provider's satisfaction. Its willingness is the
// population's, one value for every consumer that is never mutated, so a
// provider holds only its EMA: 16 bytes. Its zero value is a provider that
// has served nothing.
type Provider struct {
	sat float64
	// n counts the allocations folded into sat; the first one seeds it.
	n int64
}

// Observe records that the system allocated a request from `consumer` to
// this provider. The adequacy is the provider's willingness for that
// consumer — "a data provider can be satisfied even if sometimes the system
// imposes queries he does not intend to treat" (§2.1): a single imposed
// (low-willingness) request only dents the long-run EMA.
func (p *Provider) Observe(pop *Population, consumer int) float64 {
	a := pop.Willingness(consumer)
	if p.n == 0 {
		p.sat = a
	} else {
		p.sat = float64((1-pop.Memory)*p.sat) + float64(pop.Memory*a)
	}
	p.n++
	return a
}

// Observations returns how many allocations the provider was given.
func (p *Provider) Observations() int64 { return p.n }

// Satisfaction returns the provider's long-run satisfaction (0.5 when it has
// served nothing).
func (p *Provider) Satisfaction() float64 {
	if p.n == 0 {
		return 0.5
	}
	return p.sat
}
