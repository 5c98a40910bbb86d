package satisfaction

import (
	"fmt"
	"slices"
)

// ConsumerState is the serializable mutable state of a Consumer. The
// population size, the default preference and the EMA memory are the
// owner's Population, re-established when the owning engine is rebuilt from
// the same scenario settings, and whether the consumer has started is N > 0.
// Only the overrides are carried, so snapshot size tracks interactions
// rather than population².
type ConsumerState struct {
	// Deviations from the shared default, strictly ascending by provider so
	// the encoded bytes do not depend on map order, each with its
	// disclosure flag.
	Overrides []Override
	Sat       float64
	N         int64
}

// State captures the consumer's mutable state.
func (c *Consumer) State() ConsumerState {
	st := ConsumerState{Sat: c.sat, N: c.n}
	if len(c.overrides) > 0 {
		st.Overrides = slices.Clone(c.overrides)
	}
	return st
}

// validPref reports whether v is a preference a consumer can hold: a
// number in [0, 1] (construction clamps into it and the EMA stays in it).
func validPref(v float64) bool { return v >= 0 && v <= 1 }

// checkEMA rejects a long-run satisfaction outside [0, 1] (NaN included;
// every fold keeps it there) and a negative observation count.
func checkEMA(who string, sat float64, n int64) error {
	if !validPref(sat) {
		return fmt.Errorf("satisfaction: %s state satisfaction %v outside [0,1]", who, sat)
	}
	if n < 0 {
		return fmt.Errorf("satisfaction: %s state counts %d observations", who, n)
	}
	return nil
}

// CheckState reports whether SetState would accept st: the satisfaction
// and every preference must lie in [0, 1], the observation count must not
// be negative, and the overrides must name providers of the population in
// strictly ascending order. It changes nothing.
func (c *Consumer) CheckState(st ConsumerState, pop *Population) error {
	if err := checkEMA("consumer", st.Sat, st.N); err != nil {
		return err
	}
	for k, o := range st.Overrides {
		if o.Provider < 0 || int(o.Provider) >= pop.N {
			return fmt.Errorf("satisfaction: consumer state override for provider %d outside [0,%d)", o.Provider, pop.N)
		}
		if k > 0 && o.Provider <= st.Overrides[k-1].Provider {
			return fmt.Errorf("satisfaction: consumer state override for provider %d not in ascending order", o.Provider)
		}
		if !validPref(o.Pref) {
			return fmt.Errorf("satisfaction: consumer state preference %v for provider %d outside [0,1]", o.Pref, o.Provider)
		}
	}
	return nil
}

// SetState restores a previously captured state; a state CheckState
// rejects is an error and leaves the consumer unchanged.
func (c *Consumer) SetState(st ConsumerState, pop *Population) error {
	if err := c.CheckState(st, pop); err != nil {
		return err
	}
	c.overrides = slices.Clone(st.Overrides)
	c.disclosed = 0
	for _, o := range c.overrides {
		if o.Disclosed {
			c.disclosed++
		}
	}
	c.sat = st.Sat
	c.n = st.N
	return nil
}

// ProviderState is the serializable mutable state of a Provider: its EMA
// and observation count. The willingness is the owner's Population, and
// whether the provider has started is N > 0.
type ProviderState struct {
	Sat float64
	N   int64
}

// State captures the provider's mutable state.
func (p *Provider) State() ProviderState {
	return ProviderState{Sat: p.sat, N: p.n}
}

// CheckState reports whether SetState would accept st: the satisfaction
// must lie in [0, 1] and the observation count must not be negative. It
// changes nothing.
func (p *Provider) CheckState(st ProviderState) error {
	return checkEMA("provider", st.Sat, st.N)
}

// SetState restores a previously captured state; a state CheckState
// rejects is an error and leaves the provider unchanged.
func (p *Provider) SetState(st ProviderState) error {
	if err := p.CheckState(st); err != nil {
		return err
	}
	p.sat = st.Sat
	p.n = st.N
	return nil
}
