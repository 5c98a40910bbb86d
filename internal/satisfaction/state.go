package satisfaction

import (
	"fmt"
	"slices"
)

// ConsumerState is the serializable mutable state of a Consumer. The EMA
// memory is configuration, not state: it is re-established when the owning
// engine is rebuilt from the same scenario settings. Only the overrides are
// carried, so snapshot size tracks interactions rather than population².
type ConsumerState struct {
	// Provider count, shared default, and deviations (strictly ascending
	// by provider, so the encoded bytes do not depend on map order), each
	// with its disclosure flag.
	Pop       int
	Def       float64
	Overrides []Override
	Sat       float64
	Started   bool
	N         int64
}

// State captures the consumer's mutable state.
func (c *Consumer) State() ConsumerState {
	st := ConsumerState{Pop: c.pop, Def: c.def, Sat: c.sat, Started: c.started, N: c.n}
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

// CheckState reports whether SetState would accept st: the provider count
// must match the consumer's own, the satisfaction and every preference must
// lie in [0, 1], the observation count must not be negative, and the
// overrides must name providers in [0, Pop) in strictly ascending order.
// It changes nothing.
func (c *Consumer) CheckState(st ConsumerState) error {
	if st.Pop != c.pop {
		return fmt.Errorf("satisfaction: consumer state for %d providers, want %d", st.Pop, c.pop)
	}
	if err := checkEMA("consumer", st.Sat, st.N); err != nil {
		return err
	}
	if !validPref(st.Def) {
		return fmt.Errorf("satisfaction: consumer state default preference %v outside [0,1]", st.Def)
	}
	for k, o := range st.Overrides {
		if o.Provider < 0 || int(o.Provider) >= c.pop {
			return fmt.Errorf("satisfaction: consumer state override for provider %d outside [0,%d)", o.Provider, c.pop)
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
func (c *Consumer) SetState(st ConsumerState) error {
	if err := c.CheckState(st); err != nil {
		return err
	}
	c.pop = st.Pop // unchanged: CheckState matched it to the consumer's own
	c.def = st.Def
	c.overrides = slices.Clone(st.Overrides)
	c.disclosed = 0
	for _, o := range c.overrides {
		if o.Disclosed {
			c.disclosed++
		}
	}
	c.sat = st.Sat
	c.started = st.Started
	c.n = st.N
	return nil
}

// ProviderState is the serializable mutable state of a Provider.
type ProviderState struct {
	// Consumer count and the shared uniform willingness.
	Pop     int
	Def     float64
	Sat     float64
	Started bool
	N       int64
}

// State captures the provider's mutable state.
func (p *Provider) State() ProviderState {
	return ProviderState{Pop: p.pop, Def: p.def, Sat: p.sat, Started: p.started, N: p.n}
}

// CheckState reports whether SetState would accept st: the consumer count
// must match the provider's own, the willingness and the satisfaction must
// lie in [0, 1], and the observation count must not be negative. It
// changes nothing.
func (p *Provider) CheckState(st ProviderState) error {
	if st.Pop != p.pop {
		return fmt.Errorf("satisfaction: provider state for %d consumers, want %d", st.Pop, p.pop)
	}
	if !validPref(st.Def) {
		return fmt.Errorf("satisfaction: provider state willingness %v outside [0,1]", st.Def)
	}
	return checkEMA("provider", st.Sat, st.N)
}

// SetState restores a previously captured state; a state CheckState
// rejects is an error and leaves the provider unchanged.
func (p *Provider) SetState(st ProviderState) error {
	if err := p.CheckState(st); err != nil {
		return err
	}
	p.pop = st.Pop // unchanged: CheckState matched it to the provider's own
	p.def = st.Def
	p.sat = st.Sat
	p.started = st.Started
	p.n = st.N
	return nil
}
