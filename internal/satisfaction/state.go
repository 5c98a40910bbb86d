package satisfaction

import (
	"cmp"
	"fmt"
	"slices"
)

// ConsumerState is the serializable mutable state of a Consumer. The EMA
// memory is configuration, not state: it is re-established when the owning
// engine is rebuilt from the same scenario settings. Only the overrides are
// carried, so snapshot size tracks interactions rather than population².
type ConsumerState struct {
	// Provider count, shared default, and deviations.
	Pop       int
	Def       float64
	Overrides map[int32]float64
	Sat       float64
	Started   bool
	N         int64
}

// State captures the consumer's mutable state.
func (c *Consumer) State() ConsumerState {
	st := ConsumerState{Pop: c.pop, Def: c.def, Sat: c.sat, Started: c.started, N: c.n}
	if len(c.overrides) > 0 {
		st.Overrides = make(map[int32]float64, len(c.overrides))
		for _, o := range c.overrides {
			st.Overrides[o.provider] = o.pref
		}
	}
	return st
}

// validPref reports whether v is a preference a consumer can hold: a
// number in [0, 1] (construction clamps into it and the EMA stays in it).
func validPref(v float64) bool { return v >= 0 && v <= 1 }

// SetState restores a previously captured state. The provider count must
// match the consumer's own, every preference must lie in [0, 1] and every
// override name a provider in [0, Pop); a rejected state leaves the
// consumer unchanged.
func (c *Consumer) SetState(st ConsumerState) error {
	if st.Pop != c.pop {
		return fmt.Errorf("satisfaction: consumer state for %d providers, want %d", st.Pop, c.pop)
	}
	if !validPref(st.Def) {
		return fmt.Errorf("satisfaction: consumer state default preference %v outside [0,1]", st.Def)
	}
	var overrides []override
	for p, v := range st.Overrides {
		overrides = append(overrides, override{provider: p, pref: v})
	}
	slices.SortFunc(overrides, func(a, b override) int { return cmp.Compare(a.provider, b.provider) })
	for _, o := range overrides {
		if o.provider < 0 || int(o.provider) >= c.pop {
			return fmt.Errorf("satisfaction: consumer state override for provider %d outside [0,%d)", o.provider, c.pop)
		}
		if !validPref(o.pref) {
			return fmt.Errorf("satisfaction: consumer state preference %v for provider %d outside [0,1]", o.pref, o.provider)
		}
	}
	c.def = st.Def
	c.overrides = overrides
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

// SetState restores a previously captured state. The consumer count must
// match the provider's own.
func (p *Provider) SetState(st ProviderState) error {
	if st.Pop != p.pop {
		return fmt.Errorf("satisfaction: provider state for %d consumers, want %d", st.Pop, p.pop)
	}
	p.def = st.Def
	p.sat = st.Sat
	p.started = st.Started
	p.n = st.N
	return nil
}
