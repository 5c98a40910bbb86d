package satisfaction

import (
	"cmp"
	"fmt"
	"slices"
)

// ConsumerState is the serializable mutable state of a Consumer. The EMA
// memory is configuration, not state: it is re-established when the owning
// engine is rebuilt from the same scenario settings. Dense consumers carry
// the full Prefs vector; sparse (uniform-default) consumers carry only the
// overrides, so snapshot size tracks interactions rather than population².
type ConsumerState struct {
	Prefs []float64 // dense form only (nil for sparse consumers)
	// Sparse form: provider count, shared default, and deviations.
	Pop       int
	Def       float64
	Overrides map[int32]float64
	Sat       float64
	Started   bool
	N         int64
}

// State captures the consumer's mutable state.
func (c *Consumer) State() ConsumerState {
	st := ConsumerState{Sat: c.sat, Started: c.started, N: c.n}
	if c.dense {
		st.Prefs = make([]float64, len(c.overrides))
		for i, o := range c.overrides {
			st.Prefs[i] = o.pref
		}
		return st
	}
	st.Pop = c.pop
	st.Def = c.def
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

// SetState restores a previously captured state. The representation and the
// provider count must match the consumer's own, every preference must lie
// in [0, 1] and every override name a provider in [0, Pop); a rejected
// state leaves the consumer unchanged.
func (c *Consumer) SetState(st ConsumerState) error {
	if c.dense {
		if len(st.Prefs) != c.pop {
			return fmt.Errorf("satisfaction: consumer state has %d preferences, want %d", len(st.Prefs), c.pop)
		}
		for p, v := range st.Prefs {
			if !validPref(v) {
				return fmt.Errorf("satisfaction: consumer state preference %v for provider %d outside [0,1]", v, p)
			}
		}
		for p, v := range st.Prefs {
			c.overrides[p].pref = v
		}
	} else {
		if st.Prefs != nil {
			return fmt.Errorf("satisfaction: dense consumer state restored into sparse consumer")
		}
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
	}
	c.sat = st.Sat
	c.started = st.Started
	c.n = st.N
	return nil
}

// ProviderState is the serializable mutable state of a Provider.
type ProviderState struct {
	Willingness []float64 // dense form only (nil for sparse providers)
	// Sparse form: consumer count and the shared uniform willingness.
	Pop     int
	Def     float64
	Sat     float64
	Started bool
	N       int64
}

// State captures the provider's mutable state.
func (p *Provider) State() ProviderState {
	st := ProviderState{Sat: p.sat, Started: p.started, N: p.n}
	if p.willingness != nil {
		st.Willingness = append([]float64(nil), p.willingness...)
		return st
	}
	st.Pop = p.pop
	st.Def = p.def
	return st
}

// SetState restores a previously captured state. The representation and the
// consumer count must match the provider's own.
func (p *Provider) SetState(st ProviderState) error {
	if p.willingness != nil {
		if len(st.Willingness) != len(p.willingness) {
			return fmt.Errorf("satisfaction: provider state has %d willingness entries, want %d", len(st.Willingness), len(p.willingness))
		}
		copy(p.willingness, st.Willingness)
	} else {
		if st.Willingness != nil {
			return fmt.Errorf("satisfaction: dense provider state restored into sparse provider")
		}
		if st.Pop != p.pop {
			return fmt.Errorf("satisfaction: provider state for %d consumers, want %d", st.Pop, p.pop)
		}
		p.def = st.Def
	}
	p.sat = st.Sat
	p.started = st.Started
	p.n = st.N
	return nil
}
