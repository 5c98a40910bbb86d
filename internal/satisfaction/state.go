package satisfaction

import (
	"fmt"
	"math"
	"slices"
)

// ConsumerState is the serializable mutable state of a Consumer. The EMA
// memory is configuration, not state: it is re-established when the owning
// engine is rebuilt from the same scenario settings. Only the overrides are
// carried, so snapshot size tracks interactions rather than population².
type ConsumerState struct {
	// Provider count, shared default, and deviations (strictly ascending
	// by provider, so the encoded bytes do not depend on map order), each
	// with its disclosure flag. Pop and Def are the population's, and
	// Started is N > 0; a state is checked against both.
	Pop       int     //trustlint:derived the population's size, checked against it by CheckState
	Def       float64 //trustlint:derived the population's default preference, checked against it by CheckState
	Overrides []Override
	Sat       float64
	Started   bool //trustlint:derived N > 0, checked against it by CheckState
	N         int64
}

// State captures the consumer's mutable state.
func (c *Consumer) State(pop *Population) ConsumerState {
	st := ConsumerState{Pop: pop.N, Def: pop.Pref, Sat: c.sat, Started: c.n > 0, N: c.n}
	if len(c.overrides) > 0 {
		st.Overrides = slices.Clone(c.overrides)
	}
	return st
}

// validPref reports whether v is a preference a consumer can hold: a
// number in [0, 1] (construction clamps into it and the EMA stays in it).
func validPref(v float64) bool { return v >= 0 && v <= 1 }

// checkShared rejects a state whose population size or shared default (a
// consumer's default preference, a provider's willingness) is not the
// population's own, the default compared by its bits, or whose started flag
// contradicts its observation count.
func checkShared(who string, pop, wantPop int, what string, def, wantDef float64, started bool, n int64) error {
	if pop != wantPop {
		return fmt.Errorf("satisfaction: %s state for a population of %d, want %d", who, pop, wantPop)
	}
	if math.Float64bits(def) != math.Float64bits(wantDef) {
		return fmt.Errorf("satisfaction: %s state %s %v, want the population's %v", who, what, def, wantDef)
	}
	if started != (n > 0) {
		return fmt.Errorf("satisfaction: %s state started %v after %d observations", who, started, n)
	}
	return nil
}

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
// and the default preference must be the population's, the satisfaction
// and every preference must lie in [0, 1], the observation count must not
// be negative and must agree with the started flag, and the overrides must
// name providers in [0, Pop) in strictly ascending order. It changes
// nothing.
func (c *Consumer) CheckState(st ConsumerState, pop *Population) error {
	if err := checkEMA("consumer", st.Sat, st.N); err != nil {
		return err
	}
	if err := checkShared("consumer", st.Pop, pop.N, "default preference", st.Def, pop.Pref, st.Started, st.N); err != nil {
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

// ProviderState is the serializable mutable state of a Provider.
type ProviderState struct {
	// Consumer count and the shared uniform willingness: the population's.
	// Started is N > 0.
	Pop     int     //trustlint:derived the population's size, checked against it by CheckState
	Def     float64 //trustlint:derived the population's willingness, checked against it by CheckState
	Sat     float64
	Started bool //trustlint:derived N > 0, checked against it by CheckState
	N       int64
}

// State captures the provider's mutable state.
func (p *Provider) State(pop *Population) ProviderState {
	return ProviderState{Pop: pop.N, Def: pop.Will, Sat: p.sat, Started: p.n > 0, N: p.n}
}

// CheckState reports whether SetState would accept st: the consumer count
// and the willingness must be the population's, the satisfaction must lie
// in [0, 1], and the observation count must not be negative and must agree
// with the started flag. It changes nothing.
func (p *Provider) CheckState(st ProviderState, pop *Population) error {
	if err := checkEMA("provider", st.Sat, st.N); err != nil {
		return err
	}
	return checkShared("provider", st.Pop, pop.N, "willingness", st.Def, pop.Will, st.Started, st.N)
}

// SetState restores a previously captured state; a state CheckState
// rejects is an error and leaves the provider unchanged.
func (p *Provider) SetState(st ProviderState, pop *Population) error {
	if err := p.CheckState(st, pop); err != nil {
		return err
	}
	p.sat = st.Sat
	p.n = st.N
	return nil
}
