package satisfaction

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// The two-call consumer path the fused ObserveAllocation replaced, kept as
// its differential oracle: ObserveQuality then UpdatePreference, searching
// the overrides once per candidate, once more for the chosen provider, and
// once for the update.

// UpdatePreference folds a delivered quality into the consumer's private
// preference for the provider.
func (c *consumer) UpdatePreference(provider int, quality float64) {
	if provider < 0 || provider >= c.pop.N {
		return
	}
	k, ok := c.findOverride(provider)
	if !ok {
		if c.overrides == nil {
			c.overrides = make([]Override, 0, overrideCap)
		}
		c.overrides = slices.Insert(c.overrides, k, Override{Provider: int32(provider), Pref: c.pop.Pref})
	}
	o := &c.overrides[k]
	o.Pref = float64((1-c.pop.Memory)*o.Pref) + float64(c.pop.Memory*clamp01(quality))
}

// Adequacy returns how well allocating chosen matched the consumer's
// intention given the candidate set: preference of the chosen provider
// relative to the best available preference. It is 0 when chosen is invalid
// or not among the candidates, and 1 when the system picked a most-preferred
// candidate.
func (c *consumer) Adequacy(chosen int, candidates []int) float64 {
	if chosen < 0 || chosen >= c.pop.N {
		return 0
	}
	best := 0.0
	inSet := false
	for _, cand := range candidates {
		if cand == chosen {
			inSet = true
		}
		if p := c.Preference(cand); p > best {
			best = p
		}
	}
	if !inSet {
		return 0
	}
	if best == 0 {
		return 1 // indifferent consumer: any allocation is adequate
	}
	return c.Preference(chosen) / best
}

// Observe records one allocation: it computes the allocation satisfaction
// (the per-allocation adequacy), folds it into the long-run satisfaction,
// and returns it.
func (c *consumer) Observe(chosen int, candidates []int) float64 {
	a := c.Adequacy(chosen, candidates)
	c.fold(c.pop.Memory, a)
	return a
}

// ObserveQuality records one allocation together with the quality the
// chosen provider delivered: the allocation satisfaction is adequacy ×
// quality.
func (c *consumer) ObserveQuality(chosen int, candidates []int, quality float64) float64 {
	a := c.Adequacy(chosen, candidates) * clamp01(quality)
	c.fold(c.pop.Memory, a)
	return a
}

// refOverrides is the map-based sparse preference store the provider-sorted
// override slice replaced, kept as the differential oracle.
type refOverrides struct {
	pop       int
	def       float64
	memory    float64
	overrides map[int32]float64
}

func (r *refOverrides) Preference(provider int) float64 {
	if provider < 0 || provider >= r.pop {
		return 0
	}
	if v, ok := r.overrides[int32(provider)]; ok {
		return v
	}
	return r.def
}

func (r *refOverrides) UpdatePreference(provider int, quality float64) {
	if provider < 0 || provider >= r.pop {
		return
	}
	cur := r.def
	if v, ok := r.overrides[int32(provider)]; ok {
		cur = v
	}
	if r.overrides == nil {
		r.overrides = make(map[int32]float64)
	}
	r.overrides[int32(provider)] = float64((1-r.memory)*cur) + float64(r.memory*clamp01(quality))
}

// state is the oracle's part of a ConsumerState: the overrides.
func (r *refOverrides) state() ConsumerState {
	var st ConsumerState
	for k, v := range r.overrides {
		st.Overrides = append(st.Overrides, Override{Provider: k, Pref: v})
	}
	slices.SortFunc(st.Overrides, func(a, b Override) int { return cmp.Compare(a.Provider, b.Provider) })
	return st
}

func (r *refOverrides) setState(st ConsumerState) {
	r.overrides = nil
	if len(st.Overrides) > 0 {
		r.overrides = make(map[int32]float64, len(st.Overrides))
		for _, o := range st.Overrides {
			r.overrides[o.Provider] = o.Pref
		}
	}
}

// TestConsumerOverridesMatchMapOracle drives seeded random sequences of
// preference updates (in and out of range, qualities outside [0,1]),
// observations, and State→SetState round trips and rewinds through a
// sparse consumer and the map oracle, comparing every preference and the
// captured state bitwise after every step.
func TestConsumerOverridesMatchMapOracle(t *testing.T) {
	const n = 30
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		def := rng.Float64()
		c, err := newConsumer(n, def, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refOverrides{pop: n, def: def, memory: 0.15}
		saved := c.State()
		for step := 0; step < 500; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op < 14:
				p, q := rng.Intn(n+2)-1, 1.4*rng.Float64()-0.2
				c.UpdatePreference(p, q)
				ref.UpdatePreference(p, q)
			case op < 16:
				cands := rng.Sample(n, 1+rng.Intn(6))
				c.Observe(cands[rng.Intn(len(cands))], cands)
			case op < 18:
				saved = c.State()
				if err := c.SetState(saved); err != nil {
					t.Fatalf("%s: round trip: %v", where, err)
				}
				ref.setState(saved)
			default:
				if err := c.SetState(saved); err != nil {
					t.Fatalf("%s: rewind: %v", where, err)
				}
				ref.setState(saved)
			}
			for p := -1; p <= n; p++ {
				if got, want := c.Preference(p), ref.Preference(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Preference(%d) = %v, want %v", where, p, got, want)
				}
			}
			got, want := c.State(), ref.state()
			got.Sat, got.N = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: State = %+v, want %+v", where, got, want)
			}
		}
	}
}

// TestConsumerPreferenceAllocFree pins the interaction-path preference
// operations at zero allocations: reading a preference (override or
// default), re-folding a quality into an existing override, and a whole
// allocation whose chosen provider already has one.
func TestConsumerPreferenceAllocFree(t *testing.T) {
	c, err := newConsumer(100, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 100; p += 3 {
		c.UpdatePreference(p, 0.9)
	}
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink = c.Preference(42) + c.Preference(43) }); a != 0 {
		t.Fatalf("Preference allocates %v per call", a)
	}
	_ = sink
	if a := testing.AllocsPerRun(100, func() { c.UpdatePreference(42, 0.3) }); a != 0 {
		t.Fatalf("re-folding an existing override allocates %v per call", a)
	}
	cands := []int32{40, 41, 42, 43, 44}
	if a := testing.AllocsPerRun(100, func() { sink = c.ObserveAllocation(42, cands, 0.3, true) }); a != 0 {
		t.Fatalf("an allocation to a provider with an override allocates %v per call", a)
	}
}

// TestConsumerSetStateRejectsHostile feeds SetState preferences no consumer
// can hold; each must be an error that leaves the consumer unchanged.
func TestConsumerSetStateRejectsHostile(t *testing.T) {
	const n = 5
	sparse := func(ov ...Override) ConsumerState {
		return ConsumerState{Overrides: ov}
	}
	dense := func(prefs ...float64) ConsumerState {
		var st ConsumerState
		for p, v := range prefs {
			st.Overrides = append(st.Overrides, Override{Provider: int32(p), Pref: v})
		}
		return st
	}
	cases := []struct {
		name  string
		dense bool // a consumer built with a preference for every provider
		st    ConsumerState
	}{
		{"override provider at pop", false, sparse(Override{Provider: n, Pref: 0.4})},
		{"negative override provider", false, sparse(Override{Provider: -1, Pref: 0.4})},
		{"NaN override", false, sparse(Override{Provider: 2, Pref: math.NaN()})},
		{"infinite override", false, sparse(Override{Provider: 2, Pref: math.Inf(1)})},
		{"negative override", false, sparse(Override{Provider: 2, Pref: -0.1})},
		{"overrides descending", false, sparse(Override{Provider: 3, Pref: 0.4}, Override{Provider: 2, Pref: 0.4})},
		{"override duplicated", false, sparse(Override{Provider: 2, Pref: 0.4}, Override{Provider: 2, Pref: 0.6})},
		{"NaN dense preference", true, dense(0.5, math.NaN(), 0.5, 0.5, 0.5)},
		{"dense preference above one", true, dense(0.5, 0.5, 2, 0.5, 0.5)},
		{"NaN satisfaction", false, ConsumerState{Sat: math.NaN(), N: 3}},
		{"infinite satisfaction", false, ConsumerState{Sat: math.Inf(1), N: 3}},
		{"negative satisfaction", false, ConsumerState{Sat: -0.2, N: 3}},
		{"negative observation count", false, ConsumerState{Sat: 0.5, N: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c *consumer
			var err error
			if tc.dense {
				c, err = newPrefConsumer([]float64{0.5, 0.5, 0.5, 0.5, 0.5}, 0.1)
			} else {
				c, err = newConsumer(n, 0.5, 0.1)
			}
			if err != nil {
				t.Fatal(err)
			}
			c.UpdatePreference(1, 1)
			before := c.State()
			if err := c.SetState(tc.st); err == nil {
				t.Fatal("hostile consumer state accepted")
			}
			if got := c.State(); !reflect.DeepEqual(got, before) {
				t.Fatalf("rejected state changed the consumer: %+v, want %+v", got, before)
			}
		})
	}
}

// TestObserveAllocationMatchesTwoCallOracle drives seeded random allocations
// through the fused ObserveAllocation and through ObserveQuality followed by
// UpdatePreference on a twin, and compares the returned allocation
// satisfaction and the whole consumer state bit for bit after every step.
// The runs start from override sets of every size, the empty one included,
// and the allocations cover a chosen provider that is not a candidate,
// out-of-range ids in both places, duplicated candidates, empty candidate
// lists and qualities outside [0,1]. Every third run starts from a zero
// default preference, so some candidate sets have a best preference of 0
// (the indifferent consumer).
func TestObserveAllocationMatchesTwoCallOracle(t *testing.T) {
	const n = 40
	for seed := uint64(1); seed <= 24; seed++ {
		rng := sim.NewRNG(seed)
		def := rng.Float64()
		if seed%3 == 0 {
			def = 0
		}
		fused, err := newConsumer(n, def, 0.05+0.3*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if seed%4 != 0 { // every fourth run starts with no override at all
			for _, p := range rng.Sample(n, rng.Intn(n+1)) {
				fused.UpdatePreference(p, rng.Float64())
			}
		}
		twin, err := newConsumer(n, def, fused.pop.Memory)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.SetState(fused.State()); err != nil {
			t.Fatal(err)
		}
		disclosed := make(map[int]bool) // providers the profile reached
		for step := 0; step < 400; step++ {
			cands := make([]int32, rng.Intn(7))
			for i := range cands {
				switch rng.Intn(12) {
				case 0:
					cands[i] = int32(-1 - rng.Intn(2))
				case 1:
					cands[i] = int32(n + rng.Intn(2))
				default:
					cands[i] = int32(rng.Intn(n))
				}
			}
			var chosen int
			switch r := rng.Intn(10); {
			case r < 6 && len(cands) > 0:
				chosen = int(cands[rng.Intn(len(cands))])
			case r < 8:
				chosen = rng.Intn(n)
			case r == 8:
				chosen = -1 - rng.Intn(2)
			default:
				chosen = n + rng.Intn(2)
			}
			q := 1.6*rng.Float64() - 0.3
			wide := make([]int, len(cands))
			for i, c := range cands {
				wide[i] = int(c)
			}
			disclose := rng.Bool(0.7)
			before := fused.Disclosed()
			got := fused.ObserveAllocation(chosen, cands, q, disclose)
			first := fused.Disclosed() != before
			want := twin.ObserveQuality(chosen, wide, q)
			twin.UpdatePreference(chosen, q)
			valid := chosen >= 0 && chosen < n
			wantFirst := disclose && valid && !disclosed[chosen]
			if wantFirst {
				disclosed[chosen] = true
			}
			where := fmt.Sprintf("seed %d step %d: chosen %d of %v, quality %v, disclose %v", seed, step, chosen, cands, q, disclose)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: allocation satisfaction %v, oracle %v", where, got, want)
			}
			if first != wantFirst {
				t.Fatalf("%s: first disclosure %v, want %v", where, first, wantFirst)
			}
			for _, o := range fused.State().Overrides {
				if o.Disclosed != disclosed[int(o.Provider)] {
					t.Fatalf("%s: provider %d flagged %v, want %v", where, o.Provider, o.Disclosed, disclosed[int(o.Provider)])
				}
			}
			if got := fused.Disclosed(); got != len(disclosed) {
				t.Fatalf("%s: Disclosed = %d, want %d", where, got, len(disclosed))
			}
			if gs, ws := fused.State(), twin.State(); !sameConsumerBits(gs, ws) {
				t.Fatalf("%s: state %+v, oracle %+v", where, gs, ws)
			}
		}
	}
}

// sameConsumerBits compares two consumer states with every float by its
// bits.
func sameConsumerBits(a, b ConsumerState) bool {
	if a.N != b.N || len(a.Overrides) != len(b.Overrides) || math.Float64bits(a.Sat) != math.Float64bits(b.Sat) {
		return false
	}
	for k, o := range a.Overrides {
		if o.Provider != b.Overrides[k].Provider || math.Float64bits(o.Pref) != math.Float64bits(b.Overrides[k].Pref) {
			return false
		}
	}
	return true
}

// TestProviderSetStateRejectsHostile feeds SetState provider states no run
// can reach; each must be an error that leaves the provider unchanged.
func TestProviderSetStateRejectsHostile(t *testing.T) {
	const n = 5
	cases := map[string]ProviderState{
		"NaN satisfaction":           {Sat: math.NaN(), N: 2},
		"negative satisfaction":      {Sat: -1, N: 2},
		"negative observation count": {Sat: 0.5, N: -3},
	}
	for name, st := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := newProvider(n, 0.8, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			p.Observe(2)
			before := p.State()
			if err := p.SetState(st); err == nil {
				t.Fatal("hostile provider state accepted")
			}
			if got := p.State(); got != before {
				t.Fatalf("rejected state changed the provider: %+v, want %+v", got, before)
			}
		})
	}
}

// TestOverrideSize pins an override at 16 bytes, a consumer at 48 and a
// provider at 16: the disclosure flag sits in the padding after the
// provider id; a consumer holds its overrides, EMA, observation count and
// disclosure count, and a provider its EMA and observation count, while the
// population size, defaults and memory are the owner's Population, held
// once.
func TestOverrideSize(t *testing.T) {
	if got := unsafe.Sizeof(Override{}); got != 16 {
		t.Fatalf("Override is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Consumer{}); got != 48 {
		t.Fatalf("Consumer is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(Provider{}); got != 16 {
		t.Fatalf("Provider is %d bytes, want 16", got)
	}
}
