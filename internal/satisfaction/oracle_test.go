package satisfaction

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

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

// state is the oracle's part of a ConsumerState: the sparse fields.
func (r *refOverrides) state() ConsumerState {
	st := ConsumerState{Pop: r.pop, Def: r.def}
	for k, v := range r.overrides {
		st.Overrides = append(st.Overrides, Override{Provider: k, Pref: v})
	}
	slices.SortFunc(st.Overrides, func(a, b Override) int { return cmp.Compare(a.Provider, b.Provider) })
	return st
}

func (r *refOverrides) setState(st ConsumerState) {
	r.def = st.Def
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
		c, err := NewUniformConsumer(n, def, 0.15)
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
			got.Sat, got.Started, got.N = 0, false, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: State = %+v, want %+v", where, got, want)
			}
		}
	}
}

// TestConsumerPreferenceAllocFree pins the interaction-path preference
// operations at zero allocations: reading a preference (override or
// default) and re-folding a quality into an existing override.
func TestConsumerPreferenceAllocFree(t *testing.T) {
	c, err := NewUniformConsumer(100, 0.5, 0.1)
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
}

// TestConsumerSetStateRejectsHostile feeds SetState preferences no consumer
// can hold; each must be an error that leaves the consumer unchanged.
func TestConsumerSetStateRejectsHostile(t *testing.T) {
	const n = 5
	sparse := func(def float64, ov ...Override) ConsumerState {
		return ConsumerState{Pop: n, Def: def, Overrides: ov}
	}
	dense := func(prefs ...float64) ConsumerState {
		st := ConsumerState{Pop: n}
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
		{"override provider at pop", false, sparse(0.5, Override{n, 0.4})},
		{"negative override provider", false, sparse(0.5, Override{-1, 0.4})},
		{"NaN default", false, sparse(math.NaN())},
		{"default above one", false, sparse(1.5)},
		{"NaN override", false, sparse(0.5, Override{2, math.NaN()})},
		{"infinite override", false, sparse(0.5, Override{2, math.Inf(1)})},
		{"negative override", false, sparse(0.5, Override{2, -0.1})},
		{"overrides descending", false, sparse(0.5, Override{3, 0.4}, Override{2, 0.4})},
		{"override duplicated", false, sparse(0.5, Override{2, 0.4}, Override{2, 0.6})},
		{"NaN dense preference", true, dense(0.5, math.NaN(), 0.5, 0.5, 0.5)},
		{"dense preference above one", true, dense(0.5, 0.5, 2, 0.5, 0.5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c *Consumer
			var err error
			if tc.dense {
				c, err = newPrefConsumer([]float64{0.5, 0.5, 0.5, 0.5, 0.5}, 0.1)
			} else {
				c, err = NewUniformConsumer(n, 0.5, 0.1)
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
