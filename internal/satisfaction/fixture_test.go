package satisfaction

// newPrefConsumer builds a consumer with one initial preference per
// provider — the non-uniform intentions the unit tests need, which no
// production caller builds. Every provider gets an override (clamped into
// [0,1]), so it runs the same EMA arithmetic as any consumer.
func newPrefConsumer(prefs []float64, memory float64) (*Consumer, error) {
	c, err := NewUniformConsumer(len(prefs), 0, memory)
	if err != nil {
		return nil, err
	}
	for i, p := range prefs {
		c.overrides = append(c.overrides, Override{Provider: int32(i), Pref: clamp01(p)})
	}
	return c, nil
}

// prefProvider is a provider with one willingness per consumer. Production
// providers are uniformly willing; the fixture folds each request's own
// willingness through the same provider EMA.
type prefProvider struct {
	*Provider
	will []float64
}

func newPrefProvider(will []float64, memory float64) (*prefProvider, error) {
	p, err := NewUniformProvider(len(will), 0, memory)
	if err != nil {
		return nil, err
	}
	out := &prefProvider{Provider: p, will: make([]float64, len(will))}
	for i, w := range will {
		out.will[i] = clamp01(w)
	}
	return out, nil
}

// Willingness returns the fixture's willingness to serve a consumer.
func (p *prefProvider) Willingness(consumer int) float64 {
	if consumer < 0 || consumer >= len(p.will) {
		return 0
	}
	return p.will[consumer]
}

// Observe folds the request's own willingness into the provider's EMA.
func (p *prefProvider) Observe(consumer int) float64 {
	p.def = p.Willingness(consumer)
	return p.Provider.Observe(consumer)
}
