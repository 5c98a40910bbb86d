package satisfaction

// consumer is a Consumer together with the Population its owner would hold,
// so the tests drive one consumer the way an owner of one does.
type consumer struct {
	Consumer
	pop Population
}

// newConsumer builds a consumer with no history over n providers, each
// preferred at pref until experienced.
func newConsumer(n int, pref, memory float64) (*consumer, error) {
	pop, err := NewPopulation(n, pref, 0.8, memory)
	if err != nil {
		return nil, err
	}
	return &consumer{pop: pop}, nil
}

func (c *consumer) ObserveAllocation(chosen int, candidates []int32, quality float64, disclose bool) float64 {
	return c.Consumer.ObserveAllocation(&c.pop, chosen, candidates, quality, disclose)
}

func (c *consumer) ObserveFailure() { c.Consumer.ObserveFailure(&c.pop) }

func (c *consumer) SetState(st ConsumerState) error { return c.Consumer.SetState(st, &c.pop) }

// newPrefConsumer builds a consumer with one initial preference per
// provider — the non-uniform intentions the unit tests need, which no
// production caller builds. Every provider gets an override (clamped into
// [0,1]), so it runs the same EMA arithmetic as any consumer.
func newPrefConsumer(prefs []float64, memory float64) (*consumer, error) {
	c, err := newConsumer(len(prefs), 0, memory)
	if err != nil {
		return nil, err
	}
	for i, p := range prefs {
		c.overrides = append(c.overrides, Override{Provider: int32(i), Pref: clamp01(p)})
	}
	return c, nil
}

// provider is a Provider together with its owner's Population.
type provider struct {
	Provider
	pop Population
}

// newProvider builds a provider with no history, willing to serve each of n
// consumers at will.
func newProvider(n int, will, memory float64) (*provider, error) {
	pop, err := NewPopulation(n, 0.5, will, memory)
	if err != nil {
		return nil, err
	}
	return &provider{pop: pop}, nil
}

func (p *provider) Observe(consumer int) float64 { return p.Provider.Observe(&p.pop, consumer) }

// Willingness returns the provider's willingness to serve a consumer.
func (p *provider) Willingness(consumer int) float64 { return p.pop.Willingness(consumer) }

// prefProvider is a provider with one willingness per consumer. Production
// providers are uniformly willing; the fixture folds each request's own
// willingness through the same provider EMA.
type prefProvider struct {
	*provider
	will []float64
}

func newPrefProvider(will []float64, memory float64) (*prefProvider, error) {
	p, err := newProvider(len(will), 0, memory)
	if err != nil {
		return nil, err
	}
	out := &prefProvider{provider: p, will: make([]float64, len(will))}
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
	p.pop.Will = p.Willingness(consumer)
	return p.provider.Observe(consumer)
}
