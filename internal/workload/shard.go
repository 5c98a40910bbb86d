package workload

import (
	"slices"

	"repro/internal/adversary"
	"repro/internal/reputation"
	"repro/internal/sim"
)

// The sharded round pipeline.
//
// A round is executed in three phases so that interaction simulation can run
// on K parallel shards while every observable result stays bit-for-bit
// identical for every K:
//
//  1. plan (sequential): the main RNG stream draws each interaction's
//     consumer and splits off a private per-interaction stream. The split
//     sequence depends only on the interaction index, never on shard
//     boundaries.
//  2. scatter (parallel): shards own contiguous chunks of the interaction
//     index range and simulate each interaction — candidate sampling,
//     gating, provider selection, service and rating draws — using only the
//     interaction's private stream and state that is immutable for the
//     round (scores, graph, behaviours, honesty override).
//  3. gather (sequential): results merge into the shared mutable state
//     (ground-truth tallies, satisfaction EMAs, privacy record, gatherer →
//     mechanism) in interaction-index order, so transaction ids, EMA folds
//     and the gatherer's disclosure draws are canonical.

// interactionPlan is one scheduled request: the consumer plus the private
// RNG stream its simulation will consume. The stream is a fresh split,
// which holds no spare Gaussian, so its whole position is one word.
type interactionPlan struct {
	stream   uint64
	consumer int32
}

// outcome is what became of one planned interaction.
type outcome uint8

const (
	served     outcome = iota // the provider served; quality and rating are set
	refused                   // the provider declined
	gateFailed                // the trust gate left no eligible candidate
	noProvider                // no candidate could be chosen
	absent                    // the consumer is not present: the request is dropped
)

// interactionResult is the outcome of simulating one planned interaction
// against the round-immutable state. Its consumer is its plan's, and its
// candidate set lies in its slot of the round's candidate store (see
// candidatesOf).
type interactionResult struct {
	quality  float64
	rating   float64
	provider int32 // -1 when no provider was chosen
	status   outcome
}

// roundInputs are the round-immutable inputs every simulation reads.
type roundInputs struct {
	scores []float64
	gate   float64 // -1 when ungated
	pool   []int   // nil when everyone is present
	round  int
}

// chunkScratch holds one scatter chunk's simulation buffers, so simulating
// an interaction allocates nothing of its own.
type chunkScratch struct {
	rng  sim.RNG // the stream of the interaction being simulated
	perm []int   // friend permutation, reused for every interaction
}

// The round buffers. The engine keeps one plan, one result and one
// candidate slot of CandidateSize ids per interaction, plus one chunkScratch
// per scatter chunk, and reuses them every round: a steady-state plan and
// scatter allocate nothing. Between rounds the plan, result and candidate
// buffers are empty, so none of them is engine state.

// planRound draws the round's interaction schedule from the main stream
// into the engine's plan buffer. Consumers come from the active-peer index
// when churn has thinned the population (nil pool = everyone present =
// uniform over 0..n, identical draws to index-free planning). The Zipf
// activity path keeps mapping over the full id range — its skew is a
// property of peer identity, so absent heavy hitters simply drop their
// requests in simulate.
func (e *Engine) planRound(pool []int) {
	n := e.cfg.InteractionsPerRound
	e.plans = slices.Grow(e.plans[:0], n)[:n]
	for k := range e.plans {
		var consumer int
		switch {
		case e.activity != nil:
			consumer = e.activityOrder[e.activity.Next()]
		case len(pool) > 0:
			consumer = pool[e.rng.Intn(len(pool))]
		default:
			consumer = e.rng.Intn(e.cfg.NumPeers)
		}
		e.plans[k] = interactionPlan{stream: e.rng.Split().State().State, consumer: int32(consumer)}
	}
}

// scatter simulates every planned interaction into the engine's result and
// candidate buffers, fanning the index range out over the engine's shards —
// or, when a scatter delegate is installed and accepts, handing the whole
// phase to the external executor (the cluster master). The delegate
// contract (see cluster.go) makes the two paths bit-identical.
func (e *Engine) scatter(in roundInputs) {
	n, cs := len(e.plans), e.cfg.CandidateSize
	e.results = slices.Grow(e.results[:0], n)[:n]
	e.cands = slices.Grow(e.cands[:0], n*cs)[:n*cs]
	if e.scatterDelegate != nil {
		if out, ok := e.scatterDelegate(exportPlans(e.plans), in.scores, in.gate, in.pool, in.round); ok && len(out) == n {
			for k := range out {
				e.results[k] = importOutcome(&out[k], e.cands[k*cs:(k+1)*cs])
			}
			return
		}
	}
	if len(e.chunks) < e.shards {
		e.chunks = append(e.chunks, make([]chunkScratch, e.shards-len(e.chunks))...)
	}
	e.in = in
	sim.ForChunks(e.shards, n, e.scatterChunk)
	e.in = roundInputs{}
}

// newScatterChunk builds the body of the local scatter: simulate the
// engine's plans [lo, hi) with that chunk's scratch. NewEngine builds it
// once, so a round hands ForChunks no new function value.
func (e *Engine) newScatterChunk() func(lo, hi int) {
	return func(lo, hi int) {
		sc := &e.chunks[lo/sim.ChunkLen(e.shards, len(e.plans))]
		e.simulateRange(e.plans, e.results, e.cands, &e.in, sc, lo, hi)
	}
}

// simulateRange simulates plans [lo, hi) into results and the matching
// CandidateSize-id slots of cands, with one chunk's scratch.
func (e *Engine) simulateRange(plans []interactionPlan, results []interactionResult, cands []int32, in *roundInputs, sc *chunkScratch, lo, hi int) {
	cs := e.cfg.CandidateSize
	for k := lo; k < hi; k++ {
		results[k] = e.simulate(plans[k], in, cands[k*cs:(k+1)*cs], sc)
	}
}

// candidatesOf returns interaction k's candidate set: its slot of the
// round's candidate store, up to the -1 that ends a set shorter than
// CandidateSize.
func (e *Engine) candidatesOf(k int) []int32 {
	cs := e.cfg.CandidateSize
	return candidateSet(e.cands[k*cs : (k+1)*cs])
}

// candidateSet trims a candidate slot at its first -1.
func candidateSet(slot []int32) []int32 {
	for i, c := range slot {
		if c < 0 {
			return slot[:i]
		}
	}
	return slot
}

// simulate runs one interaction against round-immutable state. It must not
// touch any state shared across interactions: all randomness comes from the
// plan's private stream, and every mutation is deferred to gather. The round
// index comes in with the inputs (rather than off the engine) so a worker
// replica can simulate the master's round without advancing its own clock.
// The candidate set is written to slot, which holds CandidateSize ids; sc is
// scratch owned by the calling chunk.
func (e *Engine) simulate(p interactionPlan, in *roundInputs, slot []int32, sc *chunkScratch) interactionResult {
	r := interactionResult{provider: -1}
	consumer := int(p.consumer)
	if !e.PeerActive(consumer) {
		r.status = absent
		return r
	}
	sc.rng.SetState(sim.RNGState{State: p.stream})
	rng := &sc.rng
	candidates := e.sampleCandidates(rng, consumer, in.pool, slot[:0], &sc.perm)
	if in.gate >= 0 {
		eligible := candidates[:0]
		for _, c := range candidates {
			if in.scores[c] >= in.gate {
				eligible = append(eligible, c)
			}
		}
		if len(eligible) == 0 {
			r.status = gateFailed
			return r
		}
		candidates = eligible
	}
	var provider int
	switch e.cfg.Selection {
	case SelectProportional:
		provider = reputation.SelectProportional(rng, in.scores, candidates)
	default:
		provider = reputation.SelectBest(rng, in.scores, candidates)
	}
	if provider < 0 {
		r.status = noProvider
		return r
	}
	if len(candidates) < len(slot) {
		slot[len(candidates)] = -1
	}
	r.provider = int32(provider)
	class := e.classes[provider]
	if !adversary.Serves(class, rng) {
		r.status = refused
		return r
	}
	r.status = served
	r.quality = adversary.ServiceQuality(class, rng, in.round)
	r.rating = e.rate(rng, consumer, provider, r.quality)
	return r
}

// gather merges the round's results into the shared state in canonical
// (interaction-index) order.
func (e *Engine) gather(st *RoundStats) {
	for k := range e.results {
		r := &e.results[k]
		consumer := int(e.plans[k].consumer)
		switch r.status {
		case absent:
			continue
		case gateFailed:
			e.GateFailures++
			fallthrough
		case noProvider:
			e.consumers[consumer].ObserveFailure(&e.pop)
			e.satDirty.Mark(consumer)
			continue
		}
		provider := int(r.provider)
		st.Interactions++
		tx := e.snet.NextTxID()

		// The provider judges the (possibly imposed) request against its
		// own intentions. Its observation count is its served count, which
		// grows the served set on the first.
		pr := &e.providers[provider]
		pr.Observe(&e.pop, consumer)
		if pr.Observations() == 1 {
			e.servedStale = true
		}
		e.satDirty.Mark(provider)
		e.satDirty.Mark(consumer)

		// The consumer judges the allocation against its intentions and the
		// quality it actually received (none, when refused), and folds that
		// quality into its preference for the provider.
		if r.status == refused {
			st.BadService++
			st.Refused++
			e.consumers[consumer].ObserveAllocation(&e.pop, provider, e.candidatesOf(k), 0, false)
			e.offerReport(tx, consumer, provider, 0)
			continue
		}
		// Being served discloses the consumer's profile to the provider; the
		// consumer's override for the provider flags it.
		e.consumers[consumer].ObserveAllocation(&e.pop, provider, e.candidatesOf(k), r.quality, true)
		e.disclosures++
		e.privDirty.Mark(consumer)
		if r.quality < 0.5 {
			st.BadService++
		}
		e.qualSum[provider] += r.quality
		e.offerReport(tx, consumer, provider, r.rating)
	}
}
