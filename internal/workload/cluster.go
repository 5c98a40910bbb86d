package workload

import (
	"repro/internal/reputation"
	"repro/internal/sim"
)

// The cluster seam: the scatter phase of the round pipeline can be executed
// by an external executor — the master/worker cluster layer — because it
// reads only round-immutable state (scores, graph, behaviours, membership,
// honesty override) plus each plan's private RNG stream, and every mutation
// is deferred to the sequential gather. The wire types below carry exactly
// that: a plan is (consumer, RNG state), an outcome is the full
// interactionResult. A worker holding a replica of the engine synced to the
// same mutation generation produces bit-for-bit the outcomes the local
// scatter would have, so delegation never perturbs results.

// PlannedInteraction is the wire form of one scheduled interaction: the
// consumer plus the exact state of the private stream its simulation will
// consume. Copying the stream state (rather than re-deriving it) is what
// keeps remote simulation bit-identical to local.
type PlannedInteraction struct {
	Consumer int
	RNG      sim.RNGState
}

// InteractionOutcome is the wire form of one simulated interaction result:
// interactionResult with its consumer, its status as flags, and its
// candidate set (empty unless a provider was chosen).
type InteractionOutcome struct {
	Consumer   int
	Provider   int // -1 when no provider was found
	Absent     bool
	GateFailed bool
	Candidates []int
	Refused    bool
	Quality    float64
	Rating     float64
}

// ScatterDelegate executes a round's scatter phase externally. It receives
// the full plan list and the round-scoped inputs (scores, gate, active pool,
// round index) and returns one outcome per plan, in plan order. It returns
// ok=false to decline — no workers registered, say — in which case the
// engine scatters locally. A delegate MUST be bit-exact: outcomes must be
// exactly what SimulateChunk on an in-sync replica produces.
type ScatterDelegate func(plans []PlannedInteraction, scores []float64, gate float64, pool []int, round int) (outcomes []InteractionOutcome, ok bool)

// SetScatterDelegate installs (or, with nil, removes) the external scatter
// executor.
func (e *Engine) SetScatterDelegate(fn ScatterDelegate) { e.scatterDelegate = fn }

// SetReportObserver installs (or, with nil, removes) a callback that sees
// every report batch the engine delivers to its mechanism (round flushes and
// external submissions alike, after the mechanism accepted them). The cluster
// master uses it to mirror mechanism feedback onto worker replicas. The
// callback must not retain the slice and must not mutate the engine.
func (e *Engine) SetReportObserver(fn func([]reputation.Report)) { e.reportObserver = fn }

// MutationGen returns the engine's mutation generation: a counter bumped by
// every out-of-round mutation of simulate-visible state other than the
// honesty override (membership, behaviour classes, whitewashes, state
// restores). A replica synced at generation g needs a fresh snapshot iff the
// master's generation has moved past g; report flow is mirrored separately
// via the report observer and does not bump the generation.
func (e *Engine) MutationGen() uint64 { return e.mutationGen }

// HonestyGen returns the engine's honesty generation: a counter bumped by
// every change of the honesty override (SetHonesty, SetHonestOverride). A
// replica current on MutationGen but behind on HonestyGen catches up by
// installing HonestOverride; a full snapshot carries the override, so a
// resync covers both generations.
func (e *Engine) HonestyGen() uint64 { return e.honestyGen }

// NoteMutation records an out-of-round mutation of simulate-visible state
// performed outside the engine's own setters (e.g. a whitewash resetting
// mechanism rows through the facade).
func (e *Engine) NoteMutation() { e.mutationGen++ }

// SimulateChunk simulates a contiguous chunk of a round's plans against the
// engine's current state — the worker-side half of a delegated scatter (and
// the master's local fallback for a chunk whose worker died). It fans the
// chunk over the engine's shards exactly like the local scatter phase, and
// reads only round-immutable state, so outcomes are bit-identical wherever
// the chunk runs. It may run while the engine's own round is scattering, so
// it simulates into buffers of its own, never the engine's round buffers. A
// plan's stream is a fresh split, so only its State word is read; a
// consumer outside the population makes the request absent.
func (e *Engine) SimulateChunk(plans []PlannedInteraction, scores []float64, gate float64, pool []int, round int) []InteractionOutcome {
	n, cs := len(plans), e.cfg.CandidateSize
	ip := make([]interactionPlan, n)
	for k := range plans {
		c := plans[k].Consumer
		if c < 0 || c >= e.cfg.NumPeers {
			c = -1
		}
		ip[k] = interactionPlan{stream: plans[k].RNG.State, consumer: int32(c)}
	}
	results := make([]interactionResult, n)
	cands := make([]int32, n*cs)
	in := roundInputs{scores: scores, gate: gate, pool: pool, round: round}
	chunks := make([]chunkScratch, e.shards)
	per := sim.ChunkLen(e.shards, n)
	sim.ForChunks(e.shards, n, func(lo, hi int) {
		e.simulateRange(ip, results, cands, &in, &chunks[lo/per], lo, hi)
	})
	out := make([]InteractionOutcome, n)
	wide := make([]int, 0, n*cs) // one store all the outcomes' candidate sets are carved from
	for k := range results {
		out[k], wide = exportOutcome(plans[k].Consumer, &results[k], cands[k*cs:(k+1)*cs], wide)
	}
	return out
}

// exportPlans converts a round's plans to their wire form.
func exportPlans(plans []interactionPlan) []PlannedInteraction {
	out := make([]PlannedInteraction, len(plans))
	for k := range plans {
		out[k] = PlannedInteraction{Consumer: int(plans[k].consumer), RNG: sim.RNGState{State: plans[k].stream}}
	}
	return out
}

// exportOutcome converts one result, with its candidate slot, to its wire
// form, carving the candidate set from the end of store, which it returns
// extended.
func exportOutcome(consumer int, r *interactionResult, slot []int32, store []int) (InteractionOutcome, []int) {
	o := InteractionOutcome{
		Consumer:   consumer,
		Provider:   int(r.provider),
		Absent:     r.status == absent,
		GateFailed: r.status == gateFailed,
		Refused:    r.status == refused,
		Quality:    r.quality,
		Rating:     r.rating,
	}
	if r.status == served || r.status == refused {
		start := len(store)
		for _, c := range candidateSet(slot) {
			store = append(store, int(c))
		}
		o.Candidates = store[start:len(store):len(store)]
	}
	return o, store
}

// importOutcome converts one wire outcome to a result, writing its
// candidates to slot (at most CandidateSize of them).
func importOutcome(o *InteractionOutcome, slot []int32) interactionResult {
	r := interactionResult{provider: int32(o.Provider), quality: o.Quality, rating: o.Rating}
	switch {
	case o.Absent:
		r.status = absent
	case o.GateFailed:
		r.status = gateFailed
	case o.Provider < 0:
		r.status = noProvider
	case o.Refused:
		r.status = refused
	default:
		r.status = served
	}
	n := min(len(o.Candidates), len(slot))
	for i, c := range o.Candidates[:n] {
		slot[i] = int32(c)
	}
	if n < len(slot) {
		slot[n] = -1
	}
	return r
}
