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

// InteractionOutcome is the wire form of one simulated interaction result,
// mirroring interactionResult field for field.
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
// every change of the honesty override (SetHonestOverride,
// ApplyHonestyDelta). A replica current on MutationGen but behind on
// HonestyGen catches up by installing HonestOverride; a full snapshot
// carries the override, so a resync covers both generations.
func (e *Engine) HonestyGen() uint64 { return e.honestyGen }

// HonestOverride returns the installed honesty override (nil when none).
// The slice is the engine's own: callers must not modify or retain it.
func (e *Engine) HonestOverride() []float64 { return e.honestOverride }

// NoteMutation records an out-of-round mutation of simulate-visible state
// performed outside the engine's own setters (e.g. a whitewash resetting
// mechanism rows through the facade).
func (e *Engine) NoteMutation() { e.mutationGen++ }

// SimulateChunk simulates a contiguous chunk of a round's plans against the
// engine's current state — the worker-side half of a delegated scatter (and
// the master's local fallback for a chunk whose worker died). It fans the
// chunk over the engine's shards exactly like the local scatter phase, and
// reads only round-immutable state, so outcomes are bit-identical wherever
// the chunk runs.
func (e *Engine) SimulateChunk(plans []PlannedInteraction, scores []float64, gate float64, pool []int, round int) []InteractionOutcome {
	ip := make([]interactionPlan, len(plans))
	for k := range plans {
		ip[k].consumer = plans[k].Consumer
		ip[k].rng.SetState(plans[k].RNG)
	}
	results := make([]interactionResult, len(ip))
	sim.ForChunks(e.shards, len(ip), func(lo, hi int) {
		sc := e.newChunkScratch(hi - lo)
		for k := lo; k < hi; k++ {
			results[k] = e.simulate(&ip[k], scores, gate, pool, round, &sc)
		}
	})
	out := make([]InteractionOutcome, len(results))
	for k := range results {
		out[k] = exportOutcome(&results[k])
	}
	return out
}

// exportPlans converts a round's plans to their wire form.
func exportPlans(plans []interactionPlan) []PlannedInteraction {
	out := make([]PlannedInteraction, len(plans))
	for k := range plans {
		out[k] = PlannedInteraction{Consumer: plans[k].consumer, RNG: plans[k].rng.State()}
	}
	return out
}

func exportOutcome(r *interactionResult) InteractionOutcome {
	return InteractionOutcome{
		Consumer:   r.consumer,
		Provider:   r.provider,
		Absent:     r.absent,
		GateFailed: r.gateFailed,
		Candidates: r.candidates,
		Refused:    r.refused,
		Quality:    r.quality,
		Rating:     r.rating,
	}
}

func importOutcome(o *InteractionOutcome) interactionResult {
	return interactionResult{
		consumer:   o.Consumer,
		provider:   o.Provider,
		absent:     o.Absent,
		gateFailed: o.GateFailed,
		candidates: o.Candidates,
		refused:    o.Refused,
		quality:    o.Quality,
		rating:     o.Rating,
	}
}
