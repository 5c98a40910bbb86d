package trustnet

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Summary aggregates scenario-level metrics of an engine run.
type Summary = workload.Summary

// RoundStats summarizes one interaction round.
type RoundStats = workload.RoundStats

// EpochStats records the coupled system's state after one §3 epoch.
type EpochStats = core.EpochStats

// Engine is the assembled three-facet trust system: a scenario (population,
// friendship graph, behaviour mix), a pluggable reputation mechanism, the
// privacy record, and the per-user trust model, driven either round by
// round (RunRounds) or through the §3 coupling epochs (Run).
//
// An Engine is not safe for concurrent mutation. AssessAll is a pure read
// that runs serially and checks its context before each user.
type Engine struct {
	mech Mechanism
	dyn  *core.Dynamics
}

// Peers returns the population size.
func (e *Engine) Peers() int { return e.dyn.Engine().Network().N() }

// Shards returns the number of parallel shards the epoch pipeline scatters
// work over (Scenario.Shards; 1 when unset).
func (e *Engine) Shards() int { return e.dyn.Engine().Shards() }

// Mechanism returns the plugged-in reputation mechanism.
func (e *Engine) Mechanism() Mechanism { return e.mech }

// Classes returns the current ground-truth behaviour class per peer (the
// scenario's assignment, as modified by any BehaviorChange interventions).
func (e *Engine) Classes() []Class { return e.dyn.Engine().Classes() }

// ActivePeers returns how many peers are currently present in the network
// (the population size minus users removed by LeaveWave interventions).
func (e *Engine) ActivePeers() int { return e.dyn.Engine().ActivePeers() }

// Ledger returns a read-only view of the disclosure count accounting every
// information flow of the scenario.
func (e *Engine) Ledger() LedgerView { return LedgerView{e.dyn.Engine()} }

// RunRounds executes n interaction rounds without touching the coupling
// state — the single-mechanism evaluation mode of the §2 experiments.
// Before the first epoch the rounds run on the scenario's base disclosure
// and behaviour-class honesty, coupled or not. After an Epoch they run on
// the per-user disclosure and honesty its coupling pass wrote into the
// engine, the values the next epoch would use.
func (e *Engine) RunRounds(n int) {
	e.dyn.Engine().Run(n)
}

// Epoch runs one §3 coupling epoch: the workload runs, the facets are
// measured, every user's trust updates, and — when coupling is enabled —
// trust feeds back into disclosure and honesty for the next epoch. It is a
// single-step Session.
func (e *Engine) Epoch() (EpochStats, error) {
	s, err := e.Session(context.Background(), WithMaxEpochs(1))
	if err != nil {
		return EpochStats{}, err
	}
	return s.Next()
}

// Run drives the coupled dynamics for the given number of epochs,
// honouring ctx between epochs. It returns the full epoch history
// recorded so far (including epochs from earlier Run/Epoch calls).
// A negative epoch count is an error, not a silent no-op.
//
// Run is the batch wrapper over Session; use Session directly to stream
// epochs, register observers, schedule interventions, or checkpoint.
func (e *Engine) Run(ctx context.Context, epochs int) ([]EpochStats, error) {
	if epochs < 0 {
		return e.History(), fmt.Errorf("trustnet: epoch count must be >= 0, got %d", epochs)
	}
	s, err := e.Session(ctx, WithMaxEpochs(epochs))
	if err != nil {
		return e.History(), err
	}
	for _, err := range s.Epochs() {
		if err != nil {
			return e.History(), err
		}
	}
	return e.History(), nil
}

// EpochIndex returns the index the next epoch will run as (equivalently,
// the number of completed coupling epochs).
func (e *Engine) EpochIndex() int { return e.dyn.EpochIndex() }

// SubmitReports feeds externally submitted feedback reports into the
// reputation mechanism, in order. Unlike in-simulation feedback, external
// reports bypass the disclosure-limited gatherer (submitting through the
// API is an explicit disclosure, so no random stream is consumed) and are
// assigned transaction ids from the engine's snapshotted counter. Reports
// are validated up front; nothing is applied unless all pass, so a bad
// batch never half-applies.
//
// Determinism contract: a run that applies the same reports in the same
// order at the same epoch boundaries — whether through a served daemon's
// queue or a scheduled ReportWave — produces bit-identical state.
func (e *Engine) SubmitReports(reports ...Report) error {
	for i, r := range reports {
		if err := r.ValidateExternal(e.Peers()); err != nil {
			return fmt.Errorf("trustnet: report %d: %w", i, err)
		}
	}
	for _, r := range reports {
		if err := e.WorkloadEngine().SubmitExternalReport(r.Rater, r.Ratee, r.Value); err != nil {
			return fmt.Errorf("trustnet: %w", err)
		}
	}
	return nil
}

// History returns a copy of the recorded coupling epochs; mutating it never
// corrupts the engine's record.
func (e *Engine) History() []EpochStats { return e.dyn.History() }

// Summary computes the scenario-level metrics so far. It is a pure read:
// Tau ranks the scores as of the mechanism's last Compute — every epoch
// ends with one — and calling it never changes the run.
func (e *Engine) Summary() Summary { return e.dyn.Engine().Summarize() }

// SharedReports returns how many feedback reports peers actually disclosed
// to the reputation layer.
func (e *Engine) SharedReports() int64 { return e.dyn.Engine().Gatherer().Gathered }

// GlobalTrust returns the system-level trust: the mean over users.
func (e *Engine) GlobalTrust() float64 { return e.dyn.TrustModel().GlobalTrust() }

// SystemTrusted reports whether the q-quantile of user trust reaches the
// threshold — i.e. at least (1−q) of users trust the system at `threshold`
// or more.
func (e *Engine) SystemTrusted(threshold, q float64) bool {
	return e.dyn.TrustModel().SystemTrusted(threshold, q)
}

// WorkloadEngine exposes the engine's underlying workload engine. Its
// readers are perfbench's interaction counter, which reads
// CumulativeStats around each measured epoch, and the cluster layer
// (internal/cluster), whose master and workers attach their delegates
// there. It is not a general-purpose escape hatch: mutating the workload
// engine directly bypasses the facade's epoch-boundary read/write
// concordance.
func (e *Engine) WorkloadEngine() *workload.Engine { return e.dyn.Engine() }

// SetDenseReference switches the epoch tail into its dense reference mode:
// every user's trust and coupling cells are recomputed every epoch, with no
// settled-set or dirty-set skips. The results are bit-identical to the
// default sparse mode — golden tests and benchmarks use this to prove (and
// price) that equivalence.
func (e *Engine) SetDenseReference(on bool) { e.dyn.SetDenseReference(on) }
