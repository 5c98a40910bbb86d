package workload

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/reputation"
	"repro/internal/satisfaction"
	"repro/internal/sim"
	"repro/internal/social"
)

// EngineState is the serializable mutable state of a workload Engine. It
// captures every random-stream position and every piece of state a round can
// touch, so that a restored engine continues bit-for-bit identically to one
// that never stopped — at any shard count, since shards are a scheduling
// decomposition only and are deliberately not part of the state.
//
// Scenario structure (population size, friendship graph, activity order,
// behaviour parameters) is NOT serialized: a snapshot is restored into an
// engine rebuilt from the identical configuration, which regenerates that
// structure deterministically from the seed.
type EngineState struct {
	// RNG is the main planning stream; Activity is the Zipf consumer-draw
	// stream (nil when the scenario has no activity skew).
	RNG      sim.RNGState
	Activity *sim.RNGState
	Gatherer reputation.GathererState
	// MechName guards against restoring into an engine with a different
	// mechanism; Mechanism is the mechanism's own opaque state blob.
	MechName  string
	Mechanism []byte
	Network   social.NetworkState
	Consumers []satisfaction.ConsumerState
	Providers []satisfaction.ProviderState
	// Classes is the current behaviour class per peer (intervention swaps
	// change it); behaviours are rebuilt from it on restore.
	Classes        []adversary.Class
	Active         []bool
	HonestOverride []float64
	// Rounds is the log of every completed round, Rounds[k] the k-th: the
	// round counter is its length and the cumulative totals are its sum.
	Rounds       []RoundStats
	GateFailures int64
	FakeReports  int64
	ComputeIters int64
	// QualSum is each provider's sum of delivered qualities; the served
	// count it is bounded by is the provider's observation count.
	QualSum []float64
	// SatDirty lists the users whose satisfaction state was touched since the
	// last epoch measurement consumed the dirty set (ascending). Normally
	// empty at snapshot time (epoch boundaries reset it), it is captured so a
	// mid-epoch snapshot — or future callers with other cadences — resumes
	// with identical dirty-set accounting.
	SatDirty  []int
	TrustGate float64
	// The privacy record: Disclosures counts the accounted flows, Feedback
	// lists every user with a nonzero feedback exposure (ascending by
	// peer), and PrivacyDirty lists the users touched since the last facet
	// refresh (ascending), which the epoch tail's DirtyFacets accounting
	// needs on a resumed run. The profile's recipients are the consumers'
	// override flags. LedgerScale is the exposure normalization scale the
	// facet is read at.
	Disclosures  int64
	Feedback     []FeedbackSum
	PrivacyDirty []int
	LedgerScale  float64
}

// FeedbackSum is one user's feedback exposure: the running sum of one
// report term per report the user shared.
type FeedbackSum struct {
	Peer int
	Sum  float64
}

// State captures the engine's mutable state.
func (e *Engine) State() (EngineState, error) {
	blob, err := e.mech.MechanismState()
	if err != nil {
		return EngineState{}, err
	}
	st := EngineState{
		RNG:            e.rng.State(),
		Gatherer:       e.gatherer.State(),
		MechName:       e.mech.Name(),
		Mechanism:      blob,
		Network:        e.snet.State(),
		Consumers:      make([]satisfaction.ConsumerState, len(e.consumers)),
		Providers:      make([]satisfaction.ProviderState, len(e.providers)),
		Classes:        append([]adversary.Class(nil), e.classes...),
		Active:         append([]bool(nil), e.active...),
		HonestOverride: append([]float64(nil), e.honestOverride...),
		Rounds:         append([]RoundStats(nil), e.rounds...),
		GateFailures:   e.GateFailures,
		FakeReports:    e.FakeReports,
		ComputeIters:   e.computeIters,
		QualSum:        append([]float64(nil), e.qualSum...),
		SatDirty:       append([]int(nil), e.satDirty.Sorted()...),
		TrustGate:      e.cfg.TrustGate,
		Disclosures:    e.disclosures,
		PrivacyDirty:   append([]int(nil), e.privDirty.Sorted()...),
		LedgerScale:    e.ledgerScale,
	}
	for u, sum := range e.feedback {
		if sum != 0 {
			st.Feedback = append(st.Feedback, FeedbackSum{Peer: u, Sum: sum})
		}
	}
	if e.activity != nil {
		ast := e.activity.Stream().State()
		st.Activity = &ast
	}
	for i := range e.consumers {
		st.Consumers[i] = e.consumers[i].State()
	}
	for i := range e.providers {
		st.Providers[i] = e.providers[i].State()
	}
	return st, nil
}

// Restore overwrites the engine's mutable state with a captured one. The
// engine must have been built from the identical configuration (same seed,
// peers, graph, mechanism, behaviour mix); shard count is free to differ.
// Every check runs before the first write, so a rejected state leaves the
// engine as it was.
func (e *Engine) Restore(st EngineState) error {
	n := e.cfg.NumPeers
	if st.MechName != e.mech.Name() {
		return fmt.Errorf("workload: snapshot is for mechanism %q, engine runs %q", st.MechName, e.mech.Name())
	}
	if len(st.Consumers) != n || len(st.Providers) != n || len(st.Classes) != n || len(st.QualSum) != n {
		return fmt.Errorf("workload: snapshot population does not match %d peers", n)
	}
	if len(st.Active) != 0 && len(st.Active) != n {
		return fmt.Errorf("workload: snapshot active set has %d entries, want %d", len(st.Active), n)
	}
	if err := checkUnitVector("snapshot gatherer disclosure", st.Gatherer.Disclosure, n); err != nil {
		return err
	}
	if len(st.HonestOverride) != 0 {
		if err := checkUnitVector("snapshot honesty override", st.HonestOverride, n); err != nil {
			return err
		}
	}
	if (st.Activity != nil) != (e.activity != nil) {
		return fmt.Errorf("workload: snapshot activity-skew state does not match scenario")
	}
	if err := st.RNG.Check(); err != nil {
		return fmt.Errorf("workload: snapshot stream: %w", err)
	}
	if st.Activity != nil {
		if err := st.Activity.Check(); err != nil {
			return fmt.Errorf("workload: snapshot activity stream: %w", err)
		}
	}
	if !(0 <= st.TrustGate && st.TrustGate < 1) {
		return fmt.Errorf("workload: snapshot trust gate %v out of [0,1)", st.TrustGate)
	}
	if !(0 < st.LedgerScale && st.LedgerScale <= math.MaxFloat64) {
		return fmt.Errorf("workload: snapshot exposure scale %v is not positive and finite", st.LedgerScale)
	}
	if err := checkRounds(st.Rounds); err != nil {
		return err
	}
	gatherer, err := reputation.RestoreGatherer(st.Gatherer)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	for i := range e.consumers {
		if err := e.consumers[i].CheckState(st.Consumers[i], &e.pop); err != nil {
			return fmt.Errorf("workload: peer %d: %w", i, err)
		}
		if err := e.providers[i].CheckState(st.Providers[i]); err != nil {
			return fmt.Errorf("workload: peer %d: %w", i, err)
		}
		// The provider's observation count is its served count, and the
		// quality sum adds one quality in [0, 1] per served interaction.
		// Every partial sum stays at or below its count, an exactly
		// representable integer, so rounding never carries it past.
		if q, c := st.QualSum[i], st.Providers[i].N; !(q >= 0 && q <= float64(c)) {
			return fmt.Errorf("workload: snapshot quality sum %v of provider %d is outside [0,%d]", q, i, c)
		}
	}
	for id, c := range st.Classes {
		if !c.Valid() {
			return fmt.Errorf("workload: snapshot peer %d has unknown behaviour class %d", id, int(c))
		}
	}
	if err := checkIDs("satisfaction dirty mark", st.SatDirty, n); err != nil {
		return err
	}
	if err := checkPrivacy(st); err != nil {
		return err
	}
	// The mechanism blob goes last: its restore is the one fallible write,
	// and it leaves the mechanism unchanged when it fails.
	if err := e.mech.RestoreMechanismState(st.Mechanism); err != nil {
		return err
	}

	// Every check has passed, so nothing below can fail.
	e.snet.SetState(st.Network)
	for i := range e.consumers {
		_ = e.consumers[i].SetState(st.Consumers[i], &e.pop) // checked above
		_ = e.providers[i].SetState(st.Providers[i])         // checked above
	}
	copy(e.classes, st.Classes)
	e.rebuildColluders()
	e.disclosures = st.Disclosures
	clear(e.feedback)
	for _, f := range st.Feedback {
		e.feedback[f.Peer] = f.Sum
	}
	e.privDirty.Reset()
	for _, u := range st.PrivacyDirty {
		e.privDirty.Mark(u)
	}
	// The facet cache goes cold: the next refresh recomputes every user.
	e.facetScale = 0
	e.rng.SetState(st.RNG)
	if e.activity != nil {
		e.activity.Stream().SetState(*st.Activity)
	}
	e.gatherer = gatherer
	e.active = append([]bool(nil), st.Active...)
	// The active-peer index is derived state: recount eagerly, rebuild the
	// id list lazily on next use.
	e.activeDirty = true
	e.activeCount = 0
	for _, on := range e.active {
		if on {
			e.activeCount++
		}
	}
	e.honestOverride = append([]float64(nil), st.HonestOverride...)
	e.rounds = append([]RoundStats(nil), st.Rounds...)
	e.cumulative = RoundStats{}
	for _, r := range e.rounds {
		e.cumulative.add(r)
	}
	e.GateFailures = st.GateFailures
	e.FakeReports = st.FakeReports
	e.computeIters = st.ComputeIters
	copy(e.qualSum, st.QualSum)
	// The served-provider index is derived state: rebuild lazily on next use.
	e.servedStale = true
	e.satDirty.Reset()
	for _, u := range st.SatDirty {
		e.satDirty.Mark(u)
	}
	e.cfg.TrustGate = st.TrustGate
	e.ledgerScale = st.LedgerScale
	// The restored mechanism's scores are new, whatever its version says.
	e.gateLevel = 0
	// A restore rewrites every piece of simulate-visible state, so any
	// cluster replica synced against the pre-restore engine is stale.
	e.mutationGen++
	return nil
}

// checkRounds rejects a round log no run can write: an entry whose Round
// is not its index, a negative count, counts that break
// Refused <= BadService <= Interactions (a refusal is bad service, and both
// count served interactions), or interactions whose total, the cumulative
// count restore derives, overflows.
func checkRounds(rounds []RoundStats) error {
	total := 0
	for k, r := range rounds {
		if r.Round != k {
			return fmt.Errorf("workload: snapshot round entry %d claims round %d", k, r.Round)
		}
		if !(0 <= r.Refused && r.Refused <= r.BadService && r.BadService <= r.Interactions) {
			return fmt.Errorf("workload: snapshot round %d counts %d interactions, %d bad, %d refused", k, r.Interactions, r.BadService, r.Refused)
		}
		if total > math.MaxInt-r.Interactions {
			return fmt.Errorf("workload: snapshot rounds count more than %d interactions", math.MaxInt)
		}
		total += r.Interactions
	}
	return nil
}

// checkPrivacy rejects a privacy record no run can reach: a user id out of
// range or out of ascending order, a disclosure count below the profile
// recipients the consumers flag (each flag came with a disclosure), or
// feedback exposures that are not numbers in [0, maxFeedback(reports)],
// where reports is what the count leaves after the flags, or that exceed it
// together. The epoch tail indexes per-user state by these ids, so an
// out-of-range one would crash a later epoch.
func checkPrivacy(st EngineState) error {
	n := len(st.Consumers)
	reports := st.Disclosures
	for _, c := range st.Consumers {
		for _, o := range c.Overrides {
			if o.Disclosed {
				reports--
			}
		}
	}
	if reports < 0 {
		return fmt.Errorf("workload: snapshot counts %d disclosures, fewer than the consumers' profile recipients", st.Disclosures)
	}
	total := 0.0
	for k, f := range st.Feedback {
		if f.Peer < 0 || f.Peer >= n || k > 0 && f.Peer <= st.Feedback[k-1].Peer {
			return fmt.Errorf("workload: snapshot feedback of peer %d out of range [0,%d) or out of ascending order", f.Peer, n)
		}
		if !(f.Sum >= 0 && f.Sum <= maxFeedback(reports)) {
			return fmt.Errorf("workload: snapshot feedback exposure %v of peer %d exceeds %d reports", f.Sum, f.Peer, reports)
		}
		total += f.Sum
	}
	// The users' reports share the count, so their sums do too. Adding k
	// sums rounds at most k times, a relative k·2⁻⁵³; the bound allows
	// twice that and a few roundings of maxFeedback itself.
	if m := float64(len(st.Feedback)); total > maxFeedback(reports)*(1+float64((m+4)*0x1p-52)) {
		return fmt.Errorf("workload: snapshot feedback exposures sum to %v, more than %d reports allow", total, reports)
	}
	return checkIDs("privacy dirty mark", st.PrivacyDirty, n)
}

// checkIDs rejects a list of user ids no run can write: one out of [0,n) or
// out of strictly ascending order. The epoch tail indexes per-user state by
// them, and marking a huge id would grow a dirty set's bitmap to match.
func checkIDs(what string, ids []int, n int) error {
	for k, u := range ids {
		if u < 0 || u >= n || k > 0 && u <= ids[k-1] {
			return fmt.Errorf("workload: snapshot %s %d out of range [0,%d) or out of ascending order", what, u, n)
		}
	}
	return nil
}

// maxFeedback bounds the feedback exposure of a user with at most `reports`
// shared reports: that many sequential adds of feedbackTerm, each rounding
// at most one ulp upward, stay within a relative reports·2⁻⁵² of the exact
// product.
func maxFeedback(reports int64) float64 {
	t := float64(reports)
	return feedbackTerm * t * (1 + float64(t*0x1p-52))
}
