package trustnet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/reputation"
)

// Intervention is one typed scenario event a Session applies at an epoch
// boundary: churn waves, policy flips, adversary activation. Interventions
// are data, not code — a churn storm or a traitor wave is declared once in a
// Schedule instead of hand-written into the driving loop — and they apply
// through the same deterministic seams the engine itself uses, so a
// scheduled scenario is exactly as reproducible as an unscheduled one.
//
// The set of interventions is closed: the concrete types in this file are
// the vocabulary.
type Intervention interface {
	// check validates the intervention against the engine at session
	// construction, so a malformed schedule fails fast rather than at epoch
	// boundary N.
	check(e *Engine) error
	// applyTo executes the intervention at its epoch boundary.
	applyTo(e *Engine) error
}

// checkUsers validates a user id list against the population.
func checkUsers(e *Engine, users []int, what string) error {
	if len(users) == 0 {
		return fmt.Errorf("trustnet: %s with no users", what)
	}
	for _, u := range users {
		if u < 0 || u >= e.Peers() {
			return fmt.Errorf("trustnet: %s user %d out of range [0,%d)", what, u, e.Peers())
		}
	}
	return nil
}

// JoinWave brings the listed users (back) into the network. Joining is
// idempotent; a joining user resumes with all the state it left with.
type JoinWave struct {
	Users []int `json:"users"`
}

func (w JoinWave) check(e *Engine) error { return checkUsers(e, w.Users, "join wave") }
func (w JoinWave) applyTo(e *Engine) error {
	for _, u := range w.Users {
		if err := e.WorkloadEngine().SetPeerActive(u, true); err != nil {
			return err
		}
	}
	return nil
}

// LeaveWave removes the listed users from the network: they stop requesting,
// serving, and appearing in candidate sets, but keep their accumulated state
// for a later JoinWave.
type LeaveWave struct {
	Users []int `json:"users"`
}

func (w LeaveWave) check(e *Engine) error { return checkUsers(e, w.Users, "leave wave") }
func (w LeaveWave) applyTo(e *Engine) error {
	for _, u := range w.Users {
		if err := e.WorkloadEngine().SetPeerActive(u, false); err != nil {
			return err
		}
	}
	return nil
}

// WhitewashWave makes the listed users abandon their identities and rejoin
// fresh: the mechanism's per-peer reputation state is erased (the mechanism
// must support whitewashing, as EigenTrust and TrustMe do) and the user is marked present. The contrast
// between zero-default and neutral-default mechanisms under this wave is the
// paper's identity-cost argument (§2.2).
type WhitewashWave struct {
	Users []int `json:"users"`
}

func (w WhitewashWave) check(e *Engine) error {
	if _, ok := e.Mechanism().(reputation.Whitewasher); !ok {
		return fmt.Errorf("trustnet: whitewash wave: mechanism %q cannot whitewash", e.Mechanism().Name())
	}
	return checkUsers(e, w.Users, "whitewash wave")
}
func (w WhitewashWave) applyTo(e *Engine) error {
	ww := e.Mechanism().(reputation.Whitewasher)
	for _, u := range w.Users {
		ww.Whitewash(u)
		if err := e.WorkloadEngine().SetPeerActive(u, true); err != nil {
			return err
		}
	}
	// Whitewashing erases mechanism rows behind the workload engine's back;
	// SetPeerActive alone would not invalidate cluster replicas when the
	// whitewashed users were already present.
	if len(w.Users) > 0 {
		e.WorkloadEngine().NoteMutation()
	}
	return nil
}

// PolicyChange installs a new privacy policy mid-run: base disclosure,
// trust-gate strictness, and exposure normalization, exactly as
// WithPrivacyPolicy configures them at construction.
type PolicyChange struct {
	Policy PrivacyPolicy `json:"policy"`
}

func (c PolicyChange) check(*Engine) error {
	p := c.Policy
	if p.Disclosure < 0 || p.Disclosure > 1 {
		return fmt.Errorf("trustnet: policy change disclosure %v out of [0,1]", p.Disclosure)
	}
	if p.TrustGate < 0 || p.TrustGate >= 1 {
		return fmt.Errorf("trustnet: policy change trust gate %v out of [0,1)", p.TrustGate)
	}
	if p.ExposureScale < 0 {
		return fmt.Errorf("trustnet: policy change negative exposure scale %v", p.ExposureScale)
	}
	return nil
}
func (c PolicyChange) applyTo(e *Engine) error {
	if err := e.dyn.SetBaseDisclosure(c.Policy.Disclosure); err != nil {
		return err
	}
	if err := e.WorkloadEngine().SetTrustGate(c.Policy.TrustGate); err != nil {
		return err
	}
	return e.WorkloadEngine().SetLedgerScale(c.Policy.ExposureScale)
}

// TrustGateChange adjusts only the privacy trust-gate strictness.
type TrustGateChange struct {
	Gate float64 `json:"gate"`
}

func (c TrustGateChange) check(*Engine) error {
	if c.Gate < 0 || c.Gate >= 1 {
		return fmt.Errorf("trustnet: trust gate %v out of [0,1)", c.Gate)
	}
	return nil
}
func (c TrustGateChange) applyTo(e *Engine) error {
	return e.WorkloadEngine().SetTrustGate(c.Gate)
}

// DisclosureChange adjusts only the base disclosure δ_base, including a true
// zero (share nothing). Every user's current disclosure resets to the new
// base; the §3 coupling re-derives per-user values from the next epoch on.
type DisclosureChange struct {
	Base float64 `json:"base"`
}

func (c DisclosureChange) check(*Engine) error {
	if c.Base < 0 || c.Base > 1 {
		return fmt.Errorf("trustnet: disclosure %v out of [0,1]", c.Base)
	}
	return nil
}
func (c DisclosureChange) applyTo(e *Engine) error {
	return e.dyn.SetBaseDisclosure(c.Base)
}

// HonestyChange adjusts h0, the truthful-reporting probability at zero trust
// (honesty activation: rises to 1 with full trust).
type HonestyChange struct {
	Base float64 `json:"base"`
}

func (c HonestyChange) check(*Engine) error {
	if c.Base < 0 || c.Base > 1 {
		return fmt.Errorf("trustnet: base honesty %v out of [0,1]", c.Base)
	}
	return nil
}
func (c HonestyChange) applyTo(e *Engine) error {
	return e.dyn.SetBaseHonesty(c.Base)
}

// CouplingChange enables or disables the §3 feedback loops mid-run.
type CouplingChange struct {
	Enabled bool `json:"enabled"`
}

func (CouplingChange) check(*Engine) error { return nil }
func (c CouplingChange) applyTo(e *Engine) error {
	e.dyn.SetCoupled(c.Enabled)
	return nil
}

// BehaviorChange swaps the listed users to a behaviour class mid-run: the
// adversary-activation intervention (honest users turning malicious, a
// traitor cohort flipping, or compromised users being restored to Honest).
type BehaviorChange struct {
	Users []int `json:"users"`
	Class Class `json:"class"`
}

func (c BehaviorChange) check(e *Engine) error {
	if !c.Class.Valid() {
		return fmt.Errorf("trustnet: behavior change to unknown class %d", int(c.Class))
	}
	return checkUsers(e, c.Users, "behavior change")
}
func (c BehaviorChange) applyTo(e *Engine) error {
	for _, u := range c.Users {
		if err := e.WorkloadEngine().SetBehaviorClass(u, c.Class); err != nil {
			return err
		}
	}
	return nil
}

// ReportWave submits a batch of externally authored feedback reports at an
// epoch boundary, in declaration order. It is the batch-mode twin of the
// served daemon's report queue: trustnetd applies queued reports at the
// next boundary (before that epoch's scheduled interventions), so a
// schedule that lists each epoch's ReportWave ahead of its other entries
// replays a served run bit-for-bit.
type ReportWave struct {
	Reports []Report `json:"reports"`
}

func (w ReportWave) check(e *Engine) error {
	if len(w.Reports) == 0 {
		return fmt.Errorf("trustnet: report wave with no reports")
	}
	for i, r := range w.Reports {
		if err := r.ValidateExternal(e.Peers()); err != nil {
			return fmt.Errorf("trustnet: report wave entry %d: %w", i, err)
		}
	}
	return nil
}
func (w ReportWave) applyTo(e *Engine) error {
	return e.SubmitReports(w.Reports...)
}

// ScheduledIntervention binds an intervention to the epoch boundary at which
// it fires (just before epoch Epoch runs; epoch indices are 0-based and
// global to the engine, so a resumed session skips boundaries that already
// fired before its snapshot).
type ScheduledIntervention struct {
	Epoch  int
	Action Intervention
}

// Schedule is a declarative, epoch-indexed intervention script. Build one
// with At:
//
//	sched := trustnet.Schedule{}.
//		At(3, trustnet.LeaveWave{Users: storm}).
//		At(6, trustnet.WhitewashWave{Users: storm}).
//		At(8, trustnet.PolicyChange{Policy: strict})
//
// Interventions at the same epoch apply in declaration order.
type Schedule []ScheduledIntervention

// At returns the schedule extended with interventions firing at the given
// epoch boundary. The receiver is never mutated — the result has its own
// backing array — so schedules branch safely from a shared base:
// base.At(5, x) and base.At(5, y) are independent.
func (s Schedule) At(epoch int, actions ...Intervention) Schedule {
	out := make(Schedule, len(s), len(s)+len(actions))
	copy(out, s)
	for _, a := range actions {
		out = append(out, ScheduledIntervention{Epoch: epoch, Action: a})
	}
	return out
}

// validate checks the whole schedule against an engine.
func (s Schedule) validate(e *Engine) error {
	for i, si := range s {
		if si.Epoch < 0 {
			return fmt.Errorf("trustnet: schedule entry %d at negative epoch %d", i, si.Epoch)
		}
		if si.Action == nil {
			return fmt.Errorf("trustnet: schedule entry %d has nil intervention", i)
		}
		if err := si.Action.check(e); err != nil {
			return fmt.Errorf("trustnet: schedule entry %d (epoch %d): %w", i, si.Epoch, err)
		}
	}
	return nil
}

// forEpoch returns the interventions firing at one epoch boundary, in
// declaration order.
func (s Schedule) forEpoch(epoch int) []Intervention {
	var out []Intervention
	for _, si := range s {
		if si.Epoch == epoch {
			out = append(out, si.Action)
		}
	}
	return out
}

// Intervention kind tags used by the JSON encoding of a Schedule. Each
// entry marshals as {"epoch": N, "kind": "<tag>", "args": {...}} with args
// holding the concrete intervention's fields, so schedules round-trip
// through scenario spec files.
const (
	kindJoinWave         = "join-wave"
	kindLeaveWave        = "leave-wave"
	kindWhitewashWave    = "whitewash-wave"
	kindPolicyChange     = "policy-change"
	kindTrustGateChange  = "trust-gate-change"
	kindDisclosureChange = "disclosure-change"
	kindHonestyChange    = "honesty-change"
	kindCouplingChange   = "coupling-change"
	kindBehaviorChange   = "behavior-change"
	kindReportWave       = "report-wave"
)

// interventionKind maps a concrete intervention to its JSON tag.
func interventionKind(a Intervention) (string, error) {
	switch a.(type) {
	case JoinWave:
		return kindJoinWave, nil
	case LeaveWave:
		return kindLeaveWave, nil
	case WhitewashWave:
		return kindWhitewashWave, nil
	case PolicyChange:
		return kindPolicyChange, nil
	case TrustGateChange:
		return kindTrustGateChange, nil
	case DisclosureChange:
		return kindDisclosureChange, nil
	case HonestyChange:
		return kindHonestyChange, nil
	case CouplingChange:
		return kindCouplingChange, nil
	case BehaviorChange:
		return kindBehaviorChange, nil
	case ReportWave:
		return kindReportWave, nil
	default:
		return "", fmt.Errorf("trustnet: intervention %T has no JSON encoding", a)
	}
}

// interventionEnvelope is the wire form of one scheduled intervention.
type interventionEnvelope struct {
	Epoch int             `json:"epoch"`
	Kind  string          `json:"kind"`
	Args  json.RawMessage `json:"args,omitempty"`
}

// MarshalJSON encodes the entry as a typed envelope.
func (si ScheduledIntervention) MarshalJSON() ([]byte, error) {
	if si.Action == nil {
		return nil, fmt.Errorf("trustnet: schedule entry at epoch %d has nil intervention", si.Epoch)
	}
	kind, err := interventionKind(si.Action)
	if err != nil {
		return nil, err
	}
	args, err := json.Marshal(si.Action)
	if err != nil {
		return nil, err
	}
	return json.Marshal(interventionEnvelope{Epoch: si.Epoch, Kind: kind, Args: args})
}

// strictUnmarshal decodes with unknown-field rejection, so a typo in a
// schedule entry fails loudly instead of silently dropping the field —
// custom unmarshalers do not inherit the outer decoder's strictness, so
// the envelope enforces its own.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// UnmarshalJSON decodes a typed envelope back into the concrete
// intervention named by its kind tag, rejecting unknown fields in both the
// envelope and the intervention payload.
func (si *ScheduledIntervention) UnmarshalJSON(data []byte) error {
	var env interventionEnvelope
	if err := strictUnmarshal(data, &env); err != nil {
		return err
	}
	args := env.Args
	if len(args) == 0 {
		args = json.RawMessage("{}")
	}
	var action Intervention
	switch env.Kind {
	case kindJoinWave:
		var a JoinWave
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindLeaveWave:
		var a LeaveWave
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindWhitewashWave:
		var a WhitewashWave
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindPolicyChange:
		var a PolicyChange
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindTrustGateChange:
		var a TrustGateChange
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindDisclosureChange:
		var a DisclosureChange
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindHonestyChange:
		var a HonestyChange
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindCouplingChange:
		var a CouplingChange
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindBehaviorChange:
		var a BehaviorChange
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	case kindReportWave:
		var a ReportWave
		if err := strictUnmarshal(args, &a); err != nil {
			return err
		}
		action = a
	default:
		return fmt.Errorf("trustnet: unknown intervention kind %q", env.Kind)
	}
	si.Epoch = env.Epoch
	si.Action = action
	return nil
}

// cloneIntervention deep-copies an intervention's payload, so schedules
// handed out by the registry (or cloned into sweep cells) never share
// mutable user lists with their source.
func cloneIntervention(a Intervention) Intervention {
	switch v := a.(type) {
	case JoinWave:
		v.Users = append([]int(nil), v.Users...)
		return v
	case LeaveWave:
		v.Users = append([]int(nil), v.Users...)
		return v
	case WhitewashWave:
		v.Users = append([]int(nil), v.Users...)
		return v
	case BehaviorChange:
		v.Users = append([]int(nil), v.Users...)
		return v
	case ReportWave:
		v.Reports = append([]Report(nil), v.Reports...)
		return v
	default:
		// The remaining vocabulary carries only scalar payloads.
		return a
	}
}

// clone deep-copies the schedule, payload slices included.
func (s Schedule) clone() Schedule {
	if s == nil {
		return nil
	}
	out := make(Schedule, len(s))
	for i, si := range s {
		out[i] = ScheduledIntervention{Epoch: si.Epoch, Action: cloneIntervention(si.Action)}
	}
	return out
}
