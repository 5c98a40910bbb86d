package trustnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// snapshotVersion guards the wire format; bump it whenever the serialized
// state's shape changes incompatibly.
//
// v2: the mechanism states went sparse — eigentrust's LocalTrustState
// dropped the dense Sat/Unsat matrices for an Entries list + Dirty rows,
// powertrust gained DirtyRows — so v1 blobs would gob-decode into empty
// trust matrices if accepted.
//
// v3: the privacy ledger is captured as per-owner aggregates (tallies, the
// feedback exposure sum, items with their recipients) instead of an event
// list, and the social network's interaction log and resource registry are
// gone, so a v2 blob would restore an empty ledger.
//
// v4: the §3 disclosure and honesty vectors are no longer captured beside
// the engine; the engine's gatherer and honesty override are their only
// copy, written by each coupling pass. A v3 engine holds the values one
// epoch stale (the next epoch installed the captured vectors), so a v3 blob
// would resume on them.
//
// v5: the privacy ledger is captured inside the workload engine's state,
// which builds and owns it, instead of beside it; the engine's profile
// disclosures use one item key, "profile", instead of "profile/<id>"; and
// the gatherer's per-rater counts and each consumer's preference overrides
// are ascending lists instead of maps, so encoding a snapshot twice gives
// the same bytes. A v4 blob would gob-decode into an empty engine ledger.
//
// v6: a ledger item carries the number of distinct recipients it reached
// instead of their ids, and each consumer's preference override carries a
// flag for a provider its profile was disclosed to; restore refuses a
// profile count that differs from the consumer's flags. A v5 item's
// recipient list does not decode into a count, and a v5 override has no
// flag, so every v5 profile count would disagree with its consumer.
//
// v7: the engine keeps its privacy record itself instead of in a ledger:
// a disclosure count, a feedback exposure per user and the users touched
// since the last facet refresh, while the profile's recipient counts are
// the consumers' override flags alone. The gatherer no longer counts the
// reports of each rater. A v6 blob's ledger would decode into nothing, so
// every restored feedback exposure would read 0.
//
// v8: the state says each fact once. The snapshot's peer count, mechanism
// and epoch are read from the state; the epoch count is the history's
// length and the last reputation facet its last entry's; the round counter
// is the round log's length, the cumulative totals its sum, and a
// provider's served count its observation count; consumers and providers
// no longer repeat the population's size, default and started flag; the
// settled set travels as the trust model's bitmap words; and a behaviour
// class is one byte. Restore refuses a history or round entry that is not
// at its own index. Gob skips the fields a v7 blob still carries, so only
// this version keeps a v7 blob from restoring with its duplicated facts
// unchecked.
const snapshotVersion = 8

// Snapshot is a complete, serializable checkpoint of an Engine's mutable
// state: every random-stream position (the workload planner, per-gatherer
// disclosure draws, mechanism-internal streams), the trust model and §3
// coupling state, the privacy record, the reputation mechanism, and the
// recorded epoch history.
//
// A Snapshot restores only into an Engine built from the identical scenario
// options (same seed, peers, graph, mix, mechanism, policy). It
// intentionally does not carry the scenario configuration itself: options
// are code (factories, closures), and re-running them is what regenerates
// the deterministic scenario structure a snapshot omits. Shard count is the
// one explicit exception — restore-then-run is bit-for-bit identical to the
// uninterrupted run at every shard count.
type Snapshot struct {
	Version int
	State   core.DynamicsState
}

// Peers returns the population size the snapshot was taken at.
func (s *Snapshot) Peers() int { return len(s.State.Engine.Consumers) }

// Mechanism returns the name of the reputation mechanism the snapshot was
// taken with.
func (s *Snapshot) Mechanism() string { return s.State.Engine.MechName }

// Epoch returns the number of epochs completed at capture time.
func (s *Snapshot) Epoch() int { return len(s.State.History) }

// Snapshot captures the engine's full mutable state. The scenario's
// mechanism must support snapshots (all built-in mechanisms do).
func (e *Engine) Snapshot() (*Snapshot, error) {
	st, err := e.dyn.State()
	if err != nil {
		return nil, fmt.Errorf("trustnet: snapshot: %w", err)
	}
	return &Snapshot{Version: snapshotVersion, State: st}, nil
}

// Restore overwrites the engine's mutable state with the snapshot's. The
// engine must have been built from the identical scenario options the
// snapshotted engine was (shard count excepted); mismatches that are
// detectable — population size, mechanism, vector shapes — are errors.
func (e *Engine) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("trustnet: restore: nil snapshot")
	}
	if s.Version != snapshotVersion {
		return fmt.Errorf("trustnet: restore: snapshot version mismatch (got %d, want %d)", s.Version, snapshotVersion)
	}
	if s.Peers() != e.Peers() {
		return fmt.Errorf("trustnet: restore: snapshot of %d peers into engine of %d", s.Peers(), e.Peers())
	}
	if s.Mechanism() != e.mech.Name() {
		return fmt.Errorf("trustnet: restore: snapshot of mechanism %q into engine running %q", s.Mechanism(), e.mech.Name())
	}
	if err := e.dyn.Restore(s.State); err != nil {
		return fmt.Errorf("trustnet: restore: %w", err)
	}
	return nil
}

// RestoreFromFile loads the snapshot file at path and restores the engine
// from it — the shared resume path of cmd/trustsim and cmd/trustnetd, so the
// version-mismatch and scenario-mismatch checks live (and are tested) in one
// place.
func (e *Engine) RestoreFromFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trustnet: restore snapshot: %w", err)
	}
	defer f.Close()
	s, err := DecodeSnapshot(f)
	if err != nil {
		return err
	}
	return e.Restore(s)
}

// Encode writes the snapshot to w in the versioned binary (gob) format.
func (s *Snapshot) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("trustnet: encode snapshot: %w", err)
	}
	return nil
}

// snapshotHeader is the version-probe target of DecodeSnapshot: gob matches
// fields by name and structurally skips the rest of the stream, so the
// Version of any generation's snapshot decodes into it even when the full
// State no longer would.
type snapshotHeader struct {
	Version int
}

// DecodeSnapshot reads a snapshot previously written by Encode. The version
// is checked before the state is decoded, so feeding a snapshot from an
// older (or newer) format generation reports a clear version mismatch
// instead of surfacing a raw gob decode failure from deep inside the state.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trustnet: decode snapshot: %w", err)
	}
	var hdr snapshotHeader
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trustnet: decode snapshot: %w", err)
	}
	if hdr.Version != snapshotVersion {
		return nil, fmt.Errorf("trustnet: decode snapshot: snapshot version mismatch (got %d, want %d)", hdr.Version, snapshotVersion)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("trustnet: decode snapshot: %w", err)
	}
	return &s, nil
}
