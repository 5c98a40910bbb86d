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
const snapshotVersion = 3

// Snapshot is a complete, serializable checkpoint of an Engine's mutable
// state: every random-stream position (the workload planner, per-gatherer
// disclosure draws, mechanism-internal streams), the trust model and §3
// coupling state, the privacy ledger, the reputation mechanism, and the
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
	// Peers and Mechanism identify the scenario shape for early mismatch
	// errors; Epoch is the number of completed epochs at capture time.
	Peers     int
	Mechanism string
	Epoch     int
	State     core.DynamicsState
}

// Snapshot captures the engine's full mutable state. The scenario's
// mechanism must support snapshots (all built-in mechanisms do).
func (e *Engine) Snapshot() (*Snapshot, error) {
	st, err := e.dyn.State()
	if err != nil {
		return nil, fmt.Errorf("trustnet: snapshot: %w", err)
	}
	return &Snapshot{
		Version:   snapshotVersion,
		Peers:     e.Peers(),
		Mechanism: e.mech.Name(),
		Epoch:     e.dyn.EpochIndex(),
		State:     st,
	}, nil
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
	if s.Peers != e.Peers() {
		return fmt.Errorf("trustnet: restore: snapshot of %d peers into engine of %d", s.Peers, e.Peers())
	}
	if s.Mechanism != e.mech.Name() {
		return fmt.Errorf("trustnet: restore: snapshot of mechanism %q into engine running %q", s.Mechanism, e.mech.Name())
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
