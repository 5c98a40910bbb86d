package sim

import (
	"fmt"
	"math"
)

// RNGState is the serializable position of an RNG stream. Capturing and
// restoring it is exact: a restored stream produces the same draw sequence
// as the original, which is the foundation of the engine-wide
// snapshot/resume guarantee (restore-then-run is bit-for-bit identical to
// an uninterrupted run).
type RNGState struct {
	State uint64
	// Spare and HasSpare carry the buffered Box-Muller Gaussian, which is
	// part of the stream position: dropping it would shift every subsequent
	// NormFloat64 draw.
	Spare    float64
	HasSpare bool
}

// State captures the stream position.
func (r *RNG) State() RNGState {
	return RNGState{State: r.state, Spare: r.spare, HasSpare: r.hasSpare}
}

// Check reports whether st is a position a stream can reach: any state
// word, and a buffered Gaussian, when there is one, that is finite.
func (st RNGState) Check() error {
	if st.HasSpare && (math.IsNaN(st.Spare) || math.IsInf(st.Spare, 0)) {
		return fmt.Errorf("sim: rng state buffers a non-finite Gaussian %v", st.Spare)
	}
	return nil
}

// SetState restores a captured stream position; check untrusted ones first.
func (r *RNG) SetState(st RNGState) {
	r.state = st.State
	r.spare = st.Spare
	r.hasSpare = st.HasSpare
}

// Stream exposes the sampler's internal RNG so engine snapshots can capture
// and restore its position (the CDF is rebuilt deterministically from the
// sampler's configuration).
func (z *Zipf) Stream() *RNG { return z.rng }
