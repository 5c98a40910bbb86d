package crypto

import "fmt"

// ChainState is the serializable position of a PseudonymChain: the current
// chain state plus the epoch counter. Restoring it reproduces the exact
// pseudonym sequence from that point on.
type ChainState struct {
	State [32]byte
	Epoch int
}

// State captures the chain position.
func (p *PseudonymChain) State() ChainState {
	return ChainState{State: p.state, Epoch: p.epoch}
}

// Check reports whether st is a position a chain can reach: any 32-byte
// state, at an epoch that is not negative.
func (st ChainState) Check() error {
	if st.Epoch < 0 {
		return fmt.Errorf("crypto: pseudonym chain epoch %d is negative", st.Epoch)
	}
	return nil
}

// SetState restores a captured chain position; check untrusted ones first.
func (p *PseudonymChain) SetState(st ChainState) {
	p.state = st.State
	p.epoch = st.Epoch
}
