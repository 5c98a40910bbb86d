package social

// NetworkState is the serializable mutable state of a Network: the
// transaction counter. Users and the friendship graph are scenario
// structure — rebuilt deterministically from the seed — not state.
type NetworkState struct {
	NextTx uint64
}

// State captures the network's mutable state.
func (n *Network) State() NetworkState {
	return NetworkState{NextTx: n.nextTx}
}

// SetState restores a previously captured state.
func (n *Network) SetState(st NetworkState) {
	n.nextTx = st.NextTx
}
