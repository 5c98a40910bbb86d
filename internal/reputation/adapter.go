package reputation

// Whitewasher is implemented by mechanisms whose identity state can be
// reset, modelling a peer that abandons a badly-rated identity and rejoins
// under a fresh one (the §2.2 whitewashing adversary). The contrast between
// zero-default and neutral-default scores after a reset is the identity-cost
// argument the paper's adversary discussion turns on.
type Whitewasher interface {
	// Whitewash erases all reputation state tied to the peer, leaving the
	// state a fresh identity would present.
	Whitewash(peer int)
}
