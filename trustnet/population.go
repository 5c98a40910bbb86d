package trustnet

import (
	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/social"
)

// Class is a ground-truth behaviour class from the §2.2 adversary
// taxonomy.
type Class = adversary.Class

// Behaviour classes.
const (
	// Honest peers serve well and rate truthfully.
	Honest = adversary.Honest
	// Selfish peers free-ride: they rarely serve but rate truthfully.
	Selfish = adversary.Selfish
	// Malicious peers serve corrupt data and lie in ratings.
	Malicious = adversary.Malicious
	// Traitor peers build reputation honestly, then turn coat.
	Traitor = adversary.Traitor
	// Slanderer peers serve fine but badmouth everyone.
	Slanderer = adversary.Slanderer
	// Colluder peers form a ballot-stuffing clique.
	Colluder = adversary.Colluder
	// WhitewasherClass peers behave maliciously and shed bad reputations by
	// rejoining under fresh identities. (Named WhitewasherClass because the
	// facade name Whitewasher is taken by the mechanism-reset interface.)
	WhitewasherClass = adversary.Whitewasher
)

// Mix is the behaviour-class composition of a population.
type Mix = adversary.Mix

// Sensitivity classifies how private a data item is.
type Sensitivity = social.Sensitivity

// Sensitivity classes.
const (
	// Public data costs nothing to disclose.
	Public = social.Public
	// LowSensitivity data is mildly private (e.g. feedback reports).
	LowSensitivity = social.Low
	// MediumSensitivity data is personal (e.g. contact details).
	MediumSensitivity = social.Medium
	// HighSensitivity data is intimate (e.g. medical notes).
	HighSensitivity = social.High
)

// Profile is a user's attribute set.
type Profile = social.Profile

// StandardProfile builds the experiment-standard profile for a user.
func StandardProfile(userID int) Profile { return social.StandardProfile(userID) }

// Graph is a friendship topology: an immutable graph whose N, Neighbors,
// HasEdge and NumEdges read each node's ascending neighbour list.
type Graph = graph.Graph

// BarabasiAlbertGraph generates a preferential-attachment graph: n nodes,
// m edges per arrival. Like the other generators, it returns an error when
// the graph would have more than math.MaxInt32 directed edges.
func BarabasiAlbertGraph(rng *RNG, n, m int) (*Graph, error) {
	return graph.BarabasiAlbert(rng, n, m)
}

// WattsStrogatzGraph generates a small-world graph: n nodes, k nearest
// neighbours, rewiring probability beta.
func WattsStrogatzGraph(rng *RNG, n, k int, beta float64) (*Graph, error) {
	return graph.WattsStrogatz(rng, n, k, beta)
}

// ErdosRenyiGraph generates a uniform random directed graph with edge
// probability p.
func ErdosRenyiGraph(rng *RNG, n int, p float64) (*Graph, error) {
	return graph.ErdosRenyi(rng, n, p)
}
