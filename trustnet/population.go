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
	// rejoining under fresh identities.
	WhitewasherClass = adversary.Whitewasher
)

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

// WattsStrogatzGraph generates a small-world graph: n nodes, k nearest
// neighbours, rewiring probability beta.
func WattsStrogatzGraph(rng *RNG, n, k int, beta float64) (*Graph, error) {
	return graph.WattsStrogatz(rng, n, k, beta)
}
