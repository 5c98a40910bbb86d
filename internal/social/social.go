// Package social models the social-networking application layer of the
// paper's §1: the profile attributes users may disclose, the friendship
// graph, and the transaction counter that names each interaction.
package social

import (
	"fmt"

	"repro/internal/graph"
)

// Sensitivity classifies how private a profile attribute or resource is.
// It drives default privacy policies (§2.3): higher sensitivity means
// stricter disclosure conditions.
type Sensitivity int

// Sensitivity classes, from freely shareable to strictly personal.
const (
	Public Sensitivity = iota + 1
	Low
	Medium
	High
)

// Attribute is one profile field.
type Attribute struct {
	Name        string
	Value       string
	Sensitivity Sensitivity
}

// Profile is a user's set of attributes.
type Profile struct {
	Attributes []Attribute
}

// StandardProfile builds the default attribute set used in experiments:
// one attribute per sensitivity class, named for its class.
func StandardProfile(userID int) Profile {
	return Profile{Attributes: []Attribute{
		{Name: "nickname", Value: fmt.Sprintf("user-%d", userID), Sensitivity: Public},
		{Name: "interests", Value: "music,sports", Sensitivity: Low},
		{Name: "email", Value: fmt.Sprintf("user-%d@example.org", userID), Sensitivity: Medium},
		{Name: "location", Value: "somewhere", Sensitivity: Medium},
		{Name: "medical", Value: "private", Sensitivity: High},
	}}
}

// Network is the social network state.
type Network struct {
	// friends is the friendship graph, the int32 adjacency candidate
	// sampling reads; it has one node per user.
	friends *graph.Graph //trustlint:derived scenario structure rebuilt from the seed
	nextTx  uint64
}

// NewNetwork assembles a network over the friendship graph, one user per
// node.
func NewNetwork(friends *graph.Graph) (*Network, error) {
	if friends == nil {
		return nil, fmt.Errorf("social: nil friendship graph")
	}
	return &Network{friends: friends}, nil
}

// N returns the number of users.
func (n *Network) N() int { return n.friends.N() }

// FriendsOf returns u's friends, ascending (nil if u is out of range). The
// slice is the graph's own storage (shared; read-only); its capacity is
// clipped, so appending to it copies.
func (n *Network) FriendsOf(u int) []int32 { return n.friends.Neighbors(u) }

// NextTxID allocates a fresh interaction id.
func (n *Network) NextTxID() uint64 {
	n.nextTx++
	return n.nextTx
}
