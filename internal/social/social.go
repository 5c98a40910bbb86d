// Package social models the social-networking application layer of the
// paper's §1: users, the profile attributes they may disclose, the
// friendship graph, and the transaction counter that names each
// interaction.
package social

import (
	"fmt"

	"repro/internal/adversary"
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

// String returns the sensitivity name.
func (s Sensitivity) String() string {
	switch s {
	case Public:
		return "public"
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("sensitivity(%d)", int(s))
	}
}

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

// Attribute returns the named attribute and whether it exists.
func (p Profile) Attribute(name string) (Attribute, bool) {
	for _, a := range p.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
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

// User is a participant: identity and behaviour policy.
type User struct {
	ID       int
	Behavior adversary.Behavior
}

// Network is the social network state.
type Network struct {
	users []*User //trustlint:derived scenario structure rebuilt from the seed; the one mutable part, Behavior, is restored from the engine's class list
	// friends is the friendship graph, the int32 adjacency candidate
	// sampling reads.
	friends *graph.Graph //trustlint:derived scenario structure rebuilt from the seed
	nextTx  uint64
}

// NewNetwork assembles a network; users[i].ID must equal i and the
// friendship graph must have exactly len(users) nodes.
func NewNetwork(users []*User, friends *graph.Graph) (*Network, error) {
	if friends == nil {
		return nil, fmt.Errorf("social: nil friendship graph")
	}
	if friends.N() != len(users) {
		return nil, fmt.Errorf("social: %d users but friendship graph has %d nodes",
			len(users), friends.N())
	}
	for i, u := range users {
		if u == nil {
			return nil, fmt.Errorf("social: nil user at %d", i)
		}
		if u.ID != i {
			return nil, fmt.Errorf("social: user at index %d has ID %d", i, u.ID)
		}
	}
	return &Network{users: users, friends: friends}, nil
}

// N returns the number of users.
func (n *Network) N() int { return len(n.users) }

// User returns the user with the given id, or nil if out of range.
func (n *Network) User(id int) *User {
	if id < 0 || id >= len(n.users) {
		return nil
	}
	return n.users[id]
}

// FriendsOf returns u's friends, ascending (nil if u is out of range). The
// slice is the graph's own storage (shared; read-only); its capacity is
// clipped, so appending to it copies.
func (n *Network) FriendsOf(u int) []int32 { return n.friends.Neighbors(u) }

// NextTxID allocates a fresh interaction id.
func (n *Network) NextTxID() uint64 {
	n.nextTx++
	return n.nextTx
}
