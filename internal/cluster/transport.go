package cluster

import (
	"errors"
	"time"
)

// Conn is one ordered, reliable message channel between the master and a
// worker. Send and Recv are each safe for one concurrent caller (the
// protocol is strictly request/response per connection, serialized by the
// master's per-worker lock and the worker's single loop). Recv returns only
// envelopes that decodeFrame accepted, which carry the payload their kind
// calls for, so receivers need no nil-payload checks. SetDeadline bounds
// both directions; a zero time clears it. Close unblocks any pending
// operation on either end.
type Conn interface {
	Send(env *envelope) error
	Recv() (*envelope, error)
	SetDeadline(t time.Time) error
	Close() error
}

// Listener accepts worker connections on the master side.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr describes the listening endpoint (for logs and tests).
	Addr() string
}

// errTimeout is returned by the loopback transport when a deadline expires;
// the TCP transport surfaces net's own timeout errors instead. Both are
// treated identically (worker marked dead).
var errTimeout = errors.New("cluster: deadline exceeded")

// errClosed is returned by loopback operations after either end closed.
var errClosed = errors.New("cluster: connection closed")
