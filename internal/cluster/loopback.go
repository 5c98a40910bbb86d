package cluster

import (
	"sync"
	"time"
)

// The loopback transport runs the full wire protocol in-process: frames are
// encoded exactly as over TCP and passed through buffered channels, so a
// loopback run exercises everything but the socket — including the codec's
// nil/empty-slice flattening, which is where transport bugs would perturb
// determinism.

// loopChanCap bounds how many frames one direction can buffer before Send
// blocks (the protocol is request/response plus small report broadcasts, so
// this is never approached in practice).
const loopChanCap = 256

// loopConn is one end of an in-process connection pair.
type loopConn struct {
	send chan []byte
	recv chan []byte
	// done is shared by both ends: closing either end tears the pair down,
	// like a socket close.
	done     chan struct{}
	closeOne *sync.Once

	mu       sync.Mutex
	deadline time.Time
}

// LoopbackPipe returns the two ends of a connected in-process transport.
func LoopbackPipe() (Conn, Conn) {
	ab := make(chan []byte, loopChanCap)
	ba := make(chan []byte, loopChanCap)
	done := make(chan struct{})
	once := &sync.Once{}
	a := &loopConn{send: ab, recv: ba, done: done, closeOne: once}
	b := &loopConn{send: ba, recv: ab, done: done, closeOne: once}
	return a, b
}

func (c *loopConn) timer() (<-chan time.Time, *time.Timer) {
	c.mu.Lock()
	d := c.deadline
	c.mu.Unlock()
	if d.IsZero() {
		return nil, nil
	}
	t := time.NewTimer(time.Until(d))
	return t.C, t
}

func (c *loopConn) Send(env *envelope) error {
	frame, err := encodeFrame(env)
	if err != nil {
		return err
	}
	expire, t := c.timer()
	if t != nil {
		defer t.Stop()
	}
	select {
	case c.send <- frame:
		return nil
	case <-c.done:
		return errClosed
	case <-expire:
		return errTimeout
	}
}

func (c *loopConn) Recv() (*envelope, error) {
	// Like a TCP socket, a close must not discard frames already in flight:
	// drain buffered frames before honoring done, so a shutdown broadcast
	// followed by an immediate close still reaches the peer.
	select {
	case frame := <-c.recv:
		return decodeFrame(frame)
	default:
	}
	expire, t := c.timer()
	if t != nil {
		defer t.Stop()
	}
	select {
	case frame := <-c.recv:
		return decodeFrame(frame)
	case <-c.done:
		// Frames sent before the close were already buffered; deliver them.
		select {
		case frame := <-c.recv:
			return decodeFrame(frame)
		default:
			return nil, errClosed
		}
	case <-expire:
		return nil, errTimeout
	}
}

func (c *loopConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

func (c *loopConn) Close() error {
	c.closeOne.Do(func() { close(c.done) })
	return nil
}

// LoopbackListener hands out in-process connections: each Dial creates a
// pipe and queues the master-side end for Accept.
type LoopbackListener struct {
	conns chan Conn
	done  chan struct{}
	once  sync.Once
}

// NewLoopbackListener builds an open in-process listener.
func NewLoopbackListener() *LoopbackListener {
	return &LoopbackListener{conns: make(chan Conn, 16), done: make(chan struct{})}
}

// Dial connects a new in-process worker to the listener and returns the
// worker-side end.
func (l *LoopbackListener) Dial() (Conn, error) {
	master, worker := LoopbackPipe()
	select {
	case l.conns <- master:
		return worker, nil
	case <-l.done:
		return nil, errClosed
	}
}

// Accept implements Listener.
func (l *LoopbackListener) Accept() (Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, errClosed
	}
}

// Close implements Listener.
func (l *LoopbackListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements Listener.
func (l *LoopbackListener) Addr() string { return "loopback" }
