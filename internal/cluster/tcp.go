package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// The TCP transport: each frame is a 4-byte big-endian length prefix
// followed by one self-contained encoded envelope (codec.go). TCP's in-order
// reliable delivery supplies the ordering the protocol relies on; the
// length prefix supplies framing.

// maxFrame caps a frame at 1 GiB — far above any real snapshot, but small
// enough that a corrupt length prefix fails fast instead of allocating
// absurdly.
const maxFrame = 1 << 30

type tcpConn struct {
	c net.Conn
}

func (t *tcpConn) Send(env *envelope) error {
	frame, err := encodeFrame(env)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := t.c.Write(hdr[:]); err != nil {
		return err
	}
	_, err = t.c.Write(frame)
	return err
}

func (t *tcpConn) Recv() (*envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(t.c, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(t.c, frame); err != nil {
		return nil, err
	}
	return decodeFrame(frame)
}

func (t *tcpConn) SetDeadline(d time.Time) error { return t.c.SetDeadline(d) }

func (t *tcpConn) Close() error { return t.c.Close() }

type tcpListener struct {
	ln net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// Phase messages are latency-sensitive request/response pairs;
		// don't let Nagle batch them.
		tc.SetNoDelay(true)
	}
	return &tcpConn{c: c}, nil
}

func (l *tcpListener) Close() error { return l.ln.Close() }

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

// ListenTCP opens the master's TCP listener (addr as in net.Listen, e.g.
// "127.0.0.1:9700" or ":9700").
func ListenTCP(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return &tcpListener{ln: ln}, nil
}

// DialTCP connects a worker to a master's TCP listener.
func DialTCP(addr string, timeout time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &tcpConn{c: c}, nil
}
