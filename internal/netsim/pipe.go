package netsim

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// Net is an in-process network. Listen hands out listeners at pipe
// addresses, and DialContext connects to one over a pair of in-memory
// streams, buffered both ways as a socket is. Every wait on it — an
// Accept, a Read, a dial — is a channel operation, so in a
// testing/synctest bubble a goroutine blocked there is durably blocked and
// the bubble's clock can move; one blocked on a kernel socket would hold
// it.
type Net struct {
	mu  sync.Mutex
	seq int
	lns map[string]*pipeListener
}

// NewNet returns an empty network.
func NewNet() *Net { return &Net{lns: make(map[string]*pipeListener)} }

// Listen opens a listener at a fresh address ("pipe<n>:80").
func (n *Net) Listen() net.Listener {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	addr := &net.UnixAddr{Net: "pipe", Name: fmt.Sprintf("pipe%d:80", n.seq)}
	l := &pipeListener{net: n, addr: addr, conns: make(chan net.Conn), closed: make(chan struct{})}
	n.lns[addr.Name] = l
	return l
}

// DialContext connects to the listener at addr; with none there it fails
// as a refused TCP dial does. It is the dial hop.NewTransport,
// myproxy.Client and appliance.Config.GridDial take.
func (n *Net) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.lns[addr]
	n.mu.Unlock()
	refused := &net.OpError{Op: "dial", Net: "pipe", Err: syscall.ECONNREFUSED}
	if l == nil {
		return nil, refused
	}
	up, down := newHalf(), newHalf()
	select {
	case l.conns <- newPipeConn(up, down, l.addr):
		return newPipeConn(down, up, l.addr), nil
	case <-l.closed:
		return nil, refused
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeListener struct {
	net    *Net
	addr   *net.UnixAddr
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close takes the address off the network; a later dial to it is refused.
func (l *pipeListener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.lns, l.addr.Name)
		l.net.mu.Unlock()
		close(l.closed)
	})
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// half is one direction of a pipe: an unbounded byte queue, so a writer
// never waits for its reader — a server may answer before it has read
// the request body, as over a socket.
type half struct {
	mu    sync.Mutex
	buf   []byte
	eof   bool          // the writer closed: reads drain buf, then io.EOF
	gone  bool          // the reader closed: writes fail
	ready chan struct{} // capacity one: buf grew, or the writer closed
}

func newHalf() *half { return &half{ready: make(chan struct{}, 1)} }

// notify leaves a token in a capacity-one channel unless one is there.
func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pipeConn is one end of a pipe: it reads in and writes out. Both ends
// report the listener's address as local and remote. A read deadline is
// on the time package's clock, as net.Conn's is (in a bubble, virtual); a
// Write never waits, so it has none.
type pipeConn struct {
	in, out *half
	addr    net.Addr
	closed  chan struct{}
	once    sync.Once

	mu    sync.Mutex
	rdl   time.Time
	timer *time.Timer   // fires moved when rdl passes
	moved chan struct{} // capacity one: the read deadline moved or passed
}

func newPipeConn(in, out *half, addr net.Addr) *pipeConn {
	return &pipeConn{in: in, out: out, addr: addr, closed: make(chan struct{}), moved: make(chan struct{}, 1)}
}

func (c *pipeConn) Read(p []byte) (int, error) {
	for {
		c.mu.Lock()
		rdl := c.rdl
		c.mu.Unlock()
		select {
		case <-c.closed:
			return 0, net.ErrClosed
		default:
		}
		if !rdl.IsZero() && !time.Now().Before(rdl) {
			return 0, os.ErrDeadlineExceeded
		}
		c.in.mu.Lock()
		n := copy(p, c.in.buf)
		if c.in.buf = c.in.buf[n:]; len(c.in.buf) == 0 {
			c.in.buf = nil
		}
		eof := c.in.eof
		c.in.mu.Unlock()
		switch {
		case n > 0 || len(p) == 0:
			return n, nil
		case eof:
			return 0, io.EOF
		}
		select {
		case <-c.in.ready:
		case <-c.closed:
		case <-c.moved:
		}
	}
}

func (c *pipeConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	c.out.mu.Lock()
	gone := c.out.gone
	if !gone {
		c.out.buf = append(c.out.buf, p...)
	}
	c.out.mu.Unlock()
	if gone {
		return 0, &net.OpError{Op: "write", Net: "pipe", Addr: c.addr, Err: syscall.EPIPE}
	}
	notify(c.out.ready)
	return len(p), nil
}

// Close ends both directions: the peer reads what was written, then EOF,
// and its writes fail; a Read blocked on this end returns.
func (c *pipeConn) Close() error {
	c.once.Do(func() {
		close(c.closed)
		c.in.mu.Lock()
		c.in.gone, c.in.buf = true, nil
		c.in.mu.Unlock()
		c.out.mu.Lock()
		c.out.eof = true
		c.out.mu.Unlock()
		notify(c.out.ready)
	})
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr  { return c.addr }
func (c *pipeConn) RemoteAddr() net.Addr { return c.addr }

func (c *pipeConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline moves the deadline and wakes a blocked Read to heed it,
// now and when it passes.
func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	if c.rdl = t; c.timer != nil {
		c.timer.Stop()
	}
	if !t.IsZero() {
		c.timer = time.AfterFunc(time.Until(t), func() { notify(c.moved) })
	}
	c.mu.Unlock()
	notify(c.moved)
	return nil
}

// SetWriteDeadline implements net.Conn; a Write never waits.
func (c *pipeConn) SetWriteDeadline(time.Time) error { return nil }
