package hop

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/sizedio"
)

// The pool keeps http.DefaultTransport's bounds: DefaultMaxIdleConnsPerHost
// per host:port, and idleTimeout, under the servers' netsim.IdleTimeout.
const idleTimeout = 90 * time.Second

// Transport is the RoundTripper behind Shared: pooled keep-alive HTTP/1.1
// connections, each with its own buffered reader and writer, framed by
// wire.go's writeHead and readReply — no connection manager, no goroutine;
// other schemes and proxied requests go to a clone of
// http.DefaultTransport. As there, a request that failed on a reused
// connection is sent again when none of it was written (its body reopened
// through GetBody), or when it is a GET or HEAD and no reply byte came.
type Transport struct {
	dial     func(ctx context.Context, network, addr string) (net.Conn, error)
	fallback *http.Transport
	mu       sync.Mutex
	idle     []*conn // oldest first
}

// NewTransport returns a Transport that dials with dial; nil dials TCP as
// http.DefaultTransport does.
func NewTransport(dial func(ctx context.Context, network, addr string) (net.Conn, error)) *Transport {
	if dial == nil {
		dial = (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext
	}
	return &Transport{dial: dial, fallback: http.DefaultTransport.(*http.Transport).Clone()}
}

// RoundTrip implements http.RoundTripper. The request's context bounds the
// dial, the exchange and the reading of the body.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p, err := http.ProxyFromEnvironment(req); req.URL.Scheme != "http" || p != nil || err != nil {
		return t.fallback.RoundTrip(req)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx, hasBody := req.Context(), req.Body != nil && req.Body != http.NoBody
	idempotent := req.Method == "" || req.Method == http.MethodGet || req.Method == http.MethodHead
	tg, err := newTarget(req)
	for {
		var c *conn
		if err == nil {
			c, err = t.get(ctx, addr)
		}
		if err != nil {
			if hasBody {
				req.Body.Close()
			}
			return nil, err
		}
		resp, err := t.exchange(ctx, c, req, &tg)
		switch {
		case err == nil:
			return resp, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case !c.reused || c.sent > 0 && (c.replied || !idempotent) || hasBody && req.GetBody == nil:
			return nil, err
		case hasBody:
			again := *req
			if again.Body, err = req.GetBody(); err != nil {
				return nil, err
			}
			req = &again
		}
	}
}

// exchange writes req on c and reads the head of its reply, past interim
// 1xx replies (to a forwarded Expect: 100-continue). A reply sent while the
// body was still going out is the answer, as with http.Transport's
// concurrent read: once the socket refuses the rest (the server answered
// and closed), what came first is read; the write's error, if nothing was.
func (t *Transport) exchange(ctx context.Context, c *conn, req *http.Request, tg *target) (*http.Response, error) {
	c.sent, c.broken, c.replied, c.stop = 0, false, false, nil
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Unix(1, 0)) })
	}
	writeHead(c.bw, req, tg)
	var werr error
	if tg.length > 0 {
		if _, inMemory := req.Body.(*payload); !inMemory {
			c.bw.Flush() // as net/http: a body read as it is sent goes after the head
		}
		werr = c.writeBody(req.Body, tg.length)
	}
	if werr == nil {
		werr = c.bw.Flush()
	}
	var resp *http.Response
	err := werr
	if werr == nil || c.sent > 0 && c.broken {
		if _, err = c.br.Peek(1); err == nil {
			c.replied = true
			resp, err = readReply(c.br, &c.head, req)
		}
		if err != nil && werr != nil {
			err = werr
		}
	}
	if err != nil {
		t.release(c, false)
		return nil, err
	}
	keep := werr == nil && !resp.Close && !req.Close
	if b, ok := resp.Body.(*replyBody); ok {
		b.t, b.keep = t, keep
		b.c.Store(c)
	} else {
		t.release(c, keep)
	}
	return resp, nil
}

// writeBody sends n bytes of body, no more, through the buffered writer
// (and so c's ReadFrom) and closes it; a body of another length is an
// error, as with net/http.
func (c *conn) writeBody(body io.ReadCloser, n int64) error {
	defer body.Close()
	c.body, c.unsent = body, n
	sent, err := c.bw.ReadFrom(unsent{c})
	if c.body = nil; err == nil {
		extra, _ := io.Copy(io.Discard, body)
		if sent += extra; sent != n {
			err = fmt.Errorf("http: ContentLength=%d with Body length %d", n, sent)
		}
	}
	return err
}

// unsent reads the rest of the conn's request body: io.LimitReader's
// reader, but no allocation.
type unsent struct{ c *conn }

func (u unsent) Read(p []byte) (int, error) {
	if u.c.unsent <= 0 {
		return 0, io.EOF
	}
	n, err := u.c.body.Read(p[:min(int64(len(p)), u.c.unsent)])
	u.c.unsent -= int64(n)
	return n, err
}

// get takes an idle connection to addr, or dials one. Nothing watches an idle
// connection: one whose peer left is met by the request that takes it.
func (t *Transport) get(ctx context.Context, addr string) (*conn, error) {
	t.mu.Lock()
	t.expireLocked(time.Now())
	if i := slices.IndexFunc(t.idle, func(c *conn) bool { return c.addr == addr }); i >= 0 {
		c := t.idle[i]
		t.idle = slices.Delete(t.idle, i, i+1)
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	nc, err := t.dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, addr: addr, br: bufio.NewReader(nc), head: make([]byte, 0, 512)}
	c.bw = bufio.NewWriter(c)
	return c, nil
}

// release pools c if keep holds, the context never fired and the bound allows.
func (t *Transport) release(c *conn, keep bool) {
	if c.stop != nil && !c.stop() {
		keep = false // the context fired and moved the deadline
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.expireLocked(now)
	same := 0
	for _, o := range t.idle {
		if o.addr == c.addr {
			same++
		}
	}
	if !keep || same >= http.DefaultMaxIdleConnsPerHost {
		c.nc.Close()
		return
	}
	// Only a pooled connection counts as reused: a request that failed on
	// a fresh one is not sent again, else a peer that drops every request
	// would be dialled for ever.
	c.reused, c.idleSince = true, now
	t.idle = append(t.idle, c)
}

func (t *Transport) expireLocked(now time.Time) {
	n := 0
	for ; n < len(t.idle) && now.Sub(t.idle[n].idleSince) >= idleTimeout; n++ {
		t.idle[n].nc.Close()
	}
	t.idle = slices.Delete(t.idle, 0, n)
}

// CloseIdleConnections closes every pooled connection, the fallback's too.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	t.expireLocked(time.Now().Add(idleTimeout)) // every one is that old by then
	t.mu.Unlock()
	t.fallback.CloseIdleConnections()
}

// conn is one keep-alive connection; its buffered writer writes through the
// conn's Write, which keeps count of what the current request put on it.
type conn struct {
	nc        net.Conn
	addr      string
	br        *bufio.Reader
	bw        *bufio.Writer
	head      []byte // the last reply head, read line by line
	body      io.Reader
	unsent    int64 // bytes of body still to send
	idleSince time.Time
	stop      func() bool // stops the watch on the request's context
	sent      int         // bytes of the current request on the socket
	reused    bool        // a request came before the current one
	broken    bool        // a write of the current request failed
	replied   bool        // a byte of its reply came
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.nc.Write(p)
	c.sent, c.broken = c.sent+n, c.broken || err != nil
	return n, err
}

// ReadFrom takes a body from the buffered writer (past its first 4 KB, or
// whole after a flushed head) through sizedio's pool, not the fresh 32 KB
// buffer a TCP connection's own ReadFrom makes per body. Past a request's
// first 32 KB, sink yields before each chunk: a body read as it is sent (an
// inflate) would hold the P for the whole body on the caller's goroutine,
// and a timer or a reply behind it would wait as long (cold_large: -15 % ops).
func (c *conn) ReadFrom(r io.Reader) (int64, error) { return sizedio.Copy(sink{c}, r) }

type sink struct{ c *conn } // the conn's Write alone, so that Copy uses its buffer

func (s sink) Write(p []byte) (int, error) {
	if s.c.sent >= 32<<10 {
		runtime.Gosched()
	}
	return s.c.Write(p)
}
