// Package hoptest holds the faults of a hop for tests of hop's users: a
// pooled connection's, and a fault table to send every request through.
package hoptest

import (
	"bufio"
	"cmp"
	"errors"
	"io"
	"net"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// DeadOnReuse, returned by a hop.NewTransport dial, is a connection whose peer
// left while it sat in the pool: once Armed, a write fails with nothing written.
type DeadOnReuse struct {
	net.Conn
	Armed *atomic.Bool
}

func (c DeadOnReuse) Write(p []byte) (int, error) {
	if c.Armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("connection reset by peer")
	}
	return c.Conn.Write(p)
}

// Faults is a fault table, a transport for a hop's user to send through:
// a list of rules, each a request match, a "when", and one action — fail,
// refuse the dial, lose the reply, hold until released, answer, rewrite the
// reply stream, break the request body after k bytes, or watch — or none,
// which only counts. A request meets the rules in the order they were
// added; the first whose match and when hold applies its action, which may
// send the request on down the list; past the last rule it goes to Out.
type Faults struct {
	Out   http.RoundTripper
	mu    sync.Mutex
	rules []*Rule
}

// Rule is one row of a fault table.
type Rule struct {
	// Match is "[METHOD ]pattern", the pattern as path.Match reads it
	// ("PUT /ftp/*" is a file upload and no chunk); empty matches all.
	Match string
	// When, if set, must hold too, when the request is made.
	When func(*http.Request) bool
	// N bounds how many requests the rule applies to; 0 is every one.
	N int64
	// Do is the action; nil only counts.
	Do Action
	// Hits counts the requests the rule applied to.
	Hits atomic.Int64
}

// Action does a rule's one thing to req, which it may send on.
type Action func(req *http.Request, on Path) (*http.Response, error)

// Path is where an action sends a request on: Next down the table past
// its rule, or Top from the table's first rule, as a replay.
type Path struct {
	ft   *Faults
	rest []*Rule
}

func (p Path) Next(req *http.Request) (*http.Response, error) { return p.ft.from(p.rest, req) }
func (p Path) Top(req *http.Request) (*http.Response, error)  { return p.ft.RoundTrip(req) }

// Add appends rules to the table; requests already past it do not see them.
func (ft *Faults) Add(rules ...*Rule) {
	ft.mu.Lock()
	ft.rules = append(ft.rules[:len(ft.rules):len(ft.rules)], rules...)
	ft.mu.Unlock()
}

func (ft *Faults) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	rules := ft.rules
	ft.mu.Unlock()
	return ft.from(rules, req)
}

// CloseIdleConnections closes Out's idle connections, where it keeps any.
func (ft *Faults) CloseIdleConnections() {
	if c, ok := ft.Out.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (ft *Faults) from(rules []*Rule, req *http.Request) (*http.Response, error) {
	for i, r := range rules {
		if r.applies(req) && r.Do != nil {
			return r.Do(req, Path{ft, rules[i+1:]})
		}
	}
	return ft.Out.RoundTrip(req)
}

// applies reports whether r takes req, and counts it in Hits if so.
func (r *Rule) applies(req *http.Request) bool {
	method, pattern, ok := strings.Cut(r.Match, " ")
	if !ok {
		method, pattern = "", r.Match
	}
	if method != "" && method != req.Method {
		return false
	}
	if matched, _ := path.Match(pattern, req.URL.Path); pattern != "" && !matched {
		return false
	}
	if r.When != nil && !r.When(req) {
		return false
	}
	for {
		h := r.Hits.Load()
		if r.N > 0 && h >= r.N {
			return false
		}
		if r.Hits.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// Flag is a When that holds while its value is true.
func Flag(b *atomic.Bool) func(*http.Request) bool {
	return func(*http.Request) bool { return b.Load() }
}

// ErrInjected is the error of Fail and Lose.
var ErrInjected = errors.New("injected fault: connection reset by peer")

// Fail drops the request as a broken connection does.
func Fail(req *http.Request, _ Path) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return nil, ErrInjected
}

// Refuse fails the request as a dial to a closed port does: not one byte
// of it was sent.
func Refuse(req *http.Request, on Path) (*http.Response, error) {
	Fail(req, on)
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

// Replace sends the request on, drops its reply, and answers as a does:
// the far side acted on a request whose reply the caller never sees.
func Replace(a Action) Action {
	return func(req *http.Request, on Path) (*http.Response, error) {
		if resp, err := on.Next(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return a(req, on)
	}
}

// Lose is a connection that breaks once the far side has acted: it did
// the work, the caller hears only ErrInjected.
var Lose = Replace(Fail)

// Gate holds requests until it opens; Arrived is closed once the first is
// held.
type Gate struct {
	Arrived, release chan struct{}
	once             sync.Once
}

func NewGate() *Gate { return &Gate{Arrived: make(chan struct{}), release: make(chan struct{})} }

func (g *Gate) Open() { close(g.release) }

func (g *Gate) wait() { g.once.Do(func() { close(g.Arrived) }); <-g.release }

// Hold parks each request at g until g opens: before it is sent or, with
// reply, once its reply is in — the far side has acted, the caller has
// not heard.
func Hold(g *Gate, reply bool) Action {
	return func(req *http.Request, on Path) (*http.Response, error) {
		if !reply {
			g.wait()
			return on.Next(req)
		}
		resp, err := on.Next(req)
		g.wait()
		return resp, err
	}
}

// Respond consumes the request as a server would and replies status with
// body, as JSON unless header (name, value pairs) names another type. A
// reply whose header names a Transfer-Encoding declares no length.
func Respond(status int, body string, header ...string) Action {
	return func(req *http.Request, _ Path) (*http.Response, error) {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		h := http.Header{"Content-Type": {"application/json"}}
		for i := 0; i+1 < len(header); i += 2 {
			h[header[i]] = []string{header[i+1]}
		}
		length := int64(len(body))
		if h["Transfer-Encoding"] != nil {
			length = -1
		}
		return &http.Response{StatusCode: status, Header: h, Body: io.NopCloser(strings.NewReader(body)),
			ContentLength: length, Request: req}, nil
	}
}

// Answer replies status with msg as the JSON error.
func Answer(status int, msg string) Action {
	return Respond(status, `{"error":`+strconv.Quote(msg)+`}`)
}

// Rewrite passes a 200 reply's stream through edit a line at a time;
// frame counts the blank lines (ends of frames) before the line. A nil
// result drops the line; an error cuts the stream there.
func Rewrite(edit func(frame int, line []byte) ([]byte, error)) Action {
	return func(req *http.Request, on Path) (*http.Response, error) {
		resp, err := on.Next(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			return resp, err
		}
		body := resp.Body
		pr, pw := io.Pipe()
		go func() {
			br := bufio.NewReader(body)
			for frame := 0; ; {
				line, err := br.ReadBytes('\n')
				out, cut := edit(frame, line)
				if string(line) == "\n" {
					frame++
				}
				if cut == nil && len(out) > 0 {
					_, cut = pw.Write(out)
				}
				if cut != nil || err != nil {
					pw.CloseWithError(cmp.Or(cut, err))
					body.Close()
					return
				}
			}
		}()
		resp.Body = struct {
			io.Reader
			io.Closer
		}{pr, closerFunc(func() error { body.Close(); return pr.Close() })}
		return resp, nil
	}
}

type closerFunc func() error

func (c closerFunc) Close() error { return c() }

// BreakAfter reads k bytes of the request's body, waits, and drops the
// connection. With replay it then sends the request again on a fresh
// body, as hop does when the pooled connection it picked was dead.
func BreakAfter(k int64, wait time.Duration, replay bool) Action {
	return func(req *http.Request, on Path) (*http.Response, error) {
		io.CopyN(io.Discard, req.Body, k)
		time.Sleep(wait)
		req.Body.Close()
		if !replay {
			return nil, ErrInjected
		}
		again, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = again
		return on.Top(req)
	}
}

// Watch keeps what it sees pass: each request body (to check later that
// it was closed), the bytes read off them, and the 201 Created replies.
type Watch struct {
	mu            sync.Mutex
	bodies        []io.ReadCloser
	Sent, Created atomic.Int64
}

func (w *Watch) Do(req *http.Request, on Path) (*http.Response, error) {
	w.mu.Lock()
	w.bodies = append(w.bodies, req.Body)
	w.mu.Unlock()
	req.Body = countedBody{req.Body, &w.Sent}
	resp, err := on.Next(req)
	// A replay crossed the watch too: its reply is counted there.
	if err == nil && resp.StatusCode == http.StatusCreated && resp.Request == req {
		w.Created.Add(1)
	}
	return resp, err
}

// Bodies are the request bodies w has seen, in order.
func (w *Watch) Bodies() []io.ReadCloser {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bodies[:len(w.bodies):len(w.bodies)]
}

// countedBody counts the bytes read off a request body.
type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c countedBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}
