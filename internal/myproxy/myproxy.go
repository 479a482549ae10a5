// Package myproxy reimplements the MyProxy online credential repository
// the paper's Grid layer lists ("The production Grid Layer comprises all
// Grid related services and tools (for example MyProxy, CoG Kit, etc.)").
//
// Users store a long-lived proxy credential under a passphrase; services
// acting on the user's behalf (the Cyberaide agent) later log on with the
// passphrase and receive a freshly delegated short-lived proxy — never the
// stored private key's full lifetime. The protocol is a hand-rolled
// length-prefixed JSON exchange over TCP, one request per connection, in
// the spirit of the original MyProxy text protocol.
package myproxy

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/errcode"
	"repro/internal/flatjson"
	"repro/internal/jsonwarm"
	"repro/internal/trace"
	"repro/internal/xsec"
)

// Protocol limits.
const (
	// MaxMessage bounds a single protocol message; credentials are small.
	MaxMessage = 1 << 20
	// DefaultLifetime is the delegated proxy lifetime when the client does
	// not request one (MyProxy's historical default is 12 hours).
	DefaultLifetime = 12 * time.Hour
)

// Errors surfaced to clients as response codes and re-materialised by
// the client into these values (sentinels).
var (
	ErrNoSuchUser    = errors.New("myproxy: no credential stored for user")
	ErrBadPassphrase = errors.New("myproxy: bad passphrase")
	ErrExpired       = errors.New("myproxy: stored credential expired")
	ErrProtocol      = errors.New("myproxy: protocol error")
)

// Op names the protocol operations.
type Op string

// Protocol operations.
const (
	OpPut Op = "put" // store a credential
	OpGet Op = "get" // retrieve a freshly delegated proxy
)

// The types this package sends through encoding/json (jsonwarm).
func init() { jsonwarm.List(request{}, response{}) }

// request is the single wire message a client sends. Trace carries the
// caller's X-Grid-Trace context (the TCP protocol has no headers, so the
// wire string rides in the message itself).
type request struct {
	Op         Op              `json:"op"`
	User       string          `json:"user"`
	Passphrase string          `json:"passphrase"`
	Credential json.RawMessage `json:"credential,omitempty"`
	LifetimeS  int64           `json:"lifetime_s,omitempty"`
	Trace      string          `json:"trace,omitempty"`
}

// response is the single wire message the server answers with. A refusal
// names its cause by an errcode code.
type response struct {
	OK         bool            `json:"ok"`
	Code       string          `json:"code,omitempty"`
	Error      string          `json:"error,omitempty"`
	Credential json.RawMessage `json:"credential,omitempty"`
}

// sentinels names the error each code of a refusal stands for; a refusal
// under another code is an error of its message alone.
var sentinels = map[string]error{
	errcode.NotFound:     ErrNoSuchUser,
	errcode.Unauthorized: ErrBadPassphrase,
	errcode.Forbidden:    ErrExpired,
}

type stored struct {
	cred     *xsec.Credential
	passHash [32]byte
	salt     [16]byte
}

// Server is the repository. Serve accepts connections from any
// net.Listener (including a netsim-shaped one).
type Server struct {
	tracer *trace.Tracer

	mu    sync.Mutex
	creds map[string]*stored
	wg    sync.WaitGroup
	ln    net.Listener
}

// NewServer returns an empty repository.
func NewServer() *Server {
	return &Server{creds: make(map[string]*stored)}
}

// Serve accepts and handles connections until the listener closes. It
// always returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(c)
		}()
	}
}

// Close stops the listener passed to Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return nil
	}
	return ln.Close()
}

// SetTracer enables request tracing: traced requests record one
// "myproxy.<op>" span. Call before Serve; a nil tracer keeps tracing
// off.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

func (s *Server) handle(c net.Conn) {
	defer c.Close()
	var req request
	if err := readMsg(c, &req); err != nil {
		writeMsg(c, response{Code: errcode.BadRequest, Error: ErrProtocol.Error()})
		return
	}
	resp := s.dispatch(&req)
	writeMsg(c, resp)
}

func (s *Server) dispatch(req *request) response {
	// The trace context is decoded before the passphrase check; malformed
	// contexts degrade to "untraced", never to a rejection.
	var sp *trace.Span
	if s.tracer != nil {
		if tc, ok := trace.Parse(req.Trace); ok {
			sp = s.tracer.StartSpan("myproxy."+string(req.Op), tc)
			sp.Set("user", req.User)
		}
	}
	var resp response
	switch req.Op {
	case OpPut:
		resp = s.put(req)
	case OpGet:
		resp = s.get(req)
	default:
		resp = response{Code: errcode.BadRequest, Error: fmt.Sprintf("myproxy: unknown op %q", req.Op)}
	}
	if resp.Error != "" {
		sp.Error(resp.Error)
	}
	sp.End()
	return resp
}

func (s *Server) put(req *request) response {
	cred, err := xsec.UnmarshalCredential(req.Credential)
	if err != nil || cred.Leaf() == nil {
		return response{Code: errcode.BadRequest, Error: ErrProtocol.Error() + ": bad credential"}
	}
	var salt [16]byte
	if _, err := rand.Read(salt[:]); err != nil {
		return response{Code: errcode.Internal, Error: "myproxy: entropy unavailable"}
	}
	st := &stored{
		cred:     cred,
		salt:     salt,
		passHash: hashPass(salt, req.Passphrase),
	}
	s.mu.Lock()
	s.creds[req.User] = st
	s.mu.Unlock()
	return response{OK: true}
}

func (s *Server) get(req *request) response {
	s.mu.Lock()
	st, ok := s.creds[req.User]
	s.mu.Unlock()
	if !ok {
		return response{Code: errcode.NotFound, Error: ErrNoSuchUser.Error()}
	}
	want := hashPass(st.salt, req.Passphrase)
	if subtle.ConstantTimeCompare(want[:], st.passHash[:]) != 1 {
		return response{Code: errcode.Unauthorized, Error: ErrBadPassphrase.Error()}
	}
	now := time.Now()
	if !st.cred.Leaf().ValidAt(now) {
		return response{Code: errcode.Forbidden, Error: ErrExpired.Error()}
	}
	lifetime := DefaultLifetime
	if req.LifetimeS > 0 {
		lifetime = time.Duration(req.LifetimeS) * time.Second
	}
	proxy, err := st.cred.Delegate(now, lifetime)
	if err != nil {
		return response{Code: errcode.Internal, Error: err.Error()}
	}
	b, err := proxy.Marshal()
	if err != nil {
		return response{Code: errcode.Internal, Error: err.Error()}
	}
	return response{OK: true, Credential: b}
}

func hashPass(salt [16]byte, pass string) [32]byte {
	h := sha256.New()
	h.Write(salt[:])
	io.WriteString(h, pass)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Client talks to a Server. Dial defaults to a net.Dialer's; override it
// to route through a shaped netsim.Dialer.
type Client struct {
	Addr string
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Trace, when non-empty, rides every request so the server parents
	// its spans under the caller's.
	Trace string
}

func (c *Client) dial() (net.Conn, error) {
	d := c.Dial
	if d == nil {
		d = (&net.Dialer{}).DialContext
	}
	return d(context.TODO(), "tcp", c.Addr) // Get and Put take no context
}

func (c *Client) roundTrip(req request) (*response, error) {
	msg, err := c.exchange(req)
	if err != nil {
		return nil, err
	}
	return decodeResponse(msg)
}

// exchange sends req and returns the server's answer, undecoded.
func (c *Client) exchange(req request) ([]byte, error) {
	req.Trace = c.Trace
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("myproxy: dial %s: %w", c.Addr, err)
	}
	defer conn.Close()
	if err := writeMsg(conn, req); err != nil {
		return nil, err
	}
	return readBody(conn)
}

// decodeResponse decodes an answer; a refusal becomes its error.
func decodeResponse(msg []byte) (*response, error) {
	var resp response
	if err := json.Unmarshal(msg, &resp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if !resp.OK {
		if err, ok := sentinels[resp.Code]; ok {
			return nil, err
		}
		return nil, errors.New(resp.Error)
	}
	return &resp, nil
}

// Put stores cred for user under passphrase.
func (c *Client) Put(user, passphrase string, cred *xsec.Credential) error {
	b, err := cred.Marshal()
	if err != nil {
		return err
	}
	_, err = c.roundTrip(request{Op: OpPut, User: user, Passphrase: passphrase, Credential: b})
	return err
}

// Get logs on and returns a freshly delegated proxy valid for lifetime.
func (c *Client) Get(user, passphrase string, lifetime time.Duration) (*xsec.Credential, error) {
	msg, err := c.exchange(request{
		Op: OpGet, User: user, Passphrase: passphrase,
		LifetimeS: int64(lifetime / time.Second),
	})
	if err != nil {
		return nil, err
	}
	return decodeGet(msg)
}

// decodeGet reads Get's answer. The one a server writes on success,
// {"ok":true,"credential":{…}} around a credential in Marshal's shape, is
// walked once and the credential decoded where it stands; any other
// answer goes, as the same bytes, to encoding/json.
func decodeGet(msg []byte) (*xsec.Credential, error) {
	if cred, ok := getResponse(msg); ok {
		return cred, nil
	}
	resp, err := decodeResponse(msg)
	if err != nil {
		return nil, err
	}
	return xsec.UnmarshalCredential(resp.Credential)
}

// getResponse is decodeGet's walk: ok false leaves msg to encoding/json.
func getResponse(msg []byte) (*xsec.Credential, bool) {
	var granted bool
	var raw []byte
	o := flatjson.Open(msg)
	for o.Next() {
		switch string(o.Key()) {
		case "ok":
			granted = o.Bool()
		case "credential":
			raw = o.Raw()
		default:
			o.Fail()
		}
	}
	if !o.Done() || !granted || raw == nil {
		return nil, false
	}
	return xsec.DecodeCredential(raw)
}

// readMsg reads one length-prefixed JSON message.
func readMsg(r io.Reader, v any) error {
	buf, err := readBody(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return nil
}

// readBody reads one length-prefixed message, undecoded.
func readBody(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: short length: %v", ErrProtocol, err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxMessage {
		return nil, fmt.Errorf("%w: message of %d bytes exceeds limit", ErrProtocol, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: short body: %v", ErrProtocol, err)
	}
	return buf, nil
}

// writeMsg writes one length-prefixed JSON message.
func writeMsg(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(b)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
