// Package cyberaide implements the Cyberaide agent of the paper's access
// layer: "To create and submit the job to the Grid, Cyberaide agent
// methods are used. The Cyberaide agent is a Web service and exposes its
// functions as Web methods" (§VI). The agent mediates every Grid
// interaction: MyProxy logon, GridFTP staging, GRAM submission, status
// polling, output retrieval, cancellation.
//
// The agent offers a native Go API (used in-process by onServe, as the
// paper's generated client classes were) and a SOAP facade (SOAPService)
// so remote callers can drive it as a Web service.
package cyberaide

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/gram"
	"repro/internal/gridftp"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/jsdl"
	"repro/internal/metrics"
	"repro/internal/myproxy"
	"repro/internal/trace"
	"repro/internal/xsec"
)

// DefaultProxyLifetime is the delegated proxy lifetime per session.
const DefaultProxyLifetime = 12 * time.Hour

// Errors.
var (
	ErrNoSession   = errors.New("cyberaide: no such session (authenticate first)")
	ErrExpired     = errors.New("cyberaide: session proxy expired")
	ErrUnknownSite = errors.New("cyberaide: no GridFTP endpoint for site")
)

// Endpoints locates the production Grid's access points.
type Endpoints struct {
	// GramURL is the gatekeeper root.
	GramURL string
	// MyProxyAddr is the credential repository's TCP address.
	MyProxyAddr string
	// FTPURLs maps site name to that site's GridFTP root.
	FTPURLs map[string]string
}

// Session is one authenticated user context holding a delegated proxy.
type Session struct {
	ID       string
	Identity string
	proxy    *xsec.Credential
	gram     *gram.Client
	ftps     map[string]*gridftp.Client
}

// Agent mediates between the access layer and the Grid.
//
// The session table lives behind a pointer so that WithTrace can return
// a cheap shallow copy of the Agent: every copy shares the one table
// (and its lock) while carrying its own trace context.
type Agent struct {
	endpoints Endpoints
	probe     *metrics.Probe
	cost      metrics.Cost
	// rt carries GRAM and GridFTP traffic; dial makes MyProxy's
	// connection (see Options).
	rt   http.RoundTripper
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	state *sessionTable
	trace trace.SpanContext
}

// sessionTable is the shared mutable state of all WithTrace copies.
type sessionTable struct {
	mu       sync.Mutex
	sessions map[string]*Session
	logons   uint64 // sessions ever opened
}

// Options configures New.
type Options struct {
	Endpoints Endpoints
	Probe     *metrics.Probe
	Cost      metrics.Cost
	// Dial reaches the grid: MyProxy's TCP connection, and GRAM's and
	// GridFTP's through hop.NewTransport(Dial) unless Transport is set. Nil
	// dials TCP.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Transport carries GRAM and GridFTP traffic in Dial's place; nil
	// means hop.Shared() when Dial is nil too.
	Transport http.RoundTripper
}

// New builds an agent.
func New(opts Options) *Agent {
	rt := opts.Transport
	if rt == nil && opts.Dial != nil {
		rt = hop.NewTransport(opts.Dial)
	}
	return &Agent{
		endpoints: opts.Endpoints,
		probe:     opts.Probe,
		cost:      opts.Cost,
		rt:        rt,
		dial:      opts.Dial,
		state:     &sessionTable{sessions: make(map[string]*Session)},
	}
}

// WithTrace returns an agent view whose Grid requests carry sc in the
// X-Grid-Trace header, so the myproxy/gridftp/gram servers parent their
// spans under the caller's span. The view shares the session table with
// the receiver. An invalid context returns the receiver unchanged —
// with tracing off this costs nothing.
func (a *Agent) WithTrace(sc trace.SpanContext) *Agent {
	if !sc.Valid() {
		return a
	}
	b := *a
	b.trace = sc
	return &b
}

// gramFor returns the session's GRAM client, or one like it stamped with
// the agent's trace context when one is set: the shared session client
// stays immutable under concurrent invocations.
func (a *Agent) gramFor(sess *Session) *gram.Client {
	if !a.trace.Valid() {
		return sess.gram
	}
	c := sess.gram
	return &gram.Client{BaseURL: c.BaseURL, Cred: c.Cred, Transport: c.Transport, Trace: a.trace.String()}
}

// ftpFor is gramFor for a site's GridFTP client.
func (a *Agent) ftpFor(sess *Session, site string) (*gridftp.Client, bool) {
	ftp, ok := sess.ftps[site]
	if !ok || !a.trace.Valid() {
		return ftp, ok
	}
	return &gridftp.Client{BaseURL: ftp.BaseURL, Cred: ftp.Cred, Transport: ftp.Transport, Trace: a.trace.String()}, true
}

// Authenticate performs a MyProxy logon, obtaining a freshly delegated
// proxy, and opens a session. This is the "security credential request
// and the associated answer" whose traffic dominates Fig. 6 for small
// payloads. It is also where the session table is bounded: every session
// whose proxy has expired — Session answers ErrExpired for it already, and
// nobody may ever log it out — is dropped as the new one goes in, so an
// owner who logs on once per proxy lifetime holds one session, not one per
// lifetime. A session whose proxy is still valid is never touched.
func (a *Agent) Authenticate(user, passphrase string, lifetime time.Duration) (*Session, error) {
	if lifetime <= 0 {
		lifetime = DefaultProxyLifetime
	}
	a.probe.Burn(a.cost.Auth)
	mp := &myproxy.Client{Addr: a.endpoints.MyProxyAddr, Dial: a.dial, Trace: a.trace.String()}
	proxy, err := mp.Get(user, passphrase, lifetime)
	if err != nil {
		return nil, fmt.Errorf("cyberaide: myproxy logon for %q: %w", user, err)
	}
	sess := &Session{
		ID:       newSessionID(),
		Identity: xsec.Identity(proxy.Chain),
		proxy:    proxy,
		gram:     &gram.Client{BaseURL: a.endpoints.GramURL, Cred: proxy, Transport: a.rt},
		ftps:     make(map[string]*gridftp.Client, len(a.endpoints.FTPURLs)),
	}
	for site, url := range a.endpoints.FTPURLs {
		sess.ftps[site] = &gridftp.Client{BaseURL: url, Cred: proxy, Transport: a.rt}
	}
	now := time.Now()
	a.state.mu.Lock()
	for id, old := range a.state.sessions {
		if !old.validAt(now) {
			delete(a.state.sessions, id)
		}
	}
	a.state.sessions[sess.ID] = sess
	a.state.logons++
	a.state.mu.Unlock()
	return sess, nil
}

// validAt reports whether the session's proxy is inside its lifetime.
func (s *Session) validAt(now time.Time) bool {
	leaf := s.proxy.Leaf()
	return leaf != nil && leaf.ValidAt(now)
}

// Session resolves a session ID, rejecting expired proxies.
func (a *Agent) Session(id string) (*Session, error) {
	a.state.mu.Lock()
	sess, ok := a.state.sessions[id]
	a.state.mu.Unlock()
	if !ok {
		return nil, ErrNoSession
	}
	if !sess.validAt(time.Now()) {
		return nil, ErrExpired
	}
	return sess, nil
}

// Logout discards a session.
func (a *Agent) Logout(id string) {
	a.state.mu.Lock()
	delete(a.state.sessions, id)
	a.state.mu.Unlock()
}

// SessionCount reports open sessions (monitoring).
func (a *Agent) SessionCount() int {
	a.state.mu.Lock()
	defer a.state.mu.Unlock()
	return len(a.state.sessions)
}

// Logons reports how many sessions Authenticate has opened so far,
// logged out since or not.
func (a *Agent) Logons() uint64 {
	a.state.mu.Lock()
	defer a.state.mu.Unlock()
	return a.state.logons
}

// SiteURL reports the GridFTP endpoint configured for site.
func (a *Agent) SiteURL(site string) (string, bool) {
	url, ok := a.endpoints.FTPURLs[site]
	return url, ok
}

// Sites lists the sites the agent can stage to, sorted so callers see a
// deterministic order rather than map iteration order.
func (a *Agent) Sites() []string {
	out := make([]string, 0, len(a.endpoints.FTPURLs))
	for s := range a.endpoints.FTPURLs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ftp resolves the GridFTP client a session stages to site with.
func (a *Agent) ftp(sessionID, site string) (*gridftp.Client, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	ftp, ok := a.ftpFor(sess, site)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSite, site)
	}
	return ftp, nil
}

// Upload stages data to a site's GridFTP server under the session
// identity. It returns the content checksum the server confirmed.
func (a *Agent) Upload(sessionID, site, name string, data []byte) (string, error) {
	return a.UploadFile(sessionID, site, name, gridftp.BytesFile(data, nil))
}

// UploadFile is Upload of a file read as it is sent: one PUT at the
// file's declared length.
func (a *Agent) UploadFile(sessionID, site, name string, f gridftp.File) (string, error) {
	ftp, err := a.ftp(sessionID, site)
	if err != nil {
		return "", err
	}
	checksum, err := ftp.PutFile(name, f)
	if err != nil {
		return "", fmt.Errorf("cyberaide: stage %s to %s: %w", name, site, err)
	}
	return checksum, nil
}

// UploadChunked stages a file via the chunked, content-addressed GridFTP
// protocol, in chunks of gridftp.DefaultChunkBytes: probe the site for
// chunks it already holds, ship only the missing ones, commit the
// manifest. f.Gzip, when non-nil, rides the wire
// in place of the file's bytes when smaller (the site inflates at commit).
// Against a site whose server does not speak the chunk protocol the
// transfer silently downgrades to a plain PUT — see the returned stats'
// Fallback field.
func (a *Agent) UploadChunked(sessionID, site, name string, f gridftp.File) (*gridftp.ChunkedPutStats, error) {
	ftp, err := a.ftp(sessionID, site)
	if err != nil {
		return nil, err
	}
	stats, err := ftp.PutChunkedFile(name, f, gridftp.DefaultChunkBytes)
	if err != nil {
		return nil, fmt.Errorf("cyberaide: stage %s to %s (chunked): %w", name, site, err)
	}
	return stats, nil
}

// HaveChunks asks one site's GridFTP server which of the wire-chunk
// digests it does not hold — the dedup/resume probe reused by
// data-aware placement as a possession oracle. Oversized digest lists
// are batched by the client transparently.
func (a *Agent) HaveChunks(sessionID, site string, digests []string) ([]string, error) {
	ftp, err := a.ftp(sessionID, site)
	if err != nil {
		return nil, err
	}
	missing, err := ftp.HaveChunks(digests)
	if err != nil {
		return nil, fmt.Errorf("cyberaide: probe chunks at %s: %w", site, err)
	}
	return missing, nil
}

// Replicate performs a GridFTP third-party transfer: the toSite server
// pulls name directly from the fromSite server under the session
// identity, so the bytes never cross the agent's own (WAN) path.
func (a *Agent) Replicate(sessionID, fromSite, toSite, name string) (string, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return "", err
	}
	srcURL, ok := a.endpoints.FTPURLs[fromSite]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownSite, fromSite)
	}
	dst, ok := a.ftpFor(sess, toSite)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownSite, toSite)
	}
	checksum, err := dst.FetchFrom(srcURL, name)
	if err != nil {
		return "", fmt.Errorf("cyberaide: replicate %s %s->%s: %w", name, fromSite, toSite, err)
	}
	return checksum, nil
}

// Submit sends a job description through GRAM. The description's owner
// is forced to the session identity — the gatekeeper rejects anything
// else anyway.
func (a *Agent) Submit(sessionID string, desc *jsdl.Description) (string, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return "", err
	}
	d := *desc
	d.Owner = sess.Identity
	jobID, err := a.gramFor(sess).Submit(&d)
	if err != nil {
		return "", fmt.Errorf("cyberaide: submit: %w", err)
	}
	return jobID, nil
}

// Status polls a job.
func (a *Agent) Status(sessionID, jobID string) (*gram.StatusReply, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	return a.gramFor(sess).Status(jobID)
}

// StatusBatch polls many jobs in one gatekeeper round-trip per
// gram.MaxBatch chunk; per-job failures come back in each entry's Error
// field (the tick primitive of push's fallback polling).
func (a *Agent) StatusBatch(sessionID string, jobIDs []string) ([]gram.BatchEntry, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	return a.gramFor(sess).StatusBatch(jobIDs)
}

// OutputIfChanged fetches the job's stdout only when its output version
// moved past since; an unchanged snapshot costs zero body bytes.
func (a *Agent) OutputIfChanged(sessionID, jobID string, since uint64) (out string, version uint64, changed bool, err error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return "", 0, false, err
	}
	return a.gramFor(sess).OutputIfChanged(jobID, since)
}

// Events opens the session's long-lived gatekeeper event stream,
// resuming after cursor since. ErrNoEvents surfaces unwrapped so the
// collector can fall back to polling against a stock gatekeeper.
func (a *Agent) Events(sessionID string, since uint64) (*gram.EventStream, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	return a.gramFor(sess).Events(sessionID, since)
}

// Output fetches the job's stdout snapshot (tentative polling target).
func (a *Agent) Output(sessionID, jobID string) (string, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return "", err
	}
	return a.gramFor(sess).Output(jobID)
}

// OutputFile fetches a named output artifact.
func (a *Agent) OutputFile(sessionID, jobID, name string) ([]byte, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	return a.gramFor(sess).OutputFile(jobID, name)
}

// Cancel stops a job.
func (a *Agent) Cancel(sessionID, jobID string) (*gram.StatusReply, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	return a.gramFor(sess).Cancel(jobID)
}

// Usage fetches the session identity's per-site accounting.
func (a *Agent) Usage(sessionID string) ([]gridsim.SiteUsage, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	return a.gramFor(sess).Usage()
}

// GridStats fetches scheduler statistics from the gatekeeper.
func (a *Agent) GridStats(sessionID string) ([]gridsim.SiteStats, error) {
	sess, err := a.Session(sessionID)
	if err != nil {
		return nil, err
	}
	return a.gramFor(sess).Sites()
}

func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cyberaide: entropy unavailable: " + err.Error())
	}
	return "sess-" + hex.EncodeToString(b[:])
}
