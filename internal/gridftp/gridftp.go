// Package gridftp implements the staging service of the reproduction's
// Grid layer: the paper's executables are "uploaded to the Grid by using
// the functions provided by the Cyberaide agent" over GridFTP-class
// transfers, and the transfer time over the WAN link is the dominant cost
// of Fig. 7 ("It takes about 60 seconds to upload the file to the Grid
// node. The transfer rate is almost constant all the time at about 80 to
// 90 KB/s").
//
// The protocol is HTTP: PUT/GET/DELETE under /ftp/, authenticated with
// xsec signed tokens and integrity-checked with SHA-256 trailers. Each
// server fronts one site's staging store.
package gridftp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/sizedio"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/xsec"
)

// Headers.
const (
	// TokenHeader carries the signed authentication token.
	TokenHeader = "X-Grid-Token"
	// ChecksumHeader carries the hex SHA-256 of the payload.
	ChecksumHeader = "X-Content-Sha256"
)

// MaxFileBytes bounds one staged file (matches the store's limit).
const MaxFileBytes = 256 << 20

// Errors.
var (
	ErrDenied   = errors.New("gridftp: authentication failed")
	ErrChecksum = errors.New("gridftp: checksum mismatch")
	ErrNoFile   = errors.New("gridftp: no such file")
	ErrBadInput = errors.New("gridftp: malformed request")
	// ErrNoChunk flags a commit referencing a chunk the server no longer
	// holds (evicted or never shipped); the client re-probes and re-ships.
	ErrNoChunk = errors.New("gridftp: missing chunk")
)

// Server fronts one site's staging store.
type Server struct {
	store *gridsim.Store
	trust *xsec.TrustStore
	clock vtime.Clock
	// pull carries outbound third-party transfers; nil means
	// hop.Shared().
	pull http.RoundTripper
	// chunks is the content-addressed store behind the chunked-transfer
	// endpoints (see chunks.go).
	chunks *chunkStore
	// tracer/site enable per-request spans (nil tracer = off).
	tracer *trace.Tracer
	site   string
}

// SetTracer enables request tracing: every request arriving with a valid
// X-Grid-Trace context records one span named after its route (ftp.put,
// ftp.get, ftp.chunk.put, ...) tagged with the given site name and byte
// counts. Call before serving; a nil tracer keeps tracing off.
func (s *Server) SetTracer(t *trace.Tracer, site string) {
	s.tracer = t
	s.site = site
}

// NewServer builds a staging server for store. pull carries the server's
// own outbound traffic — the source-side pulls of third-party transfers —
// so rigs can route it through a shaped dial; nil means hop.Shared().
func NewServer(store *gridsim.Store, trust *xsec.TrustStore, clock vtime.Clock, pull http.RoundTripper) *Server {
	if clock == nil {
		clock = vtime.Real{}
	}
	return &Server{
		store:  store,
		trust:  trust,
		clock:  clock,
		pull:   pull,
		chunks: newChunkStore(defaultChunkStoreBytes),
	}
}

// signPayload is the byte string both sides sign for a request: it binds
// method, file name, and content hash so tokens cannot be replayed
// against other files or operations.
func signPayload(method, name, checksum string) []byte {
	return []byte(method + "\n" + name + "\n" + checksum)
}

func (s *Server) authenticate(r *http.Request, msg []byte) (string, error) {
	tok := r.Header.Get(TokenHeader)
	if tok == "" {
		return "", fmt.Errorf("%w: missing %s", ErrDenied, TokenHeader)
	}
	signed, err := xsec.DecodeSigned(tok)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrDenied, err)
	}
	id, err := s.trust.Verify(msg, signed, s.clock.Now())
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrDenied, err)
	}
	return id, nil
}

// ServeHTTP handles /ftp/<name> plus /ftp-fetch and the chunk routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.serve(w, r)
		return
	}
	// The trace header is decoded before authentication; malformed or
	// absent headers degrade to "untraced", never to a rejection, and
	// requests without a valid caller context record no span (the server
	// does not mint orphan roots for untraced traffic).
	tc, ok := trace.Parse(r.Header.Get(trace.Header))
	if !ok {
		s.serve(w, r)
		return
	}
	sp := s.tracer.StartSpan(opName(r), tc)
	sp.Set("site", s.site)
	// Swap in this span's own context so outbound legs of the request —
	// the source-side GET of a third-party fetch — parent under it.
	r.Header.Set(trace.Header, sp.Context().String())
	cw := &countingWriter{ResponseWriter: w}
	s.serve(cw, r)
	if r.ContentLength > 0 {
		sp.SetInt("bytes_in", r.ContentLength)
	}
	sp.SetInt("bytes_out", cw.bytes)
	if cw.status >= 400 {
		sp.Error(fmt.Sprintf("http %d", cw.status))
	}
	sp.End()
}

// opName maps a request to its span name.
func opName(r *http.Request) string {
	switch {
	case r.URL.Path == "/ftp-fetch":
		return "ftp.fetch"
	case r.URL.Path == "/ftp/chunks/have":
		return "ftp.chunks.have"
	case strings.HasPrefix(r.URL.Path, "/ftp/chunk/"):
		return "ftp.chunk.put"
	case r.URL.Path == "/ftp/commit":
		return "ftp.commit"
	case r.Method == http.MethodPut:
		return "ftp.put"
	case r.Method == http.MethodDelete:
		return "ftp.delete"
	default:
		return "ftp.get"
	}
}

// countingWriter captures the status code and payload size for the span.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/ftp-fetch" && r.Method == http.MethodPost {
		s.fetch(w, r)
		return
	}
	// Chunked-transfer endpoints live under /ftp/ but contain "/" in the
	// trailing component, so stock servers reject them with 400 — that is
	// the downgrade signal clients use to fall back to a plain PUT. They
	// must therefore be routed before the generic /ftp/<name> parse.
	if r.URL.Path == "/ftp/chunks/have" && r.Method == http.MethodPost {
		s.haveChunks(w, r)
		return
	}
	if digest, ok := strings.CutPrefix(r.URL.Path, "/ftp/chunk/"); ok && r.Method == http.MethodPut {
		s.putChunk(w, r, digest)
		return
	}
	if r.URL.Path == "/ftp/commit" && r.Method == http.MethodPost {
		s.commit(w, r)
		return
	}
	if !strings.HasPrefix(r.URL.Path, "/ftp/") {
		httpError(w, http.StatusNotFound, "gridftp: unknown endpoint")
		return
	}
	name, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/ftp/"))
	if err != nil || name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusBadRequest, ErrBadInput.Error()+": bad file name")
		return
	}
	switch r.Method {
	case http.MethodPut:
		s.put(w, r, name)
	case http.MethodGet:
		s.get(w, r, name)
	case http.MethodDelete:
		s.delete(w, r, name)
	default:
		httpError(w, http.StatusMethodNotAllowed, "gridftp: method not allowed")
	}
}

func (s *Server) put(w http.ResponseWriter, r *http.Request, name string) {
	body, err := sizedio.ReadAll(r.Body, r.ContentLength, MaxFileBytes)
	if errors.Is(err, sizedio.ErrTooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "gridftp: file too large")
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "gridftp: read body: "+err.Error())
		return
	}
	sum := sha256.Sum256(body)
	checksum := hex.EncodeToString(sum[:])
	if want := r.Header.Get(ChecksumHeader); want != checksum {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("%v: got %s want %s", ErrChecksum, checksum, want))
		return
	}
	id, err := s.authenticate(r, signPayload(http.MethodPut, name, checksum))
	if err != nil {
		httpError(w, http.StatusForbidden, err.Error())
		return
	}
	if err := s.store.Put(id, name, body); err != nil {
		httpError(w, http.StatusInsufficientStorage, err.Error())
		return
	}
	w.Header().Set(ChecksumHeader, checksum)
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) get(w http.ResponseWriter, r *http.Request, name string) {
	id, err := s.authenticate(r, signPayload(http.MethodGet, name, ""))
	if err != nil {
		httpError(w, http.StatusForbidden, err.Error())
		return
	}
	data, err := s.store.Get(id, name)
	if err != nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("%v: %s", ErrNoFile, name))
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set(ChecksumHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) delete(w http.ResponseWriter, r *http.Request, name string) {
	id, err := s.authenticate(r, signPayload(http.MethodDelete, name, ""))
	if err != nil {
		httpError(w, http.StatusForbidden, err.Error())
		return
	}
	if err := s.store.Delete(id, name); err != nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("%v: %s", ErrNoFile, name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// fetchRequest asks this server to pull a file from another GridFTP
// server — the third-party transfer of real GridFTP. The requester signs
// the fetch itself and encloses a pre-signed GET capability for the
// source, so neither server ever holds the user's key.
type fetchRequest struct {
	SourceURL   string `json:"source_url"`   // source server root
	Name        string `json:"name"`         // file name at source and destination
	SourceToken string `json:"source_token"` // pre-signed GET token for the source
}

// fetch pulls name from another site's server and stores it locally
// under the authenticated identity.
func (s *Server) fetch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<10))
	if err != nil {
		httpError(w, http.StatusBadRequest, "gridftp: read fetch request: "+err.Error())
		return
	}
	var req fetchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, ErrBadInput.Error()+": "+err.Error())
		return
	}
	if req.Name == "" || strings.Contains(req.Name, "/") || req.SourceURL == "" {
		httpError(w, http.StatusBadRequest, ErrBadInput.Error()+": bad fetch fields")
		return
	}
	id, err := s.authenticate(r, signPayload("FETCH", req.Name, req.SourceURL))
	if err != nil {
		httpError(w, http.StatusForbidden, err.Error())
		return
	}
	// Pull from the source with the enclosed capability.
	getReq, err := http.NewRequest(http.MethodGet, req.SourceURL+"/ftp/"+url.PathEscape(req.Name), nil)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	getReq.Header.Set(TokenHeader, req.SourceToken)
	if tc := r.Header.Get(trace.Header); tc != "" {
		getReq.Header.Set(trace.Header, tc)
	}
	resp, err := hop.RoundTrip(s.pull, getReq)
	if err != nil {
		httpError(w, http.StatusBadGateway, "gridftp: fetch from source: "+err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		srcBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		httpError(w, http.StatusBadGateway,
			fmt.Sprintf("gridftp: source answered %d: %s", resp.StatusCode, srcBody))
		return
	}
	data, err := sizedio.ReadAll(resp.Body, resp.ContentLength, MaxFileBytes)
	if errors.Is(err, sizedio.ErrTooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "gridftp: fetched file too large")
		return
	}
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	sum := sha256.Sum256(data)
	checksum := hex.EncodeToString(sum[:])
	if want := resp.Header.Get(ChecksumHeader); want != "" && want != checksum {
		httpError(w, http.StatusBadGateway, ErrChecksum.Error()+": source payload damaged")
		return
	}
	if err := s.store.Put(id, req.Name, data); err != nil {
		httpError(w, http.StatusInsufficientStorage, err.Error())
		return
	}
	w.Header().Set(ChecksumHeader, checksum)
	w.WriteHeader(http.StatusCreated)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Client stages files to and from one site's GridFTP server. Every call
// goes through internal/hop: Transport's RoundTrip directly, BaseURL
// parsed once, the reply read whole at its declared length. A Client
// holds a lock: share it by pointer.
type Client struct {
	// BaseURL is the server root, e.g. "http://site-host:2811".
	BaseURL string
	// Cred signs every request; the authenticated identity owns the files.
	Cred *xsec.Credential
	// Transport carries every request; nil means hop.Shared().
	Transport http.RoundTripper
	// Trace, when non-empty, rides every request as the X-Grid-Trace
	// header so the server parents its spans under the caller's.
	Trace string

	base hop.Base
}

func (c *Client) sign(method, name, checksum string) (string, error) {
	return c.Cred.SignToken(signPayload(method, name, checksum))
}

// call is one signed request. The token is signed over the payload of
// (op, name, checksum); header, when set, is one more header and its
// value; a zero limit means a reply that carries no file: a status, a
// checksum header, a list of missing digests.
type call struct {
	method, target     string
	op, name, checksum string
	contentType        string
	header, value      string
	body               []byte
	file               *File // sent in place of body, streamed
	limit              int64
}

// do signs and sends rq and returns the reply whatever its status.
func (c *Client) do(rq call) (hop.Reply, error) {
	tok, err := c.sign(rq.op, rq.name, rq.checksum)
	if err != nil {
		return hop.Reply{}, err
	}
	root, err := c.base.Parse(c.BaseURL)
	if err != nil {
		return hop.Reply{}, err
	}
	if rq.limit == 0 {
		rq.limit = 1 << 20
	}
	header := hop.Header(TokenHeader, tok, trace.Header, c.Trace, "Content-Type", rq.contentType, rq.header, rq.value)
	if rq.file != nil {
		return hop.DoStream(c.Transport, rq.method, root, rq.target, header, rq.file.Size, rq.file.Open, rq.limit)
	}
	return hop.Do(c.Transport, rq.method, root, rq.target, header, rq.body, rq.limit)
}

// File is what one transfer sends: Size bytes that hash to SHA256, read
// from Open as they go out, so a transfer holds none of them. PutFile and
// PutChunkedFile are the only two implementations of "send a file".
type File struct {
	Size int64
	// SHA256 is the hex digest of the bytes. The request token signs it,
	// the site hashes what arrived against it, and the client compares the
	// site's answer with it.
	SHA256 string
	// Open returns the bytes from the start. It is called once per attempt
	// at sending them — again when the transport replays a request that met
	// a dead keep-alive connection — and every reader it returns is closed.
	Open func() (io.ReadCloser, error)
	// Gzip, when non-nil, is the gzip encoding of the bytes. PutChunkedFile
	// cuts it, not the bytes, into chunks when it is the smaller of the two
	// (the site inflates at commit) and then never calls Open.
	Gzip []byte
}

// BytesFile is the File of data already in hand, gz its gzip encoding or nil.
func BytesFile(data, gz []byte) File {
	sum := sha256.Sum256(data)
	return File{Size: int64(len(data)), SHA256: hex.EncodeToString(sum[:]), Gzip: gz,
		Open: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }}
}

// Put uploads data as name, returning the server-confirmed checksum.
func (c *Client) Put(name string, data []byte) (string, error) {
	return c.PutFile(name, BytesFile(data, nil))
}

// PutFile uploads f as name in one PUT at its declared length, returning
// the server-confirmed checksum.
func (c *Client) PutFile(name string, f File) (string, error) {
	reply, err := c.do(call{method: http.MethodPut, target: filePath(name),
		op: http.MethodPut, name: name, checksum: f.SHA256,
		contentType: "application/octet-stream", header: ChecksumHeader, value: f.SHA256, file: &f})
	if err != nil {
		return "", fmt.Errorf("gridftp: put %s: %w", name, err)
	}
	if reply.Status != http.StatusCreated {
		return "", replyError(reply)
	}
	if got := reply.Header.Get(ChecksumHeader); got != f.SHA256 {
		return "", fmt.Errorf("%w: server stored %s, sent %s", ErrChecksum, got, f.SHA256)
	}
	return f.SHA256, nil
}

// Get downloads name, verifying the checksum trailer.
func (c *Client) Get(name string) ([]byte, error) {
	reply, err := c.do(call{method: http.MethodGet, target: filePath(name), op: http.MethodGet, name: name, limit: MaxFileBytes})
	if err != nil {
		return nil, fmt.Errorf("gridftp: get %s: %w", name, err)
	}
	if reply.Status != http.StatusOK {
		return nil, replyError(reply)
	}
	sum := sha256.Sum256(reply.Body)
	if want := reply.Header.Get(ChecksumHeader); want != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("%w: payload damaged in transit", ErrChecksum)
	}
	return reply.Body, nil
}

// Delete removes name.
func (c *Client) Delete(name string) error {
	reply, err := c.do(call{method: http.MethodDelete, target: filePath(name), op: http.MethodDelete, name: name})
	if err != nil {
		return fmt.Errorf("gridftp: delete %s: %w", name, err)
	}
	if reply.Status != http.StatusNoContent {
		return replyError(reply)
	}
	return nil
}

// FetchFrom asks this client's server (the destination) to pull name
// directly from sourceURL — a third-party transfer. The caller's
// credential signs both the fetch order and the GET capability the
// destination presents to the source; the transfer itself flows
// site-to-site without touching the client's network path.
func (c *Client) FetchFrom(sourceURL, name string) (string, error) {
	srcToken, err := c.sign(http.MethodGet, name, "")
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(fetchRequest{
		SourceURL:   sourceURL,
		Name:        name,
		SourceToken: srcToken,
	})
	if err != nil {
		return "", err
	}
	reply, err := c.do(call{method: http.MethodPost, target: "/ftp-fetch", op: "FETCH", name: name, checksum: sourceURL,
		contentType: "application/json", body: body})
	if err != nil {
		return "", fmt.Errorf("gridftp: fetch %s from %s: %w", name, sourceURL, err)
	}
	if reply.Status != http.StatusCreated {
		return "", replyError(reply)
	}
	return reply.Header.Get(ChecksumHeader), nil
}

func filePath(name string) string { return "/ftp/" + url.PathEscape(name) }

// replyError names the error a reply of an unexpected status carries.
func replyError(reply hop.Reply) error {
	var er struct {
		Error string `json:"error"`
	}
	msg := string(reply.Body)
	if json.Unmarshal(reply.Body, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	var sentinel error
	switch reply.Status {
	case http.StatusForbidden:
		sentinel = ErrDenied
	case http.StatusNotFound:
		sentinel = ErrNoFile
	case http.StatusConflict:
		sentinel = ErrNoChunk
	default:
		sentinel = ErrBadInput
	}
	return fmt.Errorf("%w: http %d: %s", sentinel, reply.Status, msg)
}
