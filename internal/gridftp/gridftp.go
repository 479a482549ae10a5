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
	"time"

	"repro/internal/errcode"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/sizedio"
	"repro/internal/trace"
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
func NewServer(store *gridsim.Store, trust *xsec.TrustStore, pull http.RoundTripper) *Server {
	return &Server{
		store:  store,
		trust:  trust,
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
	id, err := s.trust.Verify(msg, signed, time.Now())
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

// serve answers r, or writes the refusal route returns.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	if refused := s.route(w, r); refused != nil {
		refused.Write(w)
	}
}

// route serves r, or returns its refusal.
func (s *Server) route(w http.ResponseWriter, r *http.Request) *errcode.Refusal {
	if r.URL.Path == "/ftp-fetch" && r.Method == http.MethodPost {
		return s.fetch(w, r)
	}
	// Chunked-transfer endpoints live under /ftp/ but contain "/" in the
	// trailing component, so stock servers reject them with 400 — that is
	// the downgrade signal clients use to fall back to a plain PUT. They
	// must therefore be routed before the generic /ftp/<name> parse.
	if r.URL.Path == "/ftp/chunks/have" && r.Method == http.MethodPost {
		return s.haveChunks(w, r)
	}
	if digest, ok := strings.CutPrefix(r.URL.Path, "/ftp/chunk/"); ok && r.Method == http.MethodPut {
		return s.putChunk(w, r, digest)
	}
	if r.URL.Path == "/ftp/commit" && r.Method == http.MethodPost {
		return s.commit(w, r)
	}
	if !strings.HasPrefix(r.URL.Path, "/ftp/") {
		return errcode.Refuse(http.StatusNotFound, "gridftp: unknown endpoint")
	}
	name, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/ftp/"))
	if err != nil || name == "" || strings.Contains(name, "/") {
		return errcode.Refuse(http.StatusBadRequest, ErrBadInput.Error()+": bad file name")
	}
	switch r.Method {
	case http.MethodPut:
		return s.put(w, r, name)
	case http.MethodGet:
		return s.get(w, r, name)
	case http.MethodDelete:
		return s.delete(w, r, name)
	}
	return errcode.Refuse(http.StatusMethodNotAllowed, "gridftp: method not allowed")
}

func (s *Server) put(w http.ResponseWriter, r *http.Request, name string) *errcode.Refusal {
	body, err := sizedio.ReadAll(r.Body, r.ContentLength, MaxFileBytes)
	if errors.Is(err, sizedio.ErrTooLarge) {
		return errcode.Refuse(http.StatusRequestEntityTooLarge, "gridftp: file too large")
	}
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, "gridftp: read body: "+err.Error())
	}
	sum := sha256.Sum256(body)
	checksum := hex.EncodeToString(sum[:])
	if want := r.Header.Get(ChecksumHeader); want != checksum {
		return errcode.Refuse(http.StatusBadRequest, fmt.Sprintf("%v: got %s want %s", ErrChecksum, checksum, want))
	}
	id, err := s.authenticate(r, signPayload(http.MethodPut, name, checksum))
	if err != nil {
		return errcode.Refuse(http.StatusForbidden, err.Error())
	}
	if err := s.store.Put(id, name, body); err != nil {
		return errcode.Refuse(http.StatusInsufficientStorage, err.Error())
	}
	w.Header().Set(ChecksumHeader, checksum)
	w.WriteHeader(http.StatusCreated)
	return nil
}

func (s *Server) get(w http.ResponseWriter, r *http.Request, name string) *errcode.Refusal {
	id, err := s.authenticate(r, signPayload(http.MethodGet, name, ""))
	if err != nil {
		return errcode.Refuse(http.StatusForbidden, err.Error())
	}
	data, err := s.store.Get(id, name)
	if err != nil {
		return errcode.Refuse(http.StatusNotFound, fmt.Sprintf("%v: %s", ErrNoFile, name))
	}
	sum := sha256.Sum256(data)
	w.Header().Set(ChecksumHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
	return nil
}

func (s *Server) delete(w http.ResponseWriter, r *http.Request, name string) *errcode.Refusal {
	id, err := s.authenticate(r, signPayload(http.MethodDelete, name, ""))
	if err != nil {
		return errcode.Refuse(http.StatusForbidden, err.Error())
	}
	if err := s.store.Delete(id, name); err != nil {
		return errcode.Refuse(http.StatusNotFound, fmt.Sprintf("%v: %s", ErrNoFile, name))
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
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
func (s *Server) fetch(w http.ResponseWriter, r *http.Request) *errcode.Refusal {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<10))
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, "gridftp: read fetch request: "+err.Error())
	}
	var req fetchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return errcode.Refuse(http.StatusBadRequest, ErrBadInput.Error()+": "+err.Error())
	}
	if req.Name == "" || strings.Contains(req.Name, "/") || req.SourceURL == "" {
		return errcode.Refuse(http.StatusBadRequest, ErrBadInput.Error()+": bad fetch fields")
	}
	id, err := s.authenticate(r, signPayload("FETCH", req.Name, req.SourceURL))
	if err != nil {
		return errcode.Refuse(http.StatusForbidden, err.Error())
	}
	// Pull from the source with the enclosed capability.
	getReq, err := http.NewRequest(http.MethodGet, req.SourceURL+"/ftp/"+url.PathEscape(req.Name), nil)
	if err != nil {
		return errcode.Refuse(http.StatusBadRequest, err.Error())
	}
	getReq.Header.Set(TokenHeader, req.SourceToken)
	if tc := r.Header.Get(trace.Header); tc != "" {
		getReq.Header.Set(trace.Header, tc)
	}
	resp, err := hop.RoundTrip(s.pull, getReq)
	if err != nil {
		return errcode.Refuse(http.StatusBadGateway, "gridftp: fetch from source: "+err.Error())
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		srcBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return errcode.Refuse(http.StatusBadGateway,
			fmt.Sprintf("gridftp: source answered %d: %s", resp.StatusCode, srcBody))
	}
	data, err := sizedio.ReadAll(resp.Body, resp.ContentLength, MaxFileBytes)
	if errors.Is(err, sizedio.ErrTooLarge) {
		return errcode.Refuse(http.StatusRequestEntityTooLarge, "gridftp: fetched file too large")
	}
	if err != nil {
		return errcode.Refuse(http.StatusBadGateway, err.Error())
	}
	sum := sha256.Sum256(data)
	checksum := hex.EncodeToString(sum[:])
	if want := resp.Header.Get(ChecksumHeader); want != "" && want != checksum {
		return errcode.Refuse(http.StatusBadGateway, ErrChecksum.Error()+": source payload damaged")
	}
	if err := s.store.Put(id, req.Name, data); err != nil {
		return errcode.Refuse(http.StatusInsufficientStorage, err.Error())
	}
	w.Header().Set(ChecksumHeader, checksum)
	w.WriteHeader(http.StatusCreated)
	return nil
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
	want               int // the reply's status on success
}

// do signs and sends rq and returns the reply, or the error a reply of
// another status than rq.want names (sentinels).
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
	var reply hop.Reply
	if rq.file != nil {
		reply, err = hop.DoStream(c.Transport, rq.method, root, rq.target, header, rq.file.Size, rq.file.Open, rq.limit)
	} else {
		reply, err = hop.Do(c.Transport, rq.method, root, rq.target, header, rq.body, rq.limit)
	}
	if err == nil && reply.Status != rq.want {
		err = errcode.Err(reply.Status, reply.Body, sentinels, ErrBadInput)
	}
	return reply, err
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
		contentType: "application/octet-stream", header: ChecksumHeader, value: f.SHA256, file: &f, want: http.StatusCreated})
	if err != nil {
		return "", fmt.Errorf("gridftp: put %s: %w", name, err)
	}
	if got := reply.Header.Get(ChecksumHeader); got != f.SHA256 {
		return "", fmt.Errorf("%w: server stored %s, sent %s", ErrChecksum, got, f.SHA256)
	}
	return f.SHA256, nil
}

// Get downloads name, verifying the checksum trailer.
func (c *Client) Get(name string) ([]byte, error) {
	reply, err := c.do(call{method: http.MethodGet, target: filePath(name), op: http.MethodGet, name: name, limit: MaxFileBytes, want: http.StatusOK})
	if err != nil {
		return nil, fmt.Errorf("gridftp: get %s: %w", name, err)
	}
	sum := sha256.Sum256(reply.Body)
	if want := reply.Header.Get(ChecksumHeader); want != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("%w: payload damaged in transit", ErrChecksum)
	}
	return reply.Body, nil
}

// Delete removes name.
func (c *Client) Delete(name string) error {
	_, err := c.do(call{method: http.MethodDelete, target: filePath(name), op: http.MethodDelete, name: name, want: http.StatusNoContent})
	if err != nil {
		return fmt.Errorf("gridftp: delete %s: %w", name, err)
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
		contentType: "application/json", body: body, want: http.StatusCreated})
	if err != nil {
		return "", fmt.Errorf("gridftp: fetch %s from %s: %w", name, sourceURL, err)
	}
	return reply.Header.Get(ChecksumHeader), nil
}

func filePath(name string) string { return "/ftp/" + url.PathEscape(name) }

// sentinels names the error each code of a site's reply stands for; a
// reply whose code is not listed is ErrBadInput: a bad request, a file or
// manifest too large, a full store, a failed third-party fetch.
var sentinels = map[string]error{
	errcode.Forbidden: ErrDenied,
	errcode.NotFound:  ErrNoFile,
	errcode.Conflict:  ErrNoChunk,
}
