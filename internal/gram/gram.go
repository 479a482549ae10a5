// Package gram implements the gatekeeper protocol of the reproduction —
// the K-GRAM stand-in the onServe middleware submits jobs through. The
// protocol is deliberately narrow, matching what production Grids exposed
// in 2010: submit a job description, poll its status, fetch its stdout
// (the paper's workaround: "the actual status of the job can't be
// retrieved and ... the local client has to request the output
// tentatively"), fetch output files, cancel.
//
// Every request carries an xsec signed token; the gatekeeper verifies the
// chain against its trust store and enforces that callers only touch
// their own jobs.
package gram

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/flatjson"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/jsdl"
	"repro/internal/trace"
	"repro/internal/xsec"
)

// TokenHeader carries the base64 signed token.
const TokenHeader = "X-Grid-Token"

// MaxBody bounds request bodies (job descriptions are small; files go
// through GridFTP, not GRAM).
const MaxBody = 1 << 20

// Errors reconstructed client-side from HTTP status + message.
var (
	ErrDenied    = errors.New("gram: authentication or authorization failed")
	ErrNotOwner  = errors.New("gram: job belongs to another identity")
	ErrNoSuchJob = errors.New("gram: no such job")
	// ErrNoSuchFile: the job exists, but not the output file asked for.
	ErrNoSuchFile = errors.New("gram: no such output file")
	ErrBadInput   = errors.New("gram: malformed request")
)

// codeNoSuchFile is errorReply.Code on the 404 of a missing output file,
// which is how the client tells it from the 404 of a missing job.
const codeNoSuchFile = "no_such_file"

// StatusReply is the gatekeeper's job status answer.
type StatusReply struct {
	JobID   string `json:"job_id"`
	State   string `json:"state"`
	Message string `json:"message,omitempty"`
	Site    string `json:"site"`
}

// MaxBatch caps how many jobs one status-batch request may name; the
// client chunks larger sets transparently.
const MaxBatch = 256

// batchRequest is the status-batch request body.
type batchRequest struct {
	Jobs []string `json:"jobs"`
}

// BatchEntry is one job's answer inside a status-batch reply. Error is
// set (and the status fields empty) when this entry failed — a bad job
// never fails its batch. OutputVersion mirrors the ETag of /gram/output
// so pollers can skip fetching unchanged stdout.
type BatchEntry struct {
	JobID         string `json:"job_id"`
	State         string `json:"state,omitempty"`
	Message       string `json:"message,omitempty"`
	Site          string `json:"site,omitempty"`
	OutputVersion uint64 `json:"output_version,omitempty"`
	Error         string `json:"error,omitempty"`
}

// BatchReply answers a status-batch request; Entries is parallel to the
// requested job list.
type BatchReply struct {
	Entries []BatchEntry `json:"entries"`
}

// SubmitReply returns the assigned job ID.
type SubmitReply struct {
	JobID string `json:"job_id"`
}

// errorReply is the uniform error body.
type errorReply struct {
	Error string `json:"error"`
	// Code tells apart errors that share a status; empty for most.
	Code string `json:"code,omitempty"`
}

// Server is the gatekeeper for one grid.
type Server struct {
	grid   *gridsim.Grid
	trust  *xsec.TrustStore
	tracer *trace.Tracer
	// heartbeat is the event-stream keepalive cadence; only tests change
	// it from DefaultHeartbeatInterval.
	heartbeat time.Duration
}

// SetTracer enables distributed tracing of submissions: each traced
// submit (single or batch entry) becomes a "gram.submit" span whose
// context is threaded into the grid simulator's job lifecycle spans.
// Call before serving; a nil tracer keeps tracing off.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// NewServer builds a gatekeeper.
func NewServer(grid *gridsim.Grid, trust *xsec.TrustStore) *Server {
	return &Server{grid: grid, trust: trust, heartbeat: DefaultHeartbeatInterval}
}

// authenticate verifies the signed token over msg and returns the caller
// identity.
func (s *Server) authenticate(r *http.Request, msg []byte) (string, error) {
	id, _, err := s.authenticateProxy(r, msg)
	return id, err
}

// authenticateProxy is authenticate for the endpoints that key an event
// feed: it also returns the verified token's leaf certificate — the proxy
// the caller holds the private key of. Its fingerprint is what submissions
// record as their submitter and /gram/events subscribes under; a MyProxy
// logon delegates a fresh proxy, so the key is one agent session's and
// nobody without that session's private key can present it.
func (s *Server) authenticateProxy(r *http.Request, msg []byte) (string, *xsec.Certificate, error) {
	tok := r.Header.Get(TokenHeader)
	if tok == "" {
		return "", nil, fmt.Errorf("%w: missing %s", ErrDenied, TokenHeader)
	}
	signed, err := xsec.DecodeSigned(tok)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrDenied, err)
	}
	id, err := s.trust.Verify(msg, signed, time.Now())
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrDenied, err)
	}
	return id, &signed.Chain[0], nil
}

// ServeHTTP implements http.Handler under the /gram/ prefix.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/gram/submit":
		s.submit(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/status":
		s.withJob(w, r, func(j *gridsim.Job) { writeJSON(w, http.StatusOK, statusOf(j)) })
	case r.Method == http.MethodPost && r.URL.Path == "/gram/status-batch":
		s.statusBatch(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/output":
		s.withJob(w, r, func(j *gridsim.Job) {
			out, ver := j.StdoutVersioned()
			etag := outputETag(ver)
			w.Header().Set("ETag", etag)
			if r.Header.Get("If-None-Match") == etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, out)
		})
	case r.Method == http.MethodGet && r.URL.Path == "/gram/outfile":
		s.withJob(w, r, func(j *gridsim.Job) {
			name := r.URL.Query().Get("name")
			data := j.OutputFile(name)
			if data == nil {
				writeJSON(w, http.StatusNotFound, errorReply{Error: "no output file " + name, Code: codeNoSuchFile})
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		})
	case r.Method == http.MethodPost && r.URL.Path == "/gram/cancel":
		s.cancel(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/sites":
		s.sites(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/usage":
		s.usage(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/gram/events":
		s.events(w, r)
	default:
		writeJSON(w, http.StatusNotFound, errorReply{Error: "gram: unknown endpoint"})
	}
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// The trace header is decoded before authentication; a malformed
	// header degrades to "untraced", never to a rejection.
	tc, _ := trace.Parse(r.Header.Get(trace.Header))
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBody+1))
	if err != nil || len(body) > MaxBody {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "gram: bad body"})
		return
	}
	id, proxy, err := s.authenticateProxy(r, body)
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	desc, err := jsdl.Unmarshal(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("%v: %v", ErrBadInput, err)})
		return
	}
	if desc.Owner != id {
		writeJSON(w, http.StatusForbidden, errorReply{
			Error: fmt.Sprintf("%v: description owner %q, authenticated %q", ErrDenied, desc.Owner, id),
		})
		return
	}
	sp := s.startSubmitSpan(tc)
	job, err := s.grid.SubmitTraced(*desc, proxy.Fingerprint(), sp.Context())
	if err != nil {
		sp.Error(err.Error())
		sp.End()
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	sp.Set("site", job.Site)
	sp.Set("job_id", job.ID)
	sp.End()
	writeJSON(w, http.StatusOK, SubmitReply{JobID: job.ID})
}

// startSubmitSpan opens a "gram.submit" span under the caller's context,
// or returns nil (a no-op span) when tracing is off or no valid context
// arrived.
func (s *Server) startSubmitSpan(tc trace.SpanContext) *trace.Span {
	if s.tracer == nil || !tc.Valid() {
		return nil
	}
	return s.tracer.StartSpan("gram.submit", tc)
}

// statusBatch answers one status poll for many jobs at once (token
// signed over the body, like submit). Failures are reported per entry:
// an unknown or foreign job yields an entry with Error set and never
// fails the batch.
func (s *Server) statusBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBody+1))
	if err != nil || len(body) > MaxBody {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "gram: bad body"})
		return
	}
	id, err := s.authenticate(r, body)
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: fmt.Sprintf("%v: %v", ErrBadInput, err)})
		return
	}
	if len(req.Jobs) == 0 || len(req.Jobs) > MaxBatch {
		writeJSON(w, http.StatusBadRequest, errorReply{
			Error: fmt.Sprintf("%v: batch of %d jobs (1..%d)", ErrBadInput, len(req.Jobs), MaxBatch),
		})
		return
	}
	jobs, errs := s.grid.Jobs(req.Jobs)
	entries := make([]BatchEntry, len(req.Jobs))
	for i, jobID := range req.Jobs {
		entries[i].JobID = jobID
		switch {
		case errs[i] != nil:
			entries[i].Error = fmt.Sprintf("%v: %s", ErrNoSuchJob, jobID)
		case jobs[i].Desc.Owner != id:
			entries[i].Error = ErrNotOwner.Error()
		default:
			st := statusOf(jobs[i])
			entries[i].State = st.State
			entries[i].Message = st.Message
			entries[i].Site = st.Site
			entries[i].OutputVersion = jobs[i].StdoutVersion()
		}
	}
	writeJSON(w, http.StatusOK, BatchReply{Entries: entries})
}

// withJob authenticates (token over "job:<id>"), resolves and authorizes
// the job, then runs fn.
func (s *Server) withJob(w http.ResponseWriter, r *http.Request, fn func(*gridsim.Job)) {
	jobID := r.URL.Query().Get("job")
	id, err := s.authenticate(r, []byte("job:"+jobID))
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	job, err := s.grid.Job(jobID)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("%v: %s", ErrNoSuchJob, jobID)})
		return
	}
	if job.Desc.Owner != id {
		writeJSON(w, http.StatusForbidden, errorReply{Error: ErrNotOwner.Error()})
		return
	}
	fn(job)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	s.withJob(w, r, func(j *gridsim.Job) {
		site, err := s.grid.Site(j.Site)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error()})
			return
		}
		if err := site.Cancel(j.ID); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, statusOf(j))
	})
}

func (s *Server) sites(w http.ResponseWriter, r *http.Request) {
	if _, err := s.authenticate(r, []byte("sites")); err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.grid.Stats())
}

// usage reports the authenticated caller's accounting (jobs run and
// core-seconds consumed per site) — what allocations are billed against.
func (s *Server) usage(w http.ResponseWriter, r *http.Request) {
	id, err := s.authenticate(r, []byte("usage"))
	if err != nil {
		writeJSON(w, http.StatusForbidden, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.grid.Usage(id))
}

func statusOf(j *gridsim.Job) StatusReply {
	return StatusReply{
		JobID:   j.ID,
		State:   j.State().String(),
		Message: j.ExitMessage(),
		Site:    j.Site,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Client is the hand-rolled gatekeeper client. Every call goes through
// internal/hop: Transport's RoundTrip directly (no redirects, no cookies,
// no client timeout), BaseURL parsed once, and every reply but the event
// stream read whole at its declared length. A Client holds a lock: share
// it by pointer.
type Client struct {
	// BaseURL is the gatekeeper root, e.g. "http://grid-host:2119".
	BaseURL string
	// Cred signs every request.
	Cred *xsec.Credential
	// Transport carries every request; nil means hop.Shared().
	Transport http.RoundTripper
	// Trace, when non-empty, rides every request as the X-Grid-Trace
	// header so the gatekeeper parents its spans under the caller's.
	Trace string

	base hop.Base
}

func (c *Client) sign(msg []byte) (string, error) {
	return c.Cred.SignToken(msg)
}

// send signs signed and makes one request, returning the reply whatever
// its status. etag, when non-empty, is sent as If-None-Match.
func (c *Client) send(method, target string, signed []byte, contentType, etag string, body []byte, limit int64) (hop.Reply, error) {
	tok, err := c.sign(signed)
	if err != nil {
		return hop.Reply{}, err
	}
	root, err := c.base.Parse(c.BaseURL)
	if err != nil {
		return hop.Reply{}, err
	}
	reply, err := hop.Do(c.Transport, method, root, target,
		hop.Header(TokenHeader, tok, "Content-Type", contentType, trace.Header, c.Trace, "If-None-Match", etag),
		body, limit)
	if err != nil {
		path, _, _ := strings.Cut(target, "?")
		return reply, fmt.Errorf("gram: %s: %w", path, err)
	}
	return reply, nil
}

// okBody returns the body of a 200 reply; any other status becomes the
// error it names.
func okBody(reply hop.Reply, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if reply.Status != http.StatusOK {
		return nil, decodeError(reply.Status, reply.Body)
	}
	return reply.Body, nil
}

// call is send for the JSON endpoints: a 200 reply is decoded into out.
func (c *Client) call(method, target string, signed []byte, contentType string, body []byte, out any) error {
	doc, err := okBody(c.send(method, target, signed, contentType, "", body, MaxBody))
	if err != nil {
		return err
	}
	return json.Unmarshal(doc, out)
}

// submitReplyID reads the reply the gatekeeper's encoder writes,
// {"job_id":"…"}; any other document is encoding/json's to judge.
func submitReplyID(doc []byte) (id string, ok bool) {
	o := flatjson.Open(doc)
	for o.Next() {
		if string(o.Key()) != "job_id" {
			o.Fail()
		}
		id = o.String()
	}
	return id, o.Done()
}

// Submit sends the description and returns the job ID.
func (c *Client) Submit(desc *jsdl.Description) (string, error) {
	body, err := jsdl.Marshal(desc)
	if err != nil {
		return "", err
	}
	doc, err := okBody(c.send(http.MethodPost, "/gram/submit", body, "text/xml", "", body, MaxBody))
	if err != nil {
		return "", err
	}
	if id, ok := submitReplyID(doc); ok {
		return id, nil
	}
	var reply SubmitReply
	if err := json.Unmarshal(doc, &reply); err != nil {
		return "", err
	}
	return reply.JobID, nil
}

// Status polls the job state.
func (c *Client) Status(jobID string) (*StatusReply, error) {
	var reply StatusReply
	if err := c.call(http.MethodGet, jobTarget("/gram/status", jobID, nil), jobMessage(jobID), "", nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Output fetches the job's stdout snapshot — called repeatedly by the
// tentative poller.
func (c *Client) Output(jobID string) (string, error) {
	raw, err := c.jobGetRaw("/gram/output", jobID, nil)
	return string(raw), err
}

// StatusBatch fetches many job statuses (plus output versions) in
// ⌈len(jobIDs)/MaxBatch⌉ round-trips instead of one per job. Entries
// come back parallel to jobIDs; per-job failures are reported in each
// entry's Error field, so one bad job never fails the rest.
func (c *Client) StatusBatch(jobIDs []string) ([]BatchEntry, error) {
	entries := make([]BatchEntry, 0, len(jobIDs))
	for start := 0; start < len(jobIDs); start += MaxBatch {
		end := min(start+MaxBatch, len(jobIDs))
		body, err := json.Marshal(batchRequest{Jobs: jobIDs[start:end]})
		if err != nil {
			return nil, err
		}
		var reply BatchReply
		if err := c.call(http.MethodPost, "/gram/status-batch", body, "application/json", body, &reply); err != nil {
			return nil, err
		}
		if len(reply.Entries) != end-start {
			return nil, fmt.Errorf("%w: batch answered %d of %d entries", ErrBadInput, len(reply.Entries), end-start)
		}
		entries = append(entries, reply.Entries...)
	}
	return entries, nil
}

// OutputIfChanged fetches stdout only when the job's output version
// differs from since (If-None-Match on the version ETag). When the
// snapshot is unchanged the reply is 304 — zero body bytes — and
// changed is false. On a fetch, version is the served snapshot's
// version, to be passed back as since next time.
func (c *Client) OutputIfChanged(jobID string, since uint64) (out string, version uint64, changed bool, err error) {
	reply, err := c.send(http.MethodGet, jobTarget("/gram/output", jobID, nil), jobMessage(jobID),
		"", outputETag(since), nil, gridsim.MaxJobOutputBytes+1)
	if err != nil {
		return "", 0, false, err
	}
	if reply.Status == http.StatusNotModified {
		return "", since, false, nil
	}
	if reply.Status != http.StatusOK {
		return "", 0, false, decodeError(reply.Status, reply.Body)
	}
	version = since
	if v, ok := parseOutputETag(reply.Header.Get("ETag")); ok {
		version = v
	}
	return string(reply.Body), version, true, nil
}

// outputETag formats an output version as the entity tag served by
// /gram/output.
func outputETag(v uint64) string { return fmt.Sprintf(`"v%d"`, v) }

// parseOutputETag inverts outputETag.
func parseOutputETag(tag string) (uint64, bool) {
	if len(tag) < 4 || tag[0] != '"' || tag[1] != 'v' || tag[len(tag)-1] != '"' {
		return 0, false
	}
	v, err := strconv.ParseUint(tag[2:len(tag)-1], 10, 64)
	return v, err == nil
}

// OutputFile fetches a named output artifact.
func (c *Client) OutputFile(jobID, name string) ([]byte, error) {
	return c.jobGetRaw("/gram/outfile", jobID, url.Values{"name": {name}})
}

// Cancel stops the job.
func (c *Client) Cancel(jobID string) (*StatusReply, error) {
	var reply StatusReply
	if err := c.call(http.MethodPost, jobTarget("/gram/cancel", jobID, nil), jobMessage(jobID), "", nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Sites fetches grid-wide scheduler statistics.
func (c *Client) Sites() ([]gridsim.SiteStats, error) {
	var reply []gridsim.SiteStats
	if err := c.call(http.MethodGet, "/gram/sites", []byte("sites"), "", nil, &reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// Usage fetches the caller's per-site accounting.
func (c *Client) Usage() ([]gridsim.SiteUsage, error) {
	var reply []gridsim.SiteUsage
	if err := c.call(http.MethodGet, "/gram/usage", []byte("usage"), "", nil, &reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// WaitTerminal polls Status until the job is terminal or the deadline
// passes, polling every interval. This is deliberately the paper's
// inefficient pattern — there are no callbacks.
func (c *Client) WaitTerminal(jobID string, interval, timeout time.Duration) (*StatusReply, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(jobID)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "DONE", "FAILED", "CANCELLED", "TIMEOUT":
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("gram: job %s not terminal after %v", jobID, timeout)
		}
		time.Sleep(interval)
	}
}

func (c *Client) jobGetRaw(path, jobID string, extra url.Values) ([]byte, error) {
	return okBody(c.send(http.MethodGet, jobTarget(path, jobID, extra), jobMessage(jobID), "", "", nil, gridsim.MaxJobOutputBytes+1))
}

// jobMessage is what the token of a request on one job is signed over.
func jobMessage(jobID string) []byte { return []byte("job:" + jobID) }

// jobTarget is the request target of a call on one job. The job ID and
// any extra parameters are query-escaped, so a value holding '&', '#',
// '+' or a space can neither be cut short nor add a parameter to the
// signed request. The tentative poller builds two of these per tick, so a
// well-formed ID costs nothing extra: the ':' of "<site>:job-<n>", which
// a query may carry as it is, is kept and the halves around it escaped,
// which copies only when there is something to escape.
func jobTarget(path, jobID string, extra url.Values) string {
	site, job, colon := strings.Cut(jobID, ":")
	sep := ""
	if colon {
		sep = ":"
	}
	t := path + "?job=" + url.QueryEscape(site) + sep + url.QueryEscape(job)
	if len(extra) > 0 {
		t += "&" + extra.Encode()
	}
	return t
}

// decodeError maps server errors back to sentinel errors where possible.
func decodeError(status int, body []byte) error {
	var er errorReply
	msg := string(body)
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	var sentinel error
	switch {
	case status == http.StatusForbidden && msg == ErrNotOwner.Error():
		sentinel = ErrNotOwner
	case status == http.StatusForbidden:
		sentinel = ErrDenied
	case status == http.StatusNotFound && er.Code == codeNoSuchFile:
		sentinel = ErrNoSuchFile
	case status == http.StatusNotFound:
		sentinel = ErrNoSuchJob
	default:
		sentinel = ErrBadInput
	}
	return fmt.Errorf("%w: http %d: %s", sentinel, status, msg)
}
