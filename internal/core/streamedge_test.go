package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/bubble"
	"repro/internal/gridftp"
	"repro/internal/gsh"
	"repro/internal/trace"
)

// The three ways an executable's bytes cross the streamed edge, as the
// stage span's wire attribute names them, and the knobs that select each.
var edgeWires = []struct {
	wire  string
	knobs func(*Config)
	stock bool // the sites' servers predate the chunk protocol
}{
	{"stream", nil, false},
	{"gzip-chunks", func(cfg *Config) { cfg.ChunkedStaging, cfg.ChunkBytes, cfg.WireCompression = true, 8<<10, true }, false},
	{"fallback-put", func(cfg *Config) { cfg.ChunkedStaging, cfg.WireCompression = true, true }, true},
}

// faultyEdge is the grid-bound transport of the fault tables. It fails one
// request the way its fault says, answers the chunk endpoints as a stock
// server would when asked to, and keeps what the assertions need: every
// body a file-bearing request carried, how many of its bytes were read,
// and how often a request that registers a file reached the real site.
type faultyEdge struct {
	stock bool
	// fault runs in place of the round trip for the first request target
	// matches; nil passes everything through.
	target func(*http.Request) bool
	fault  func(e *faultyEdge, req *http.Request) (*http.Response, error)
	fired  atomic.Bool

	mu         sync.Mutex
	bodies     []io.ReadCloser
	sent       int64 // bytes read off file PUT bodies
	registered int   // file PUTs and commits the real site answered 201
}

func isFilePut(req *http.Request) bool {
	return req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/ftp/") && !isChunkPath(req.URL.Path)
}

func isChunkPath(path string) bool {
	return strings.HasPrefix(path, "/ftp/chunk/") || path == "/ftp/chunks/have" || path == "/ftp/commit"
}

func isChunkPut(req *http.Request) bool { return strings.HasPrefix(req.URL.Path, "/ftp/chunk/") }
func isCommit(req *http.Request) bool   { return req.URL.Path == "/ftp/commit" }

// countedBody counts the bytes the transport reads off a request body.
type countedBody struct {
	io.ReadCloser
	n *int64
}

func (c countedBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}

func (e *faultyEdge) keep(body io.ReadCloser) {
	e.mu.Lock()
	e.bodies = append(e.bodies, body)
	e.mu.Unlock()
}

func (e *faultyEdge) RoundTrip(req *http.Request) (*http.Response, error) {
	if e.stock && isChunkPath(req.URL.Path) {
		return e.answer(req, http.StatusBadRequest, gridftp.ErrBadInput.Error()+": bad file name"), nil
	}
	if isFilePut(req) {
		e.keep(req.Body)
	}
	if e.fault != nil && e.target(req) && e.fired.CompareAndSwap(false, true) {
		return e.fault(e, req)
	}
	return e.forward(req)
}

// forward sends req to the real site.
func (e *faultyEdge) forward(req *http.Request) (*http.Response, error) {
	if isFilePut(req) {
		req.Body = countedBody{req.Body, &e.sent}
	}
	resp, err := overGrid.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusCreated && (isFilePut(req) || isCommit(req)) {
		e.mu.Lock()
		e.registered++
		e.mu.Unlock()
	}
	return resp, err
}

// answer consumes req as a server would and fabricates its reply.
func (e *faultyEdge) answer(req *http.Request, status int, msg string) *http.Response {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	body, _ := json.Marshal(map[string]string{"error": msg})
	return &http.Response{StatusCode: status, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: req}
}

// breakAfter reads k body bytes, waits, and drops the connection.
func breakAfter(k int64, wait time.Duration) func(*faultyEdge, *http.Request) (*http.Response, error) {
	return func(_ *faultyEdge, req *http.Request) (*http.Response, error) {
		io.CopyN(io.Discard, req.Body, k)
		time.Sleep(wait)
		req.Body.Close()
		return nil, errors.New("read tcp: connection reset by peer")
	}
}

// deadKeepAlive does what the transport does when the pooled connection it
// picked turns out to be dead: close the body, ask GetBody for another,
// send that.
func deadKeepAlive(e *faultyEdge, req *http.Request) (*http.Response, error) {
	io.CopyN(io.Discard, req.Body, 100)
	req.Body.Close()
	again, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	if isFilePut(req) {
		e.keep(again)
	}
	replay := req.Clone(req.Context())
	replay.Body = again
	return e.forward(replay)
}

func siteAnswers(status int, msg string) func(*faultyEdge, *http.Request) (*http.Response, error) {
	return func(e *faultyEdge, req *http.Request) (*http.Response, error) {
		return e.answer(req, status, msg), nil
	}
}

// checkClosed fails unless every stored stream a request carried has been
// closed — which is what hands its gzip.Reader back to the pool. hop's
// transport closes a body before its RoundTrip returns, so there is
// nothing to wait for.
func (e *faultyEdge) checkClosed(t *testing.T) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, body := range e.bodies {
		if _, err := body.Read(make([]byte, 1)); !errors.Is(err, fs.ErrClosed) {
			t.Fatalf("request body %d of %d is not closed: Read says %v", i+1, len(e.bodies), err)
		}
	}
}

// invokeTraced runs one invocation under a span of the test's own, so the
// trace can be found whether or not a ticket was ever issued, and returns
// every span of the trace and the finished invocation's error.
func invokeTraced(t *testing.T, f *fixture, col *trace.Collector, service string) (*Invocation, map[string][]trace.SpanData, error) {
	t.Helper()
	top := f.ons.Tracer().StartRoot("test")
	inv, err := f.ons.InvokeCtx(service, nil, top.Context())
	if err == nil {
		<-inv.DoneChan()
		if inv.State() != InvDone {
			err = fmt.Errorf("invocation ended %s: %s", inv.State(), inv.Message())
		}
	}
	top.End()
	spans := col.Trace(top.Context().String()[:32])
	// Every span that was started has ended: an open one is not in the
	// collector, and its children would dangle.
	assertSingleTree(t, spans)
	byName, _ := indexSpans(spans)
	for _, name := range []string{"invoke", "db.fetch", "logon", "stage"} {
		if len(byName[name]) == 0 {
			t.Errorf("no %s span was recorded", name)
		}
	}
	return inv, byName, err
}

// TestStreamedEdgeFaults drives every fault the edge between the stored
// executable and the site can meet through every wire that crosses it.
func TestStreamedEdgeFaults(t *testing.T) {
	bubble.Run(func() {
		faults := []struct {
			name       string
			fault      func(*faultyEdge, *http.Request) (*http.Response, error)
			atCommit   bool // on the chunk wire the site's verdict comes at commit, not with a chunk
			retried    bool
			definitive bool
		}{
			{name: "reset after 10000 body bytes", fault: breakAfter(10000, 0), retried: true},
			{name: "reset before the first byte", fault: breakAfter(0, 0), retried: true},
			{name: "stall then close", fault: breakAfter(3000, 30*time.Millisecond), retried: true},
			{name: "dead keep-alive", fault: deadKeepAlive},
			{name: "400 checksum mismatch", fault: siteAnswers(http.StatusBadRequest, gridftp.ErrChecksum.Error()+": got 00 want 11"), atCommit: true, definitive: true},
			{name: "507", fault: siteAnswers(http.StatusInsufficientStorage, "gridsim: quota exceeded"), atCommit: true, definitive: true},
		}
		for _, w := range edgeWires {
			for _, fc := range faults {
				t.Run(w.wire+"/"+fc.name, func(t *testing.T) {
					edge := &faultyEdge{stock: w.stock, fault: fc.fault, target: isFilePut}
					if w.wire == "gzip-chunks" {
						edge.target = isChunkPut
						if fc.atCommit {
							edge.target = isCommit
						}
					}
					col := trace.NewCollector(0, 0)
					f := newFixtureTraced(t, edge, col, w.knobs)
					content := f.uploadPadded(t, "edge", "echo edge\n", 64<<10)
					inv, spans, err := invokeTraced(t, f, col, "EdgeService")
					if !edge.fired.Load() {
						t.Fatal("the fault never fired")
					}
					st := f.ons.SubmitStats()
					if want := map[bool]uint64{true: 1}[fc.retried]; st.UploadRetries != want {
						t.Errorf("%d upload retries, want %d", st.UploadRetries, want)
					}
					edge.checkClosed(t)
					site, _ := f.env.Grid.Site("siteA")
					held, herr := site.Store().Get(aliceDN, "EdgeService.gsh")
					if fc.definitive {
						if err == nil || !strings.Contains(err.Error(), "stage executable") || !errors.Is(err, gridftp.ErrBadInput) {
							t.Fatalf("invocation error %v, want the site's rejection named as the stage step's", err)
						}
						if herr == nil || edge.registered != 0 || st.Uploads != 1 {
							t.Fatalf("a refused transfer left %d bytes at the site after %d uploads, %d of them registered", len(held), st.Uploads, edge.registered)
						}
						if stage := spans["stage"]; len(stage) != 1 || stage[0].Status != "error" || spans["invoke"][0].Status != "error" {
							t.Fatalf("stage spans %+v under %+v, want one failed stage under a failed invoke", stage, spans["invoke"])
						}
						waitFor(t, func() bool { return f.parts.Agent.SessionCount() == 0 })
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if inv.Site != "siteA" || !bytes.Equal(held, content) || edge.registered != 1 {
						t.Fatalf("ran at %s; siteA holds %d bytes (%v), registered %d times; want the exact %d bytes exactly once", inv.Site, len(held), herr, edge.registered, len(content))
					}
					if stage := spans["stage"]; len(stage) != 1 || stage[0].Attrs["wire"] != w.wire || (stage[0].Attrs["retried"] == "true") != fc.retried {
						t.Fatalf("stage spans %+v, want one over %s", stage, w.wire)
					}
					// A retry and a replay each read the source from the start
					// again; the chunk wire cuts the stored gzip and opens nothing.
					wantOpens := map[string]int{"stream": 2, "fallback-put": 2, "gzip-chunks": 0}[w.wire]
					if len(edge.bodies) != wantOpens {
						t.Errorf("%d stored streams were opened, want %d", len(edge.bodies), wantOpens)
					}
					if fetch := spans["db.fetch"]; len(fetch) != 1 || fetch[0].Attrs["bytes"] != fmt.Sprint(len(content)) || fetch[0].Attrs["stored_bytes"] == "" {
						t.Errorf("db.fetch spans %+v, want one with both sizes", fetch)
					}
				})
			}
		}
	})
}

// corruptStoredExecutable publishes content as service in a database under
// dir, closes it, and rewrites the logged row: its stored stream through
// mutate, its raw size by sizeOff. The digest the row recorded stays.
func corruptStoredExecutable(t *testing.T, dir, service string, content []byte, mutate func([]byte) []byte, sizeOff int) {
	t.Helper()
	db, err := blobdb.Open(blobdb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Table(ExecutablesTable).Put(service, map[string]string{"owner": "alice"}, content); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-0-000000.log")
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entry map[string]any
	if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("log holds %d bytes, its one frame %d", len(frame), n)
	}
	if err := json.Unmarshal(frame[4:], &entry); err != nil {
		t.Fatal(err)
	}
	comp, err := base64.StdEncoding.DecodeString(entry["comp"].(string))
	if err != nil {
		t.Fatal(err)
	}
	entry["comp"] = base64.StdEncoding.EncodeToString(mutate(comp))
	entry["raw_size"] = len(content) + sizeOff
	out, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(binary.BigEndian.AppendUint32(nil, uint32(len(out))), out...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedEdgeRefusesCorruptRow: a stored stream that went bad on disk
// is found out on the appliance, by the stream itself, before the last byte
// of the PUT is written — so the site registers nothing — and is not retried:
// a second read would find the same row. (The chunk wire ships the stored
// stream as it is and never inflates it; there the site's commit refuses.)
func TestStreamedEdgeRefusesCorruptRow(t *testing.T) {
	bubble.Run(func() {
		same := func(comp []byte) []byte { return comp }
		corruptions := []struct {
			name    string
			mutate  func([]byte) []byte
			sizeOff int
		}{
			{"bit flip", func(comp []byte) []byte { comp[len(comp)/2] ^= 0x04; return comp }, 0},
			{"truncation", func(comp []byte) []byte { return comp[:len(comp)-9] }, 0},
			{"trailing garbage", func(comp []byte) []byte { return append(comp, "garbage"...) }, 0},
			{"raw size one over", same, 1},
			{"raw size one under", same, -1},
		}
		for _, w := range edgeWires {
			if w.wire == "gzip-chunks" {
				continue
			}
			for _, c := range corruptions {
				t.Run(w.wire+"/"+c.name, func(t *testing.T) {
					dir := t.TempDir()
					content := gsh.Pad([]byte("echo never\n"), 96<<10)
					corruptStoredExecutable(t, dir, "BadService", content, c.mutate, c.sizeOff)
					db, err := blobdb.Open(blobdb.Options{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					// Closed before the fixture's cleanup looks for streams that
					// no longer match their rows: this one is meant not to.
					defer db.Close()
					edge := &faultyEdge{stock: w.stock}
					col := trace.NewCollector(0, 0)
					f := newFixtureDB(t, db, edge, col, w.knobs)
					_, spans, err := invokeTraced(t, f, col, "BadService")
					if !errors.Is(err, blobdb.ErrCorrupt) || !strings.Contains(err.Error(), "stage executable") {
						t.Fatalf("invocation error %v, want ErrCorrupt from the stage step", err)
					}
					if st := f.ons.SubmitStats(); st.Uploads != 1 || st.UploadRetries != 0 {
						t.Fatalf("%d uploads, %d retries: a corrupt row is not a transient fault", st.Uploads, st.UploadRetries)
					}
					declared := int64(len(content) + c.sizeOff)
					if sent := atomic.LoadInt64(&edge.sent); sent >= declared || sent == 0 {
						t.Fatalf("%d of the %d declared body bytes were written", sent, declared)
					}
					for _, name := range []string{"siteA", "siteB"} {
						site, _ := f.env.Grid.Site(name)
						if got, err := site.Store().Get(aliceDN, "BadService.gsh"); err == nil {
							t.Fatalf("%s registered %d bytes of a corrupt executable", name, len(got))
						}
					}
					if edge.registered != 0 || len(spans["stage"]) != 1 || spans["stage"][0].Status != "error" {
						t.Fatalf("registered %d times, stage spans %+v", edge.registered, spans["stage"])
					}
					edge.checkClosed(t)
				})
			}
		}
	})
}

// discardSite stands in for the sites' GridFTP servers where only the
// appliance's side of a transfer is of interest: it hashes what a request
// carries, keeps none of it, and answers as the real server would — every
// chunk missing, every checksum confirmed.
type discardSite struct {
	mu  sync.Mutex
	buf [32 << 10]byte
}

func (d *discardSite) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/ftp") {
		return overGrid.RoundTrip(req)
	}
	reply := func(status int, checksum string, body []byte) (*http.Response, error) {
		return &http.Response{StatusCode: status, Header: http.Header{gridftp.ChecksumHeader: {checksum}},
			Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: req}, nil
	}
	defer req.Body.Close()
	switch {
	case req.URL.Path == "/ftp/chunks/have":
		var have struct {
			Digests []string `json:"digests"`
		}
		if err := json.NewDecoder(req.Body).Decode(&have); err != nil {
			return nil, err
		}
		body, _ := json.Marshal(map[string][]string{"missing": have.Digests})
		return reply(http.StatusOK, "", body)
	case req.URL.Path == "/ftp/commit":
		var manifest struct {
			FileSha256 string `json:"file_sha256"`
		}
		if err := json.NewDecoder(req.Body).Decode(&manifest); err != nil {
			return nil, err
		}
		return reply(http.StatusCreated, manifest.FileSha256, nil)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	h := sha256.New()
	if _, err := io.CopyBuffer(struct{ io.Writer }{h}, struct{ io.Reader }{req.Body}, d.buf[:]); err != nil {
		return nil, err
	}
	return reply(http.StatusCreated, hex.EncodeToString(h.Sum(nil)), nil)
}

// notAppliance names the functions under which what the process allocates
// is not the appliance's: the grid's own goroutines, which share the test's
// process — an HTTP server's connection (gatekeeper, GridFTP), the MyProxy
// server, the scheduler — the in-process pipe's buffer, which stands in for
// the kernel's socket buffer, and the count itself.
var notAppliance = []string{"net/http.(*conn).serve", "repro/internal/myproxy.(*Server).", "repro/internal/gridsim.", "repro/internal/netsim.(*pipeConn).Write", "repro/internal/core.applianceAlloc"}

// applianceAlloc returns the bytes the process has allocated outside
// notAppliance, as the memory profile has them — every allocation, while
// runtime.MemProfileRate is 1.
func applianceAlloc() int64 {
	runtime.GC() // publishes the profile up to now
	recs := make([]runtime.MemProfileRecord, 4096)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4)
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		other := false
		for more := true; more && !other; {
			var fr runtime.Frame
			fr, more = frames.Next()
			for _, prefix := range notAppliance {
				other = other || strings.HasPrefix(fr.Function, prefix)
			}
		}
		if !other {
			total += r.AllocBytes
		}
	}
	return total
}

// TestColdStageAllocatesNoExecutableSizedObject is the deterministic guard
// behind the benchmark claim: a cold invocation — fetch, logon, stage,
// submit, collect — of a 1 MB executable allocates a fraction of its size
// on the appliance, whether the bytes stream into one PUT (the paper
// profile) or the stored gzip goes out in chunks (production). In the
// first two rows the sites' servers are replaced by one that keeps nothing,
// and the copy the job runs is a small one placed beforehand; the last runs
// the paper profile against the real sites over the fixture's in-process
// network, so the transport is on the appliance's side of the count too
// (~30 KB measured). The grid's goroutines and the pipe's buffer are left
// out of every count (notAppliance).
func TestColdStageAllocatesNoExecutableSizedObject(t *testing.T) {
	bubble.Run(func() {
		const size = 1 << 20
		for _, tc := range []struct {
			profile string
			knobs   func(*Config)
			sites   http.RoundTripper // nil: the real sites, over hop's own transport
			bar     int64
		}{
			{"paper", nil, &discardSite{}, size / 4},
			{"production", func(cfg *Config) {
				cfg.StagingCache, cfg.SessionCache, cfg.StatsTTL = true, true, 100*time.Hour
				cfg.PushEvents, cfg.CoalesceStaging = true, true
				cfg.ChunkedStaging, cfg.WireCompression, cfg.DataAwarePlacement = true, true, true
			}, &discardSite{}, size / 4},
			{"paper-real-sites", nil, nil, 56 << 10},
		} {
			t.Run(tc.profile, func(t *testing.T) {
				defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
				runtime.MemProfileRate = 1
				f := newFixtureHTTP(t, tc.sites, func(cfg *Config) {
					cfg.InvocationTimeout, cfg.ProxyLifetime = 100*time.Hour, 100*time.Hour
					if tc.knobs != nil {
						tc.knobs(cfg)
					}
				})
				f.uploadPadded(t, "big", "echo big\n", size)
				for _, name := range []string{"siteA", "siteB"} {
					site, _ := f.env.Grid.Site(name)
					if err := site.Store().Put(aliceDN, "BigService.gsh", []byte("echo big\n")); err != nil {
						t.Fatal(err)
					}
				}
				uploaded := f.ons.SubmitStats().Uploads
				run := func(i int) {
					// Cold again: nothing staged, nothing known of any site.
					f.ons.mu.Lock()
					delete(f.ons.staged, "BigService")
					f.ons.mu.Unlock()
					f.ons.forgetPossession("BigService")
					if out, err := f.ons.ExecuteAndWait("BigService", nil); err != nil || out != "big\n" {
						t.Fatalf("run %d: %q, %v", i, out, err)
					}
				}
				// No collection inside the window, so that every pool keeps
				// what it was given.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				run(-1) // warms pools and connections
				const runs = 6
				before := applianceAlloc()
				for i := 0; i < runs; i++ {
					run(i)
				}
				spent := applianceAlloc() - before
				if got := f.ons.SubmitStats().Uploads - uploaded; got != runs+1 {
					t.Fatalf("%d uploads in %d invocations: not every one was cold", got, runs+1)
				}
				if st := f.ons.StageStats(); tc.knobs != nil && (st.ChunkedUploads != runs+1 || st.Fallbacks != 0 || st.WireBytes >= st.LogicalBytes) {
					t.Fatalf("production did not ship the stored gzip in chunks: %+v", st)
				}
				if perOp := spent / runs; perOp > tc.bar {
					t.Fatalf("a cold invocation of a %d B executable allocates %d B", size, perOp)
				}
			})
		}
	})
}

// TestPaperProfileReleasesSessions: without a session cache every
// invocation logs on for itself, and is logged out when it is over.
func TestPaperProfileReleasesSessions(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		f.uploadPadded(t, "brief", "echo brief\n", 1<<10)
		const invocations = 200
		for i := 0; i < invocations; i++ {
			if _, err := f.ons.ExecuteAndWait("BriefService", nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := f.parts.Agent.Logons(); got != invocations {
			t.Fatalf("%d logons for %d invocations", got, invocations)
		}
		waitFor(t, func() bool { return f.parts.Agent.SessionCount() == 0 })
	})
}
