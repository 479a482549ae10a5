package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gram"
	"repro/internal/trace"
)

// eventsGate wraps a transport to fault-inject only the /gram/events
// path: pass frames through, refuse connections, or answer like a stock
// gatekeeper (404). Live stream bodies are tracked so a test can sever
// them mid-flight, simulating a gatekeeper restart.
type eventsGate struct {
	base http.RoundTripper

	mu     sync.Mutex
	mode   int // gatePass | gateRefuse | gateNotFound
	bodies []io.Closer
}

const (
	gatePass = iota
	gateRefuse
	gateNotFound
)

func (g *eventsGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/gram/events" {
		return g.base.RoundTrip(req)
	}
	g.mu.Lock()
	mode := g.mode
	g.mu.Unlock()
	switch mode {
	case gateRefuse:
		return nil, errors.New("eventsGate: connection refused")
	case gateNotFound:
		return &http.Response{
			Status:     "404 Not Found",
			StatusCode: http.StatusNotFound,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"gram: unknown endpoint"}`)),
			Request: req,
		}, nil
	}
	resp, err := g.base.RoundTrip(req)
	if err == nil {
		g.mu.Lock()
		g.bodies = append(g.bodies, resp.Body)
		g.mu.Unlock()
	}
	return resp, err
}

func (g *eventsGate) setMode(mode int) {
	g.mu.Lock()
	g.mode = mode
	g.mu.Unlock()
}

// killStreams severs every stream opened so far.
func (g *eventsGate) killStreams() {
	g.mu.Lock()
	bodies := g.bodies
	g.bodies = nil
	g.mu.Unlock()
	for _, b := range bodies {
		b.Close()
	}
}

func newPushFixture(t *testing.T, gate *eventsGate, mutate func(*Config)) *fixture {
	t.Helper()
	var client *http.Client
	if gate != nil {
		if gate.base == nil {
			gate.base = http.DefaultTransport
		}
		client = &http.Client{Transport: gate}
	}
	return newFixtureHTTP(t, client, func(cfg *Config) {
		cfg.PushEvents = true
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func waitInv(t *testing.T, inv *Invocation, what string) {
	t.Helper()
	select {
	case <-inv.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: invocation stuck in %s", what, inv.State())
	}
}

func TestPushEventsSteadyStateStatusRPCsNearZero(t *testing.T) {
	// The acceptance bar: under a concurrent burst, the push collector's
	// only status traffic is the one bootstrap resync per fresh stream —
	// every poll tick that the stock/hub paths spend on /gram/status*
	// costs the push path nothing.
	const n = 8
	f := newPushFixture(t, nil, func(cfg *Config) { cfg.SessionCache = true })
	runBatchWorkload(t, f, n)
	stats := f.ons.CollectorStats()
	es := f.ons.EventStats()
	if es.StreamsOpened == 0 || es.EventsDelivered == 0 {
		t.Fatalf("push channel unused: %+v", es)
	}
	if es.FallbacksToPoll != 0 {
		t.Fatalf("fallbacks under a healthy server: %+v", es)
	}
	// One sync per stream open is the whole status budget; jobs ran ~30
	// virtual minutes against a 2s poll interval, so the poll paths would
	// have spent hundreds of RPCs here.
	if stats.StatusRPCs > es.StreamsOpened {
		t.Fatalf("steady-state status RPCs not ≈ 0: %d RPCs over %d streams (%+v)",
			stats.StatusRPCs, es.StreamsOpened, stats)
	}
	if es.StreamsOpened > n {
		t.Fatalf("more streams than invocations: %+v", es)
	}
}

func TestPushEventsMidStreamKillFallsBackThenRecovers(t *testing.T) {
	// Sever the stream mid-job and refuse reconnects: the worker must
	// hand its in-flight invocation to the poll hub (watchdog intact)
	// and the job must still finish. Once the server "heals", the next
	// invocation rides a fresh stream again.
	gate := &eventsGate{}
	f := newPushFixture(t, gate, func(cfg *Config) {
		cfg.InvocationTimeout = 3 * time.Hour
	})
	// Mostly silent and long: the stream is up (and killable) for the
	// whole middle of the job, and the adopting hub's ticks stay cheap.
	if _, err := f.ons.UploadAndGenerate("alice", "longer.gsh", "", nil,
		[]byte("echo head\ncompute 40m\necho tail\n")); err != nil {
		t.Fatal(err)
	}
	inv, err := f.ons.Invoke("LongerService", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.ons.EventStats().EventsDelivered == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never delivered a frame")
		}
		time.Sleep(time.Millisecond)
	}
	gate.setMode(gateRefuse)
	gate.killStreams()
	waitInv(t, inv, "mid-stream kill")
	if inv.State() != InvDone {
		t.Fatalf("state %s: %s (events %+v collector %+v)",
			inv.State(), inv.Message(), f.ons.EventStats(), f.ons.CollectorStats())
	}
	if inv.Output() != "head\ntail\n" {
		t.Fatalf("output lost across the fallback: %q", inv.Output())
	}
	mid := f.ons.EventStats()
	if mid.FallbacksToPoll == 0 {
		t.Fatalf("no fallback recorded after the kill: %+v", mid)
	}

	// Recovery: the latch is per-failure, not permanent — a healed
	// server gets a fresh stream for the next invocation.
	gate.setMode(gatePass)
	if _, err := f.ons.UploadAndGenerate("alice", "quick.gsh", "", nil,
		[]byte("compute 1s\necho back\n")); err != nil {
		t.Fatal(err)
	}
	inv2, err := f.ons.Invoke("QuickService", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitInv(t, inv2, "post-recovery")
	if inv2.State() != InvDone || inv2.Output() != "back\n" {
		t.Fatalf("recovered invocation: %s %q", inv2.State(), inv2.Output())
	}
	after := f.ons.EventStats()
	if after.StreamsOpened <= mid.StreamsOpened {
		t.Fatalf("no new stream after recovery: %+v -> %+v", mid, after)
	}
}

func TestCancelOnCompletionTickPushEvents(t *testing.T) {
	// The cancel-racing-terminal-event race: whichever of the pushed
	// terminal frame and CancelInvocation wins, the invocation finishes
	// exactly once (finish double-closing DoneChan would panic; -race
	// covers the rest).
	cancelOnCompletionTick(t, newFixture(t, func(cfg *Config) { cfg.PushEvents = true }))
}

func TestPushEventsTwoSessionsDoNotCrossDeliver(t *testing.T) {
	// Two users, two sessions, two streams: each invocation must settle
	// from its own session's events with its own output.
	f := newPushFixture(t, nil, nil)
	if _, err := f.env.AddUser("bob", "pw2", 0); err != nil {
		t.Fatal(err)
	}
	f.ons.RegisterUser("bob", UserAuth{MyProxyUser: "bob", Passphrase: "pw2"})
	if _, err := f.ons.UploadAndGenerate("alice", "amine.gsh", "", nil,
		[]byte("emit 2s 4 alice-line\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.UploadAndGenerate("bob", "bmine.gsh", "", nil,
		[]byte("emit 2s 7 bob-line\n")); err != nil {
		t.Fatal(err)
	}
	a, err := f.ons.Invoke("AmineService", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.ons.Invoke("BmineService", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitInv(t, a, "alice")
	waitInv(t, b, "bob")
	if a.State() != InvDone || strings.Count(a.Output(), "alice-line") != 4 ||
		strings.Contains(a.Output(), "bob-line") {
		t.Fatalf("alice: %s %q", a.State(), a.Output())
	}
	if b.State() != InvDone || strings.Count(b.Output(), "bob-line") != 7 ||
		strings.Contains(b.Output(), "alice-line") {
		t.Fatalf("bob: %s %q", b.State(), b.Output())
	}
	if es := f.ons.EventStats(); es.StreamsOpened < 2 {
		t.Fatalf("two sessions shared a stream: %+v", es)
	}
}

// TestTracePushPathLinksParent is the trace-linkage regression for the
// push channel: every recorded "event" span parents under its own
// invocation's collect span (one tree per invocation, no orphans) and
// the terminal event records its delivery latency.
func TestTracePushPathLinksParent(t *testing.T) {
	col := trace.NewCollector(0, 0)
	f := newFixtureTraced(t, nil, col, func(cfg *Config) {
		cfg.PushEvents = true
		cfg.SessionCache = true
	})
	// Long enough that the stream is connected well before the job ends:
	// the terminal state then arrives as a pushed frame (carrying its
	// publication timestamp) rather than through the bootstrap resync.
	if _, err := f.ons.UploadAndGenerate("alice", "traced.gsh", "", nil,
		[]byte("echo begin\ncompute 10m\necho fin\n")); err != nil {
		t.Fatal(err)
	}
	const n = 3
	invs := make([]*Invocation, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inv, err := f.ons.Invoke("TracedService", nil)
			if err != nil {
				t.Error(err)
				return
			}
			<-inv.DoneChan()
			invs[i] = inv
		}(i)
	}
	wg.Wait()
	for _, inv := range invs {
		if inv == nil {
			t.Fatal("invocation failed")
		}
		if inv.State() != InvDone {
			t.Fatalf("state %s: %s", inv.State(), inv.Message())
		}
		spans, err := f.ons.InvocationTrace(inv.Ticket)
		if err != nil {
			t.Fatal(err)
		}
		assertSingleTree(t, spans)
		byName, byID := indexSpans(spans)
		events := byName["event"]
		if len(events) == 0 {
			t.Fatal("push collection recorded no event span")
		}
		terminalSeen := false
		for _, sd := range events {
			if p, ok := byID[sd.ParentID]; !ok || p.Name != "collect" {
				t.Errorf("event span detached from its invocation's collect span: %+v", sd)
			}
			if sd.Attrs["state"] == "DONE" {
				terminalSeen = true
				if sd.Attrs["delivery_us"] == "" {
					t.Errorf("terminal event span has no delivery latency: %+v", sd.Attrs)
				}
			}
		}
		if !terminalSeen {
			t.Error("no event span recorded the terminal state")
		}
		// The push path must not have fallen back to polling mid-test.
		if len(byName["poll"]) != 0 {
			t.Errorf("poll spans under the push collector: %d", len(byName["poll"]))
		}
	}
}

// heldSubmit performs /gram/submit at the gatekeeper but holds the reply
// until released, so the job runs — and its frames arrive — while the
// appliance still waits to learn its ID. The reply's job ID is published
// on sent.
type heldSubmit struct {
	base    http.RoundTripper
	armed   atomic.Bool
	sent    chan string
	release chan struct{}
}

func (h *heldSubmit) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.base.RoundTrip(req)
	if req.URL.Path != "/gram/submit" || err != nil || !h.armed.CompareAndSwap(true, false) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var reply gram.SubmitReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	h.sent <- reply.JobID
	<-h.release
	return resp, nil
}

// pushWorker returns the stream worker of a session (nil once retired).
func pushWorker(f *fixture, sessionID string) *eventWorker {
	ec := f.ons.collect.(*eventCollector)
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.workers[sessionID]
}

// TestFullStashEvictsOldestNotNewest is the regression for the lost
// invocation: a full stash refused incoming events, and the events of an
// in-flight submit are by construction the incoming ones — refused, their
// job's DONE was gone and the invocation waited for the watchdog. The
// stash is filled by hand (no real route parks that many any more); then a
// real job runs to completion while its submit reply is held.
func TestFullStashEvictsOldestNotNewest(t *testing.T) {
	held := &heldSubmit{base: http.DefaultTransport, sent: make(chan string, 1), release: make(chan struct{})}
	f := newFixtureHTTP(t, &http.Client{Transport: held}, func(cfg *Config) {
		cfg.PushEvents = true
		cfg.SessionCache = true
	})
	if _, err := f.ons.UploadAndGenerate("alice", "quick.gsh", "", nil, []byte("echo made-it\n")); err != nil {
		t.Fatal(err)
	}
	// The first invocation opens the session's stream.
	warm, err := f.ons.Invoke("QuickService", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitInv(t, warm, "warm-up")
	w := pushWorker(f, warm.sessionID)
	if w == nil {
		t.Fatal("a cached session's worker retired")
	}
	for i := 0; i < maxPendingEvents; i++ {
		w.processEvent(gram.EventData{JobID: fmt.Sprintf("ghost:job-%06d", i), State: "RUNNING"})
	}

	before := f.ons.CollectorStats().OutputFetches
	held.armed.Store(true)
	invoked := make(chan *Invocation, 1)
	go func() {
		inv, err := f.ons.Invoke("QuickService", nil)
		if err != nil {
			t.Error(err)
		}
		invoked <- inv
	}()
	jobID := <-held.sent
	job, err := f.env.Grid.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	// Every frame of the job has been consumed once its terminal one is
	// the stash's entry for it.
	waitFor(t, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.pending[jobID].ev.State == "DONE"
	})
	w.mu.Lock()
	size := len(w.pending)
	_, oldestKept := w.pending["ghost:job-000000"]
	_, newerKept := w.pending["ghost:job-000001"]
	w.mu.Unlock()
	if size != maxPendingEvents || oldestKept || !newerKept {
		t.Fatalf("stash holds %d entries (bound %d), oldest kept=%v, second-oldest kept=%v",
			size, maxPendingEvents, oldestKept, newerKept)
	}
	close(held.release)
	inv := <-invoked
	if inv == nil {
		t.FailNow()
	}
	waitInv(t, inv, "in-flight submit over a full stash")
	if inv.State() != InvDone || inv.Output() != "made-it\n" {
		t.Fatalf("state %s (%s), output %q", inv.State(), inv.Message(), inv.Output())
	}
	if fetches := f.ons.CollectorStats().OutputFetches - before; fetches != 0 {
		t.Errorf("%d output fetches: the stashed terminal frame carried the snapshot", fetches)
	}
}

// TestPushStreamScopedToItsSession pins the fan-out key and the stream
// lifetime rule on two sessions of one identity: each stream carries
// exactly its own session's frames, a worker whose session left the cache
// retires when its last job does, and the cached session's worker stays —
// the next invocation costs no stream, resync or fetch — until the session
// is invalidated.
func TestPushStreamScopedToItsSession(t *testing.T) {
	f := newPushFixture(t, nil, func(cfg *Config) { cfg.SessionCache = true })
	if _, err := f.ons.UploadAndGenerate("alice", "along.gsh", "", nil,
		[]byte("echo a1\ncompute 30m\necho a2\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ons.UploadAndGenerate("alice", "bshort.gsh", "", nil,
		[]byte("emit 2s 3 b-line\n")); err != nil {
		t.Fatal(err)
	}
	a, err := f.ons.Invoke("AlongService", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh logon: same identity, new proxy, new session.
	f.ons.invalidateSession("alice", a.sessionID)
	b, err := f.ons.Invoke("BshortService", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.sessionID == b.sessionID {
		t.Fatal("invalidated session reused")
	}
	waitInv(t, b, "session B")
	if b.State() != InvDone || strings.Count(b.Output(), "b-line") != 3 {
		t.Fatalf("session B: %s %q", b.State(), b.Output())
	}
	// Session A's job is still running and has published at least RUNNING
	// and its first line: under an identity-wide fan-out B's worker has
	// heard them and parked them as "not registered yet".
	wb := pushWorker(f, b.sessionID)
	if wb == nil {
		t.Fatal("the cached session's worker retired")
	}
	wb.mu.Lock()
	for id := range wb.pending {
		t.Errorf("session B's worker stashed an event of job %s", id)
	}
	wb.mu.Unlock()
	waitInv(t, a, "session A")
	if a.State() != InvDone || a.Output() != "a1\na2\n" {
		t.Fatalf("session A: %s %q", a.State(), a.Output())
	}
	// A: RUNNING, two bumps, DONE; B: RUNNING, three bumps, DONE — each
	// delivered once, to its own stream.
	waitFor(t, func() bool { return pushWorker(f, a.sessionID) == nil })
	es := f.ons.EventStats()
	if es.EventsDelivered != 4+5 || es.StreamsOpened != 2 {
		t.Fatalf("events %+v, want 9 frames over 2 streams", es)
	}

	// The cached session keeps its stream: one more invocation rides it.
	before := f.ons.CollectorStats()
	b2, err := f.ons.Invoke("BshortService", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitInv(t, b2, "second invocation on session B")
	if b2.sessionID != b.sessionID || b2.State() != InvDone {
		t.Fatalf("session %s state %s", b2.sessionID, b2.State())
	}
	after, es2 := f.ons.CollectorStats(), f.ons.EventStats()
	if es2.StreamsOpened != 2 || es2.EventsDelivered != es.EventsDelivered+5 ||
		after.StatusRPCs != before.StatusRPCs || after.OutputFetches != before.OutputFetches {
		t.Fatalf("warm stream: events %+v -> %+v, collector %+v -> %+v", es, es2, before, after)
	}
	if pushWorker(f, b.sessionID) != wb {
		t.Fatal("the cached session's worker was replaced")
	}
	// ... and lets go of it within a heartbeat of losing the session.
	f.ons.invalidateSession("alice", b.sessionID)
	waitCollectorsIdle(t)
	if pushWorker(f, b.sessionID) != nil {
		t.Fatal("worker still registered after its goroutine ended")
	}
}
