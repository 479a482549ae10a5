package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gram"
	"repro/internal/vtime"
)

// flakyGram fails the first few requests to each listed gatekeeper path
// at the transport, then heals — the transient status/fetch trouble every
// collector must ride out.
type flakyGram struct {
	base http.RoundTripper

	mu       sync.Mutex
	left     map[string]int // path -> faults still to inject
	injected int
}

func (f *flakyGram) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	fail := f.left[req.URL.Path] > 0
	if fail {
		f.left[req.URL.Path]--
		f.injected++
	}
	f.mu.Unlock()
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("flakyGram: injected fault")
	}
	return f.base.RoundTrip(req)
}

// heldEvents delays every /gram/events connection until released: the
// stream then opens on a job that is already over, so everything about it
// arrives through the bootstrap resync and as replayed frames.
type heldEvents struct {
	base    http.RoundTripper
	release chan struct{}
}

func (h *heldEvents) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/gram/events" {
		<-h.release
	}
	return h.base.RoundTrip(req)
}

// bareFrames strips the inline snapshot from every event frame: a
// gatekeeper that streams transitions but inlines nothing.
type bareFrames struct{ base http.RoundTripper }

func (b bareFrames) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := b.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/gram/events" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body := resp.Body
	pr, pw := io.Pipe()
	go func() {
		br := bufio.NewReader(body)
		for {
			line, err := br.ReadBytes('\n')
			if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				var fields map[string]json.RawMessage
				if json.Unmarshal(data, &fields) == nil {
					delete(fields, "output")
					data, _ = json.Marshal(fields)
					line = append(append([]byte("data: "), data...), '\n')
				}
			}
			if _, werr := pw.Write(line); werr != nil || err != nil {
				pw.CloseWithError(err)
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

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// collectorGoroutines returns the stacks of goroutines the collect step
// runs, by goroutine ID: tentative pollers, and the push path's stream
// workers (streaming, with their heartbeat monitors, or polling) and
// final-fetch retries. A watchdog is a timer on the clock, not a goroutine.
func collectorGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	owned := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, frame := range []string{
			"core.(*OnServe).pollOutput", "core.(*eventWorker).",
		} {
			if strings.Contains(g, frame) {
				id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
				owned[id] = g
				break
			}
		}
	}
	return owned
}

// waitCollectorsIdle asserts that, once every invocation is terminal and no
// session is cached, the fixture's collect step parks nothing: watchdogs
// stopped, pollers and retries returned, stream workers retired. An
// earlier test's collectors, asleep for good on the clock its cleanup
// stopped, are not f's (f.stale).
func (f *fixture) waitCollectorsIdle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var owned []string
		for id, g := range collectorGoroutines() {
			if _, old := f.stale[id]; !old {
				owned = append(owned, g)
			}
		}
		if len(owned) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d collector goroutines still parked:\n%s", len(owned), strings.Join(owned, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogStartsNoGoroutine: arming a watchdog parks no goroutine of
// its own; it is a timer on the clock until it fires or is stopped.
func TestWatchdogStartsNoGoroutine(t *testing.T) {
	wd := NewWatchdog(vtime.NewManual(time.Unix(0, 0)), time.Hour, func() {})
	defer wd.Stop()
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by repro/internal/core.NewWatchdog") {
			t.Fatalf("an armed watchdog parks a goroutine:\n%s", g)
		}
	}
}

// TestTerminalInvocationLeavesNoWatchdogPending: on a Manual clock, once
// an invocation is terminal nothing of it is pending — the tentative
// poller returned, and stopping its watchdog took the timer off the clock.
func TestTerminalInvocationLeavesNoWatchdogPending(t *testing.T) {
	clk := vtime.NewManual(time.Unix(0, 0))
	f := newFixture(t, func(cfg *Config) { cfg.Clock = clk })
	f.uploadDemo(t)
	inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "1"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !inv.State().Terminal() || clk.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("invocation %s with %d waiters on the clock", inv.State(), clk.Pending())
		}
		if clk.Pending() == 2 { // the watchdog, and the poller asleep beside it
			clk.Advance(f.cfg.PollInterval)
		}
		time.Sleep(time.Millisecond)
	}
	if inv.State() != InvDone {
		t.Fatalf("invocation ended %s: %s", inv.State(), inv.Message())
	}
}

// TestCollectorContract is what every collector promises, whichever one
// New chose: rows are job behaviours, columns the two collectors plus the
// push → poll fallback rung (a stock gatekeeper without /gram/events).
func TestCollectorContract(t *testing.T) {
	type column struct {
		name    string
		mutate  func(*Config)
		noPush  bool // gatekeeper answers 404 on /gram/events
		polls   bool // status RPCs are how this column learns of progress
		streams bool // a healthy event stream carries this column
	}
	columns := []column{
		{name: "tentative", polls: true},
		{name: "push", mutate: func(c *Config) { c.PushEvents = true }, streams: true},
		{name: "push-to-poll", mutate: func(c *Config) { c.PushEvents = true }, noPush: true, polls: true},
	}
	type outcome struct {
		col    column
		invs   []*Invocation
		after  CollectorStats // of a fresh fixture, so these are the cell's deltas
		events EventStats
		flaky  *flakyGram
	}
	rows := []struct {
		name    string
		program string
		n       int // concurrent invocations; 0 means 1
		timeout time.Duration
		faults  map[string]int
		cancel  bool
		// lateStream opens the event stream only once the grid jobs are
		// over; noInline strips the snapshot from every frame.
		lateStream, noInline bool
		state                InvState
		check                func(t *testing.T, oc outcome)
	}{
		{
			name: "done-with-output", program: "emit 2s 5 line\n", n: 3, state: InvDone,
			check: func(t *testing.T, oc outcome) {
				for _, inv := range oc.invs {
					if got := strings.Count(inv.Output(), "line"); got != 5 {
						t.Errorf("final output has %d lines: %q", got, inv.Output())
					}
				}
				if oc.after.OutputFetches+oc.after.OutputInlined == 0 || oc.after.OutputBytes == 0 {
					t.Errorf("no output collected: %+v", oc.after)
				}
				if !oc.col.streams && oc.after.OutputInlined != 0 {
					t.Errorf("inline output without a stream: %+v", oc.after)
				}
			},
		},
		{
			// Three bumps of 4 KB: the last two snapshots are over
			// gram.InlineOutputMax and only announced.
			name: "output-over-inline-limit", program: "emit 1m 3 " + strings.Repeat("x", gram.InlineOutputMax/2) + "\n", state: InvDone,
			check: func(t *testing.T, oc outcome) {
				if got, want := len(oc.invs[0].Output()), 3*(gram.InlineOutputMax/2+1); got != want {
					t.Errorf("final output %d bytes, want %d", got, want)
				}
				if oc.after.OutputFetches == 0 {
					t.Errorf("a 12 KB snapshot arrived without a fetch: %+v", oc.after)
				}
			},
		},
		{
			name: "finished-before-stream", program: "echo early\n", lateStream: true, state: InvDone,
			check: func(t *testing.T, oc outcome) {
				if out := oc.invs[0].Output(); out != "early\n" {
					t.Errorf("output %q", out)
				}
				if oc.after.OutputFetches == 0 || oc.after.OutputInlined != 0 {
					t.Errorf("replayed frames carry no payload, the output is fetched: %+v", oc.after)
				}
			},
		},
		{
			name: "gatekeeper-never-inlines", program: "echo head\ncompute 1m\necho tail\n", noInline: true, state: InvDone,
			check: func(t *testing.T, oc outcome) {
				if out := oc.invs[0].Output(); out != "head\ntail\n" {
					t.Errorf("output %q", out)
				}
				if oc.after.OutputFetches == 0 || oc.after.OutputInlined != 0 {
					t.Errorf("bare frames, the output is fetched: %+v", oc.after)
				}
			},
		},
		{
			name: "failed-with-message", program: "compute 4s\nfail kaboom\n", state: InvFailed,
			check: func(t *testing.T, oc outcome) {
				if msg := oc.invs[0].Message(); !strings.Contains(msg, "kaboom") {
					t.Errorf("message %q", msg)
				}
			},
		},
		{
			name: "cancel-mid-run", program: "emit 2s 10000 t\n", cancel: true, state: InvCancelled,
		},
		{
			name: "watchdog-kill", program: "compute 23h\n", timeout: 20 * time.Second, state: InvKilled,
			check: func(t *testing.T, oc outcome) {
				// The appliance's watchdog or the site's own walltime limit
				// (derived from the same timeout): both end in KILLED.
				msg := oc.invs[0].Message()
				if !strings.Contains(msg, "watchdog") && !strings.Contains(msg, "walltime") {
					t.Errorf("message %q", msg)
				}
			},
		},
		{
			name: "transient-errors-then-recovery", program: "echo head\ncompute 1m\necho tail\n", state: InvDone,
			faults: map[string]int{"/gram/status": 3, "/gram/status-batch": 3, "/gram/output": 3},
			check: func(t *testing.T, oc outcome) {
				if out := oc.invs[0].Output(); out != "head\ntail\n" {
					t.Errorf("output %q", out)
				}
				if oc.flaky.injected == 0 {
					t.Error("no fault was injected")
				}
			},
		},
		{
			name: "output-never-changes", program: "compute 30s\n", state: InvDone,
			check: func(t *testing.T, oc outcome) {
				if out := oc.invs[0].Output(); out != "" {
					t.Errorf("output %q", out)
				}
				if oc.after.OutputBytes != 0 {
					t.Errorf("fetched %d bytes of an empty output", oc.after.OutputBytes)
				}
				if oc.col.name == "tentative" {
					// The paper's poller re-fetches and re-writes the
					// snapshot on every tick, changed or not.
					if oc.after.OutputFetches == 0 || oc.after.PollDiskWrites != oc.after.OutputFetches {
						t.Errorf("tentative poller: %+v", oc.after)
					}
					return
				}
				if oc.after.OutputFetches != 0 || oc.after.PollDiskWrites != 0 {
					t.Errorf("unchanged output was fetched or spilled: %+v", oc.after)
				}
				if oc.after.OutputNotModified == 0 {
					t.Errorf("unchanged snapshot never confirmed: %+v", oc.after)
				}
			},
		},
	}
	for _, row := range rows {
		for _, col := range columns {
			t.Run(row.name+"/"+col.name, func(t *testing.T) {
				var rt http.RoundTripper = overGrid
				flaky := &flakyGram{base: rt, left: map[string]int{}}
				for path, n := range row.faults {
					flaky.left[path] = n
				}
				rt = flaky
				late := &heldEvents{base: rt, release: make(chan struct{})}
				if row.lateStream {
					rt = late
				}
				if row.noInline {
					rt = bareFrames{rt}
				}
				if col.noPush {
					rt = &eventsGate{base: rt, mode: gateNotFound}
				}
				f := newFixtureHTTP(t, rt, func(cfg *Config) {
					if row.timeout > 0 {
						cfg.InvocationTimeout = row.timeout
					}
					if col.mutate != nil {
						col.mutate(cfg)
					}
				})
				if _, err := f.ons.UploadAndGenerate("alice", "job.gsh", "", nil, []byte(row.program)); err != nil {
					t.Fatal(err)
				}
				oc := outcome{col: col, flaky: flaky}
				for i := 0; i < max(row.n, 1); i++ {
					inv, err := f.ons.Invoke("JobService", nil)
					if err != nil {
						t.Fatal(err)
					}
					oc.invs = append(oc.invs, inv)
				}
				if row.cancel {
					if err := f.ons.CancelInvocation(oc.invs[0].Ticket); err != nil {
						t.Fatal(err)
					}
				}
				if row.lateStream {
					for _, inv := range oc.invs {
						job, err := f.env.Grid.Job(inv.JobID)
						if err != nil {
							t.Fatal(err)
						}
						<-job.Done()
					}
					close(late.release)
				}
				for _, inv := range oc.invs {
					waitInv(t, inv, row.name)
					if inv.State() != row.state {
						t.Fatalf("state %s (%s), want %s", inv.State(), inv.Message(), row.state)
					}
					if inv.EndedAt().IsZero() {
						t.Error("terminal invocation has no end time")
					}
				}
				oc.after, oc.events = f.ons.CollectorStats(), f.ons.EventStats()

				// The path each column promises to have taken.
				// (A watchdog row may be over before the first tick or frame.)
				started := row.timeout == 0
				if col.polls && started && oc.after.StatusRPCs == 0 {
					t.Errorf("polling collector issued no status RPC: %+v", oc.after)
				}
				switch {
				case col.streams:
					if (started && oc.events.StreamsOpened == 0) || oc.events.FallbacksToPoll != 0 {
						t.Errorf("healthy push channel: %+v", oc.events)
					}
					// One bootstrap resync per stream is the whole status
					// budget of the push path.
					if oc.after.StatusRPCs > oc.events.StreamsOpened {
						t.Errorf("%d status RPCs over %d streams", oc.after.StatusRPCs, oc.events.StreamsOpened)
					}
				case col.noPush:
					ec := f.ons.collect.(*eventCollector)
					ec.mu.Lock()
					latched := ec.unsupported
					ec.mu.Unlock()
					if (started && !latched) || oc.events.StreamsOpened != 0 {
						t.Errorf("stock-server verdict latched=%v, events %+v", latched, oc.events)
					}
				default:
					if oc.events != (EventStats{}) {
						t.Errorf("poll-only collector touched the push channel: %+v", oc.events)
					}
				}
				if row.check != nil {
					row.check(t, oc)
				}
				f.waitCollectorsIdle(t)
			})
		}
	}
}

// heldCancel performs /gram/cancel at the gatekeeper but holds the reply
// until released, so the test decides what the appliance gets to see
// before its Cancel call returns.
type heldCancel struct {
	base    http.RoundTripper
	sent    chan struct{} // closed once the gatekeeper has cancelled the job
	release chan struct{}
	once    sync.Once
}

func (h *heldCancel) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.base.RoundTrip(req)
	if req.URL.Path == "/gram/cancel" {
		h.once.Do(func() { close(h.sent) })
		<-h.release
	}
	return resp, err
}

// TestWatchdogVerdictSurvivesPushedCancel is the regression for the
// KILLED-vs-CANCELLED flake: the watchdog's own Cancel makes the
// gatekeeper push a CANCELLED event, and under push that event can be
// processed before Cancel returns. The reply is held here until it has
// been; the verdict must still be the watchdog's.
func TestWatchdogVerdictSurvivesPushedCancel(t *testing.T) {
	held := &heldCancel{base: overGrid, sent: make(chan struct{}), release: make(chan struct{})}
	f := newFixtureHTTP(t, held, func(cfg *Config) {
		cfg.PushEvents = true
		cfg.InvocationTimeout = 20 * time.Second
	})
	// Fill every slot so the invocation's job stays queued: the site's own
	// walltime limit (same 20s) never starts, and only the appliance's
	// watchdog can end it.
	for _, name := range f.env.Grid.SiteNames() {
		site, _ := f.env.Grid.Site(name)
		if err := site.Store().Put("/O=Repro/CN=alice", "hog.gsh", []byte("compute 23h\n")); err != nil {
			t.Fatal(err)
		}
		for site.Stats().FreeSlots > 0 {
			j, err := site.Submit(jsdlFor("hog.gsh"))
			if err != nil {
				t.Fatal(err)
			}
			defer site.Cancel(j.ID)
		}
	}
	if _, err := f.ons.UploadAndGenerate("alice", "queued.gsh", "", nil, []byte("echo never\n")); err != nil {
		t.Fatal(err)
	}
	inv, err := f.ons.Invoke("QueuedService", nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held.sent:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never cancelled the grid job")
	}
	// The pushed CANCELLED frame is the only thing left that touches the
	// job: it has been processed once the stream worker has reaped it.
	reaped := func() bool {
		w := pushWorker(f, inv.sessionID)
		if w == nil {
			return true
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.jobs[inv.JobID] == nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for !reaped() {
		if time.Now().After(deadline) {
			t.Fatal("CANCELLED frame never processed")
		}
		time.Sleep(time.Millisecond)
	}
	close(held.release)
	waitInv(t, inv, "watchdog verdict")
	if inv.State() != InvKilled || !strings.Contains(inv.Message(), "watchdog") {
		t.Fatalf("state %s: %s", inv.State(), inv.Message())
	}
	f.waitCollectorsIdle(t)
}
