package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/gram"
	"repro/internal/gridsim"
	"repro/internal/hop/hoptest"
)

// stripOutput drops the inline snapshot from an event frame's data: a
// gatekeeper that streams transitions but inlines nothing.
func stripOutput(_ int, line []byte) ([]byte, error) {
	data, ok := bytes.CutPrefix(line, []byte("data: "))
	var fields map[string]json.RawMessage
	if !ok || json.Unmarshal(data, &fields) != nil {
		return line, nil
	}
	delete(fields, "output")
	data, _ = json.Marshal(fields)
	return append(append([]byte("data: "), data...), '\n'), nil
}

// noEventStream is the rule of a gatekeeper without an event stream:
// under PushEvents, the collector polls.
func noEventStream() *hoptest.Rule {
	return &hoptest.Rule{Match: "/gram/events", Do: hoptest.Answer(404, "gram: unknown endpoint")}
}

// TestCollectorContract is what every collector promises, whichever one
// New chose: rows are job behaviours and faults, columns the two
// collectors plus the push → poll fallback rung (a stock gatekeeper
// without /gram/events).
func TestCollectorContract(t *testing.T) {
	bubble.Run(func() {
		type column struct {
			name    string
			push    bool
			noPush  bool // gatekeeper answers 404 on /gram/events
			polls   bool // status RPCs are how this column learns of progress
			streams bool // a healthy event stream carries this column
		}
		columns := []column{
			{name: "tentative", polls: true},
			{name: "push", push: true, streams: true},
			{name: "push-to-poll", push: true, noPush: true, polls: true},
		}
		type outcome struct {
			col    column
			invs   []*Invocation
			after  CollectorStats // of a fresh fixture, so these are the cell's deltas
			events EventStats
			rules  []*hoptest.Rule
		}
		rows := []struct {
			name    string
			program string
			n       int // concurrent invocations; 0 means 1
			timeout time.Duration
			rules   func() []*hoptest.Rule // the row's faults, fresh for each cell
			cancel  bool                   // cancels the first invocation
			// late opens the event stream only once the grid jobs are over.
			late  bool
			state InvState // "" is any terminal state
			// out is the first invocation's whole output, msg a part of its
			// message, where set; fetched says the output was fetched, and
			// never inlined.
			out, msg string
			fetched  bool
			check    func(t *testing.T, oc outcome)
		}{
			{
				name: "done-with-output", program: "emit 2s 5 line\n", n: 3, state: InvDone,
				check: func(t *testing.T, oc outcome) {
					for _, inv := range oc.invs {
						if got := strings.Count(inv.Output(), "line"); got != 5 {
							t.Errorf("final output has %d lines: %q", got, inv.Output())
						}
					}
					if oc.after.OutputFetches+oc.after.OutputInlined == 0 || oc.after.OutputBytes == 0 || !oc.col.streams && oc.after.OutputInlined != 0 {
						t.Errorf("no output collected, or inline output without a stream: %+v", oc.after)
					}
				},
			},
			{
				// Three bumps of 4 KB: the last two snapshots are over
				// gram.InlineOutputMax and only announced.
				name: "output-over-inline-limit", program: "emit 1m 3 " + strings.Repeat("x", gram.InlineOutputMax/2) + "\n", state: InvDone,
				out: strings.Repeat(strings.Repeat("x", gram.InlineOutputMax/2)+"\n", 3),
				check: func(t *testing.T, oc outcome) {
					if oc.after.OutputFetches == 0 {
						t.Errorf("a 12 KB snapshot arrived without a fetch: %+v", oc.after)
					}
				},
			},
			// Replayed frames carry no payload: the output is fetched.
			{name: "finished-before-stream", program: "echo early\n", late: true, state: InvDone, out: "early\n", fetched: true},
			{
				name: "gatekeeper-never-inlines", program: "echo head\ncompute 1m\necho tail\n", state: InvDone, out: "head\ntail\n", fetched: true,
				rules: func() []*hoptest.Rule {
					return []*hoptest.Rule{{Match: "/gram/events", Do: hoptest.Rewrite(stripOutput)}}
				},
			},
			{name: "failed-with-message", program: "compute 4s\nfail kaboom\n", state: InvFailed, msg: "kaboom"},
			{name: "cancel-mid-run", program: "emit 2s 10000 t\n", cancel: true, state: InvCancelled},
			{
				name: "watchdog-kill", program: "compute 23h\n", timeout: 20 * time.Second, state: InvKilled,
				check: func(t *testing.T, oc outcome) {
					// The appliance's watchdog or the site's own walltime limit
					// (derived from the same timeout): both end in KILLED.
					if msg := oc.invs[0].Message(); !strings.Contains(msg, "watchdog") && !strings.Contains(msg, "walltime") {
						t.Errorf("message %q", msg)
					}
				},
			},
			{
				name: "transient-errors-then-recovery", program: "echo head\ncompute 1m\necho tail\n", state: InvDone, out: "head\ntail\n",
				rules: func() []*hoptest.Rule {
					return []*hoptest.Rule{{Match: "/gram/status", N: 3, Do: hoptest.Fail}, {Match: "/gram/status-batch", N: 3, Do: hoptest.Fail}, {Match: "/gram/output", N: 3, Do: hoptest.Fail}}
				},
				check: func(t *testing.T, oc outcome) {
					if oc.rules[0].Hits.Load()+oc.rules[1].Hits.Load()+oc.rules[2].Hits.Load() == 0 {
						t.Error("no fault was injected")
					}
				},
			},
			{
				name: "output-never-changes", program: "compute 30s\n", state: InvDone,
				check: func(t *testing.T, oc outcome) {
					st := oc.after
					switch {
					case oc.invs[0].Output() != "" || st.OutputBytes != 0:
						t.Errorf("output %q, %d bytes fetched", oc.invs[0].Output(), st.OutputBytes)
					case oc.col.name == "tentative":
						// The paper's poller re-fetches and re-writes the
						// snapshot on every tick, changed or not.
						if st.OutputFetches == 0 || st.PollDiskWrites != st.OutputFetches {
							t.Errorf("tentative poller: %+v", st)
						}
					case st.OutputFetches != 0 || st.PollDiskWrites != 0 || st.OutputNotModified == 0:
						t.Errorf("unchanged output was fetched or spilled, or never confirmed: %+v", st)
					}
				},
			},
		}
		for _, row := range rows {
			for _, col := range columns {
				t.Run(row.name+"/"+col.name, func(t *testing.T) {
					f := newFixture(t, func(cfg *Config) {
						cfg.PushEvents = col.push
						if row.timeout > 0 {
							cfg.InvocationTimeout = row.timeout
						}
					})
					oc := outcome{col: col}
					if col.noPush {
						f.grid.Add(noEventStream())
					}
					late := hoptest.NewGate()
					if row.late {
						f.grid.Add(&hoptest.Rule{Match: "/gram/events", Do: hoptest.Hold(late, false)})
					}
					if row.rules != nil {
						oc.rules = row.rules()
						f.grid.Add(oc.rules...)
					}
					svc := f.publish(t, "job.gsh", row.program)
					for range max(row.n, 1) {
						oc.invs = append(oc.invs, f.invoke(t, svc, nil))
					}
					if row.cancel {
						must(t, f.ons.CancelInvocation(oc.invs[0].Ticket))
					}
					if row.late {
						for _, inv := range oc.invs {
							job, err := f.env.Grid.Job(inv.JobID)
							must(t, err)
							<-job.Done()
						}
						late.Open()
					}
					for _, inv := range oc.invs {
						<-inv.DoneChan()
						if st := inv.State(); !st.Terminal() || row.state != "" && st != row.state {
							t.Fatalf("state %s (%s), want %s", st, inv.Message(), row.state)
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
					if inv := oc.invs[0]; row.out != "" && inv.Output() != row.out || !strings.Contains(inv.Message(), row.msg) {
						t.Errorf("output %q, message %q; want %q and %q in it", inv.Output(), inv.Message(), row.out, row.msg)
					}
					if row.fetched && (oc.after.OutputFetches == 0 || oc.after.OutputInlined != 0) {
						t.Errorf("the output was inlined or never fetched: %+v", oc.after)
					}
					if row.check != nil {
						row.check(t, oc)
					}
					f.collectorsIdle(t)
				})
			}
		}
	})
}

// TestTerminalInvocationLeavesNoWatchdogPending: while an invocation runs,
// one tentative poller collects it beside its watchdog; once it is
// terminal nothing of it is left — the poller returned, and its watchdog
// was stopped, so the deadline passes without a cancel reaching the grid
// (the cached session would carry a fired watchdog's).
func TestTerminalInvocationLeavesNoWatchdogPending(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.SessionCache = true })
		cancels := &hoptest.Rule{Match: "/gram/cancel"}
		f.grid.Add(cancels)
		f.uploadDemo(t)
		inv := f.invoke(t, "MontecarloService", digits("1"))
		bubble.Wait()
		if owned := collectorGoroutines(); inv.State().Terminal() || len(owned) != 1 {
			t.Fatalf("invocation %s with %d collector goroutines, want one poller", inv.State(), len(owned))
		}
		ends(t, inv, InvDone)
		time.Sleep(f.cfg.InvocationTimeout) // past the watchdog's deadline
		bubble.Wait()
		if n, owned := cancels.Hits.Load(), collectorGoroutines(); n != 0 || len(owned) > 0 {
			t.Fatalf("%d cancels after DONE (the watchdog was not stopped), %d collector goroutines left", n, len(owned))
		}
	})
}

// TestPushRetriesFailedFinalFetch: the /gram/output fetch behind a
// terminal event fails. The stream opens only once the job is over, and
// every fetch made before the test opens the gate fails — the bootstrap
// resync's and the replayed frames' — so the push collector's retries off
// the stream loop are what end the invocation, one PollInterval later:
// DONE with its whole stdout, its watchdog stopped and no collector
// goroutine left.
func TestPushRetriesFailedFinalFetch(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// The cached session would carry a fired watchdog's cancel.
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache = true, true })
		var shut atomic.Bool
		late, cancels := hoptest.NewGate(), &hoptest.Rule{Match: "/gram/cancel"}
		f.grid.Add(cancels, &hoptest.Rule{Match: "/gram/output", When: hoptest.Flag(&shut), Do: hoptest.Fail}, &hoptest.Rule{Match: "/gram/events", Do: hoptest.Hold(late, false)})
		inv := f.invoke(t, f.publish(t, "job.gsh", "echo head\ncompute 1m\necho tail\n"), nil)
		job, err := f.env.Grid.Job(inv.JobID)
		must(t, err)
		<-job.Done()
		shut.Store(true)
		late.Open()
		// Both fetches fail at this instant, and their two retries (the
		// resync's terminal state, the replayed DONE frame) wait out a
		// PollInterval.
		bubble.Wait()
		if n := len(goroutines("core.(*eventWorker).finishWhenFetchable")); n != 2 || inv.State().Terminal() {
			t.Fatalf("%d final-fetch retries parked, want 2; %s", n, inv.State())
		}
		// Both retries fetch the final output before either keeps it: one
		// moves the output cursor and keeps the output in one step, the
		// other finds the cursor moved (advance loses); whichever ends the
		// invocation, its output is the whole stdout.
		both := hoptest.NewGate()
		fetched := &hoptest.Rule{Match: "/gram/output", N: 2, Do: hoptest.Hold(both, true)}
		f.grid.Add(fetched)
		shut.Store(false)
		failedAt := time.Now()
		<-both.Arrived
		bubble.Wait()
		before := f.ons.CollectorStats()
		if n := fetched.Hits.Load(); n != 2 {
			t.Fatalf("%d final fetches held, want both retries'", n)
		}
		both.Open()
		if ends(t, inv, InvDone).Output() != "head\ntail\n" {
			t.Fatalf("output %q, want the whole stdout", inv.Output())
		}
		bubble.Wait()
		if st := f.ons.CollectorStats(); st.OutputFetches != before.OutputFetches+1 || st.OutputNotModified != before.OutputNotModified+1 {
			t.Errorf("after the two fetches: %+v, before %+v; want one stored, one found unmoved", st, before)
		}
		if took := inv.EndedAt().Sub(failedAt); took != f.cfg.PollInterval {
			t.Errorf("ended %v after the failed fetches, want one PollInterval (%v)", took, f.cfg.PollInterval)
		}
		// A watchdog left armed would cancel the finished job at its deadline.
		time.Sleep(f.cfg.InvocationTimeout)
		if n := cancels.Hits.Load(); n != 0 {
			t.Errorf("%d cancels after DONE: the watchdog was not stopped", n)
		}
		f.ons.auth.(*sessionCache).invalidate("alice", inv.sessionID) // the stream's worker may retire
		f.collectorsIdle(t)
	})
}

// TestPollRetriesFailedFinalFetch: the output fetch of the poll that sees
// the job DONE fails. The tentative poller must not finish with the
// snapshot an earlier poll stored: it polls again, and the invocation
// ends DONE with the whole stdout.
func TestPollRetriesFailedFinalFetch(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil)
		var job atomic.Pointer[gridsim.Job]
		final := &hoptest.Rule{Match: "/gram/output", N: 1, Do: hoptest.Fail, When: func(*http.Request) bool {
			j := job.Load()
			return j != nil && j.State().Terminal()
		}}
		f.grid.Add(final)
		inv := f.invoke(t, f.publish(t, "job.gsh", "echo head\ncompute 1m\necho tail\n"), nil)
		j, err := f.env.Grid.Job(inv.JobID)
		must(t, err)
		job.Store(j)
		if ends(t, inv, InvDone).Output() != "head\ntail\n" || final.Hits.Load() == 0 {
			t.Fatalf("output %q after %d failed fetches of the ended job, want the whole stdout after one", inv.Output(), final.Hits.Load())
		}
	})
}

// TestWatchdogVerdictSurvivesPushedCancel is the regression for the
// KILLED-vs-CANCELLED flake: the watchdog's own Cancel makes the
// gatekeeper push a CANCELLED event, and under push that event can be
// processed before Cancel returns. The reply is held here until it has
// been; the verdict must still be the watchdog's.
func TestWatchdogVerdictSurvivesPushedCancel(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.InvocationTimeout = true, 20*time.Second })
		held := hoptest.NewGate()
		f.grid.Add(&hoptest.Rule{Match: "/gram/cancel", Do: hoptest.Hold(held, true)})
		// Fill every slot so the invocation's job stays queued: the site's own
		// walltime limit (same 20s) never starts, and only the appliance's
		// watchdog can end it.
		for _, name := range f.env.Grid.SiteNames() {
			fill(t, f.site(name))
		}
		inv := f.invoke(t, f.publish(t, "queued.gsh", "echo never\n"), nil)
		<-held.Arrived
		// The pushed CANCELLED frame is the only thing left that touches the
		// job: it has been processed once the stream worker has reaped it.
		bubble.Wait()
		if w := pushWorker(f, inv.sessionID); w != nil {
			w.mu.Lock()
			pending := w.jobs[inv.JobID] != nil
			w.mu.Unlock()
			if pending {
				t.Fatal("CANCELLED frame never processed")
			}
		}
		held.Open()
		if !strings.Contains(ends(t, inv, InvKilled).Message(), "watchdog") {
			t.Fatalf("message %q", inv.Message())
		}
		f.collectorsIdle(t)
	})
}

// pushWorker returns the stream worker of a session (nil once retired).
func pushWorker(f *fixture, sessionID string) *eventWorker {
	ec := f.ons.collect.(*eventCollector)
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.workers[sessionID]
}

// batch invokes n overlapping jobs of program and waits for each to end
// DONE.
func (f *fixture) batch(t *testing.T, n int, program string) []*Invocation {
	t.Helper()
	svc := f.publish(t, "batchy.gsh", program)
	invs := make([]*Invocation, n)
	for i := range invs {
		invs[i] = f.invoke(t, svc, nil)
	}
	for _, inv := range invs {
		ends(t, inv, InvDone)
	}
	return invs
}

func TestPushEventsSteadyStateStatusRPCsNearZero(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// The acceptance bar: under a concurrent burst, the push collector's
		// only status traffic is the one bootstrap resync per fresh stream —
		// every poll tick that the polling paths spend on /gram/status*
		// costs the push path nothing.
		const n = 8
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache = true, true })
		f.batch(t, n, "compute 1m\necho ok\n")
		stats, es := f.ons.CollectorStats(), f.ons.EventStats()
		if es.StreamsOpened == 0 || es.EventsDelivered == 0 || es.FallbacksToPoll != 0 || es.StreamsOpened > n {
			t.Fatalf("push channel under a healthy server, %d invocations: %+v", n, es)
		}
		// One sync per stream open is the whole status budget; jobs ran
		// minutes against a 2s poll interval, so the poll paths would have
		// spent hundreds of RPCs here.
		if stats.StatusRPCs > es.StreamsOpened {
			t.Fatalf("steady-state status RPCs not ≈ 0: %d RPCs over %d streams (%+v)", stats.StatusRPCs, es.StreamsOpened, stats)
		}
	})
}

func TestPushEventsMidStreamKillFallsBackThenRecovers(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Sever the stream mid-job and refuse reconnects: the worker must
		// poll its in-flight invocation instead (watchdog intact) and the
		// job must still finish. Once the server "heals", the next
		// invocation rides a fresh stream again.
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.InvocationTimeout = true, 3*time.Hour })
		var down atomic.Bool // streams break at their next line, new ones are refused
		// carried closes when the rule lets through the blank line that
		// ends the first state or output frame.
		carried := make(chan struct{})
		closeCarried := sync.OnceFunc(func() { close(carried) })
		var jobFrame atomic.Int64 // 1 + the frame a job event's line last began
		f.grid.Add(&hoptest.Rule{Match: "/gram/events", When: hoptest.Flag(&down), Do: hoptest.Fail}, &hoptest.Rule{Match: "/gram/events", Do: hoptest.Rewrite(func(frame int, line []byte) ([]byte, error) {
			if down.Load() {
				return nil, hoptest.ErrInjected
			}
			switch string(line) {
			case "event: " + gram.EventState + "\n", "event: " + gram.EventOutput + "\n":
				jobFrame.Store(int64(frame) + 1)
			case "\n":
				if jobFrame.Load() == int64(frame)+1 {
					closeCarried()
				}
			}
			return line, nil
		})})
		// Mostly silent and long: the stream is up (and killable) for the
		// whole middle of the job, and the fallback's ticks stay cheap.
		inv := f.invoke(t, f.publish(t, "longer.gsh", "echo head\ncompute 2m\necho tail\n"), nil)
		select {
		case <-carried:
		case <-inv.DoneChan():
			t.Fatalf("the stream carried no event before the job ended: %+v", f.ons.EventStats())
		}
		bubble.Wait() // the worker has read the frame and settled
		if f.ons.EventStats().EventsDelivered == 0 {
			t.Fatalf("the stream carried no event before the kill: %+v", f.ons.EventStats())
		}
		down.Store(true)
		if ends(t, inv, InvDone).Output() != "head\ntail\n" {
			t.Fatalf("output lost across the fallback: %q", inv.Output())
		}
		mid := f.ons.EventStats()
		if mid.FallbacksToPoll == 0 {
			t.Fatalf("no fallback recorded after the kill: %+v", mid)
		}
		// Recovery: the latch is per-failure, not permanent — a healed
		// server gets a fresh stream for the next invocation.
		down.Store(false)
		if inv2 := ends(t, f.invoke(t, f.publish(t, "quick.gsh", "compute 1s\necho back\n"), nil), InvDone); inv2.Output() != "back\n" {
			t.Fatalf("recovered invocation: %q", inv2.Output())
		}
		if after := f.ons.EventStats(); after.StreamsOpened <= mid.StreamsOpened {
			t.Fatalf("no new stream after recovery: %+v -> %+v", mid, after)
		}
	})
}

// TestPushEventsStalledStreamFallsBack: a gatekeeper whose streams say
// hello and then nothing. The heartbeat monitor severs each silent stream,
// two frameless connections send the worker to polling its jobs, and the
// registrations that race its leaving open fresh streams that stall the
// same way. Every invocation still ends DONE once, with its whole output.
func TestPushEventsStalledStreamFallsBack(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const n = 16
		f := newFixture(t, func(cfg *Config) {
			cfg.PushEvents, cfg.SessionCache, cfg.InvocationTimeout, cfg.PollInterval = true, true, 8*time.Hour, 10*time.Second
		})
		f.grid.Add(&hoptest.Rule{Match: "/gram/events", Do: hoptest.Rewrite(func(frame int, line []byte) ([]byte, error) {
			if frame > 0 {
				return nil, nil // past the hello frame
			}
			return line, nil
		})})
		svc := f.publish(t, "stalled.gsh", "echo head\ncompute 2m\necho tail\n")
		invs := make([]*Invocation, n)
		burst(t, n, func(i int) (err error) {
			// Spread over the first worker's two stalls (each over three
			// 5-second heartbeats), so that registrations land while it
			// leaves the collector.
			time.Sleep(time.Duration(i) * 4 * time.Second)
			invs[i], err = f.ons.Invoke(svc, nil)
			return err
		})
		for _, inv := range invs {
			if ends(t, inv, InvDone).Output() != "head\ntail\n" {
				t.Fatalf("output %q", inv.Output())
			}
		}
		if done := f.ons.Monitoring().Invocations[string(InvDone)]; done != n {
			t.Errorf("%d invocations recorded DONE, want %d", done, n)
		}
		completed := 0
		for _, st := range f.env.Grid.Stats() {
			completed += st.Completed
		}
		if completed != n {
			t.Errorf("the grid completed %d jobs for %d invocations", completed, n)
		}
		if es := f.ons.EventStats(); es.FallbacksToPoll == 0 || es.EventsDelivered != 0 {
			t.Errorf("stalled streams: %+v", es)
		}
		f.ons.auth.(*sessionCache).invalidate("alice", invs[0].sessionID)
		f.collectorsIdle(t)
	})
}

func TestPushEventsTwoSessionsDoNotCrossDeliver(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Two users, two sessions, two streams: each invocation must settle
		// from its own session's events with its own output.
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents = true })
		_, err := f.env.AddUser("bob", "pw2", 0)
		must(t, err)
		f.ons.RegisterUser("bob", UserAuth{MyProxyUser: "bob", Passphrase: "pw2"})
		amine := f.publish(t, "amine.gsh", "emit 2s 4 alice-line\n")
		_, err = f.ons.UploadAndGenerate("bob", "bmine.gsh", "", nil, []byte("emit 2s 7 bob-line\n"))
		must(t, err)
		a, b := f.invoke(t, amine, nil), f.invoke(t, "BmineService", nil)
		ends(t, a, InvDone)
		if ends(t, b, InvDone); a.Output() != strings.Repeat("alice-line\n", 4) || b.Output() != strings.Repeat("bob-line\n", 7) {
			t.Fatalf("alice %q, bob %q", a.Output(), b.Output())
		}
		if es := f.ons.EventStats(); es.StreamsOpened < 2 {
			t.Fatalf("two sessions shared a stream: %+v", es)
		}
	})
}

// TestTracePushPathLinksParent is the trace-linkage regression for the
// push channel: every recorded "event" span parents under its own
// invocation's collect span (one tree per invocation, no orphans) and
// the terminal event records its delivery latency.
func TestTracePushPathLinksParent(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache = true, true }, traced())
		// Long enough that the stream is connected well before the job ends:
		// the terminal state then arrives as a pushed frame (carrying its
		// publication timestamp) rather than through the bootstrap resync.
		for _, inv := range f.batch(t, 3, "echo begin\ncompute 1m\necho fin\n") {
			byName, byID := f.invocationTree(t, inv)
			if len(byName["event"]) == 0 {
				t.Fatal("push collection recorded no event span")
			}
			terminalSeen := false
			for _, sd := range byName["event"] {
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
	})
}

// TestPushStreamScopedToItsSession pins the fan-out key and the stream
// lifetime rule on two sessions of one identity: each stream carries
// exactly its own session's frames, a worker whose session left the cache
// retires when its last job does, and the cached session's worker stays —
// the next invocation costs no stream, resync or fetch — until the session
// is invalidated.
func TestPushStreamScopedToItsSession(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache = true, true })
		a := f.invoke(t, f.publish(t, "along.gsh", "echo a1\ncompute 1m\necho a2\n"), nil)
		bshort := f.publish(t, "bshort.gsh", "emit 2s 3 b-line\n")
		// A fresh logon: same identity, new proxy, new session.
		f.ons.auth.(*sessionCache).invalidate("alice", a.sessionID)
		b := f.invoke(t, bshort, nil)
		if a.sessionID == b.sessionID {
			t.Fatal("invalidated session reused")
		}
		if ends(t, b, InvDone); strings.Count(b.Output(), "b-line") != 3 {
			t.Fatalf("session B: %q", b.Output())
		}
		// Session A's job is still running and has published at least RUNNING
		// and its first line: B's worker holds no job of A's session (and the
		// frame count below says its stream carried none of them).
		wb := pushWorker(f, b.sessionID)
		if wb == nil {
			t.Fatal("the cached session's worker retired")
		}
		wb.mu.Lock()
		for id, j := range wb.jobs {
			if j.inv.sessionID != b.sessionID {
				t.Errorf("session B's worker holds job %s of session %s", id, j.inv.sessionID)
			}
		}
		wb.mu.Unlock()
		if ends(t, a, InvDone).Output() != "a1\na2\n" {
			t.Fatalf("session A: %q", a.Output())
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
		if b2 := ends(t, f.invoke(t, bshort, nil), InvDone); b2.sessionID != b.sessionID {
			t.Fatalf("session %s, want the cached %s", b2.sessionID, b.sessionID)
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
		f.ons.auth.(*sessionCache).invalidate("alice", b.sessionID)
		f.collectorsIdle(t)
		if pushWorker(f, b.sessionID) != nil {
			t.Fatal("worker still registered after its goroutine ended")
		}
	})
}

// The tests named for the poll hub drive what replaced it: push against a
// stock gatekeeper, whose session workers poll their own jobs.

// cancelOnCompletionTick races CancelInvocation against one job at a
// time as it completes, with the grid's faults: whichever side wins, each
// invocation finishes exactly once (finish closing DoneChan twice would
// panic) with a terminal state.
func cancelOnCompletionTick(t *testing.T, push bool, faults ...*hoptest.Rule) {
	t.Helper()
	f := newFixture(t, func(cfg *Config) { cfg.PushEvents = push })
	f.grid.Add(faults...)
	svc := f.publish(t, "quick.gsh", "compute 1s\necho done\n")
	var wg sync.WaitGroup
	for range 8 {
		inv := f.invoke(t, svc, nil)
		wg.Add(1)
		go func() { defer wg.Done(); f.ons.CancelInvocation(inv.Ticket) }()
		<-inv.DoneChan()
		if st := inv.State(); !st.Terminal() {
			t.Fatalf("non-terminal state %s after DoneChan", st)
		}
	}
	wg.Wait()
	f.collectorsIdle(t)
}

func TestCancelOnCompletionTickStockPoller(t *testing.T) {
	bubble.Test(t, func(t *testing.T) { cancelOnCompletionTick(t, false) })
}

func TestCancelOnCompletionTickPushEvents(t *testing.T) {
	bubble.Test(t, func(t *testing.T) { cancelOnCompletionTick(t, true) })
}

func TestCancelOnCompletionTickPollHub(t *testing.T) {
	bubble.Test(t, func(t *testing.T) { cancelOnCompletionTick(t, true, noEventStream()) })
}

func TestPollHubSkipsUnchangedSnapshots(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// A job that is silent for three poll ticks and then emits once: the
		// poller must confirm the unchanged snapshot without fetching any bytes.
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents = true })
		f.grid.Add(noEventStream())
		inv := ends(t, f.invoke(t, f.publish(t, "quiet.gsh", "compute 10s\necho fin\n"), nil), InvDone)
		if st := f.ons.CollectorStats(); inv.Output() != "fin\n" || st.OutputNotModified == 0 || st.OutputBytes != 4 || st.PollDiskWrites != 1 {
			t.Fatalf("output %q, %+v: want silent ticks confirmed, 4 bytes fetched and spilled once", inv.Output(), st)
		}
	})
}

func TestPollHubBatchesStatusRPCs(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// Eight jobs under one cached session: once the gatekeeper turns out
		// to be stock, the session's worker reads all of them in one
		// status-batch round-trip per tick. In a bubble that is an exact
		// count: each PollInterval the test sleeps holds exactly one of the
		// worker's ticks, and the jobs' compute steps outlast the test.
		const n, ticks = 8, 3
		// The site's walltime limit derives from the timeout: the jobs outlive the test.
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache, cfg.InvocationTimeout = true, true, 100*time.Hour })
		f.grid.Add(noEventStream())
		svc := f.publish(t, "long.gsh", strings.Repeat("compute 24h\n", 4))
		invs := make([]*Invocation, n)
		for i := range invs {
			invs[i] = f.invoke(t, svc, nil)
		}
		// The worker ticked while the submits took their modelled time;
		// count from here.
		bubble.Wait()
		base := f.ons.CollectorStats().StatusRPCs
		tick := func() {
			time.Sleep(f.cfg.PollInterval)
			bubble.Wait()
		}
		for k := 1; k <= ticks; k++ {
			tick()
			if got := f.ons.CollectorStats().StatusRPCs - base; got != uint64(k) {
				t.Fatalf("%d status RPCs after %d ticks of one session", got, k)
			}
		}
		for _, inv := range invs {
			if inv.State().Terminal() {
				t.Fatalf("invocation ended %s before the last tick: %s", inv.State(), inv.Message())
			}
			must(t, f.ons.CancelInvocation(inv.Ticket))
		}
		// One more batch reads the cancellations; the tick after it reaps them
		// and retires the worker.
		tick()
		tick()
		for _, inv := range invs {
			ends(t, inv, InvCancelled)
		}
		f.collectorsIdle(t)
		if got := f.ons.CollectorStats().StatusRPCs - base; got != ticks+1 {
			t.Fatalf("%d status RPCs over %d ticks with jobs to read", got, ticks+1)
		}
	})
}

func TestPollHubIsolatesFailingJob(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// A failing job and a succeeding one share a session, and so a batch;
		// each must reach its own terminal state.
		f := newFixture(t, func(cfg *Config) { cfg.PushEvents, cfg.SessionCache = true, true })
		f.grid.Add(noEventStream())
		bad := f.invoke(t, f.publish(t, "boom.gsh", "compute 4s\nfail kaboom\n"), nil)
		good := f.invoke(t, f.publish(t, "fine.gsh", "compute 4s\necho good\n"), nil)
		if !strings.Contains(ends(t, bad, InvFailed).Message(), "kaboom") || ends(t, good, InvDone).Output() != "good\n" {
			t.Fatalf("bad: %q, good: %q", bad.Message(), good.Output())
		}
	})
}

// TestPollHubDropsStaleEntryOfKilledJob: the watchdog kills the invocation
// while a status batch that read its job RUNNING, with output the
// appliance has not fetched, is in flight. The batch is held until the
// watchdog's cancel has landed; the stale entry then finds the invocation
// KILLED and is dropped: the verdict stays the watchdog's, the output what
// it was, and no output fetch follows.
func TestPollHubDropsStaleEntryOfKilledJob(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		// A cached session outlives the kill: the output stays fetchable.
		f := newFixture(t, func(cfg *Config) {
			cfg.PushEvents, cfg.SessionCache, cfg.InvocationTimeout = true, true, 20*time.Second
		})
		read := hoptest.NewGate()
		cancels, fetches := &hoptest.Rule{Match: "/gram/cancel"}, &hoptest.Rule{Match: "/gram/output"}
		f.grid.Add(noEventStream(), &hoptest.Rule{Match: "/gram/status-batch", Do: hoptest.Hold(read, true)}, cancels, fetches)
		inv := f.invoke(t, f.publish(t, "slow.gsh", "echo head\n"+slowProgram), nil)
		<-read.Arrived
		time.Sleep(f.cfg.InvocationTimeout) // past the watchdog's deadline
		bubble.Wait()
		if cancels.Hits.Load() != 1 || !strings.Contains(ends(t, inv, InvKilled).Message(), "watchdog") {
			t.Fatalf("%d cancels, message %q: want the watchdog's kill landed", cancels.Hits.Load(), inv.Message())
		}
		read.Open()
		bubble.Wait()
		if inv.State() != InvKilled || inv.Output() != "" || fetches.Hits.Load() != 0 {
			t.Fatalf("%s, output %q, %d output fetches after the stale entry: want KILLED, no output, none", inv.State(), inv.Output(), fetches.Hits.Load())
		}
		f.collectorsIdle(t)
	})
}

// TestTraceEndToEnd is the acceptance check: one quickstart-style
// invocation with Tracing on yields a single span tree covering logon,
// blob fetch, staging, submit, polling, and output collection across
// the onServe core and all four grid services, with byte and duration
// attributes.
func TestTraceEndToEnd(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil, traced())
		f.uploadDemo(t)
		inv := f.invoke(t, "MontecarloService", digits("7"))
		byName, byID := f.invocationTree(t, ends(t, inv, InvDone))
		services := map[string]bool{}
		for _, spans := range byName {
			for _, sd := range spans {
				services[sd.Service] = true
			}
		}
		for _, svc := range []string{"onserve", "myproxy", "gridftp", "gram", "gridsim"} {
			if !services[svc] {
				t.Errorf("service %s recorded no spans", svc)
			}
		}
		for _, name := range []string{
			"invoke", "logon", "db.fetch", "stage", "submit", "collect", "poll",
			"myproxy.get", "ftp.put", "gram.submit", "job.queue", "job.run",
		} {
			if len(byName[name]) == 0 {
				t.Errorf("span %q missing from the tree", name)
			}
		}
		if len(byName["invoke"]) > 0 {
			root := byName["invoke"][0]
			if root.ParentID != "" || root.Status != "ok" || root.Attrs["ticket"] != inv.Ticket || root.DurationMS <= 0 {
				t.Errorf("root span wrong: %+v, want the ticket %s", root, inv.Ticket)
			}
		}
		for _, name := range []string{"db.fetch", "stage"} {
			for _, sd := range byName[name] {
				if sd.Attrs["bytes"] == "" || sd.Attrs["bytes"] == "0" {
					t.Errorf("%s span has no byte count: %+v", name, sd.Attrs)
				}
			}
		}
		// The grid-side spans hang off the core's pipeline spans, proving
		// the header crossed every HTTP boundary.
		for child, parent := range map[string]string{"myproxy.get": "logon", "ftp.put": "stage", "gram.submit": "submit"} {
			for _, sd := range byName[child] {
				if p, ok := byID[sd.ParentID]; !ok || p.Name != parent {
					t.Errorf("%s parent = %q, want %s", child, p.Name, parent)
				}
			}
		}
	})
}

// TestTraceHubPathsLinkParent: with coalesced staging and push fallen
// back to polling, each submit and each batched status entry still
// parents under its own invocation's span tree — no orphan spans, and the
// batched work is attributable per invocation.
func TestTraceHubPathsLinkParent(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, func(c *Config) { c.CoalesceStaging, c.PushEvents = true, true }, traced())
		f.grid.Add(noEventStream())
		f.uploadDemo(t)
		invs := make([]*Invocation, 3)
		burst(t, len(invs), func(i int) (err error) {
			invs[i], err = f.ons.Invoke("MontecarloService", digits("9"))
			return err
		})
		for _, inv := range invs {
			byName, byID := f.invocationTree(t, ends(t, inv, InvDone))
			if len(byName["gram.submit"]) == 0 {
				t.Fatal("submit recorded no gram.submit span")
			}
			for _, sd := range byName["gram.submit"] {
				if p, ok := byID[sd.ParentID]; !ok || p.Name != "submit" {
					t.Errorf("gram.submit detached from its invocation's submit span")
				}
			}
			if len(byName["poll"]) == 0 {
				t.Error("fallback polling recorded no poll span")
			}
			for _, sd := range byName["poll"] {
				if p, ok := byID[sd.ParentID]; sd.Attrs["batched"] != "true" || !ok || p.Name != "collect" {
					t.Errorf("fallback poll span %+v not batched under its invocation's collect span", sd.Attrs)
				}
			}
		}
	})
}

const slowProgram = "compute 600s\n"

// TestTraceCancelEndsSpanTree: under the stock poller a cancelled
// invocation ends its root and collect spans with error status instead of
// leaking them open (an unended span is never recorded, so presence in the
// collector proves the end).
func TestTraceCancelEndsSpanTree(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil, traced())
		inv := f.invoke(t, f.publish(t, "slow.gsh", slowProgram), nil)
		must(t, f.ons.CancelInvocation(inv.Ticket))
		f.treeEndedWithError(t, ends(t, inv, InvCancelled))
	})
}

// TestTraceWatchdogEndsSpanTree: under both the stock poller and push
// fallen back to polling, when the deadline kills the invocation, the span
// tree still closes, with error status.
func TestTraceWatchdogEndsSpanTree(t *testing.T) {
	bubble.Run(func() {
		for _, tc := range []struct {
			name     string
			fallback bool
		}{{"stock", false}, {"pollhub", true}} {
			t.Run(tc.name, func(t *testing.T) {
				f := newFixture(t, func(c *Config) { c.InvocationTimeout, c.PushEvents = 20*time.Second, tc.fallback }, traced())
				if tc.fallback {
					f.grid.Add(noEventStream())
				}
				inv := ends(t, f.invoke(t, f.publish(t, "slow.gsh", slowProgram), nil), InvKilled)
				// Two enforcement paths race at the same deadline: the client
				// watchdog, and the site's own walltime limit (derived from
				// the invocation timeout) observed as a TIMEOUT status. Either
				// way the invocation is killed and the tree must close.
				if msg := inv.Message(); !strings.Contains(msg, "watchdog") && !strings.Contains(msg, "walltime") {
					t.Fatalf("message %q", msg)
				}
				f.treeEndedWithError(t, inv)
			})
		}
	})
}

// TestGridTimeoutEndsKilled: a job the grid reports TIMEOUT ends its
// invocation KILLED with the grid's message, at the first poll that sees
// it, long before the watchdog's deadline.
func TestGridTimeoutEndsKilled(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFixture(t, nil, traced())
		timedOut := &hoptest.Rule{Match: "/gram/status", Do: hoptest.Respond(http.StatusOK,
			`{"job_id":"siteA:job-1","state":"TIMEOUT","message":"walltime limit exceeded","site":"siteA"}`)}
		f.grid.Add(timedOut)
		start := time.Now()
		inv := ends(t, f.invoke(t, f.publish(t, "slow.gsh", slowProgram), nil), InvKilled)
		if took := time.Since(start); inv.Message() != "walltime limit exceeded" || took >= f.cfg.InvocationTimeout {
			t.Fatalf("killed after %v with %q, want the grid's message before the watchdog's %v", took, inv.Message(), f.cfg.InvocationTimeout)
		}
		if timedOut.Hits.Load() != 1 {
			t.Errorf("%d status polls answered TIMEOUT, want the one that ended it", timedOut.Hits.Load())
		}
		f.treeEndedWithError(t, inv)
	})
}

func (f *fixture) treeEndedWithError(t *testing.T, inv *Invocation) {
	t.Helper()
	byName, _ := f.invocationTree(t, inv)
	for _, name := range []string{"invoke", "collect"} {
		got := byName[name]
		if len(got) != 1 {
			t.Fatalf("%s recorded %d times, want 1 (leaked or unended span)", name, len(got))
		}
		if got[0].Status != "error" {
			t.Errorf("%s span status %q, want error (%+v)", name, got[0].Status, got[0])
		}
	}
}
