package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/hop/hoptest"
	"repro/internal/trace"
)

// serviceFleet is a fleet of three, FailThreshold 2 and the default
// cooldown, where alice's SService is published through the front door
// and on the other members past it: the gateway has catalogued it, and
// every member holds it.
func serviceFleet(t *testing.T) *fleet {
	t.Helper()
	f := newFleet(t, 3, func(cfg *Config) { cfg.FailThreshold, cfg.HalfOpenAfter = 2, 0 })
	primary := f.PrimaryFor(publish(t, f.front, "s.gsh", "echo s\n"))
	for i := range f.members {
		if i != primary {
			publish(t, f.door(i), "s.gsh", "echo s\n")
		}
	}
	return f
}

// onceWriter counts the responses a handler writes.
type onceWriter struct {
	*httptest.ResponseRecorder
	headers int
}

func (w *onceWriter) WriteHeader(status int) { w.headers++; w.ResponseRecorder.WriteHeader(status) }

// lost is a fault that answers every request 404 until an upload reaches
// the member, which it answers as the member would: the member had lost
// a service, and the upload puts it back.
func lost() hoptest.Action {
	var back atomic.Bool
	return func(req *http.Request, on hoptest.Path) (*http.Response, error) {
		switch {
		case req.URL.Path == "/upload":
			back.Store(true)
			return hoptest.Respond(http.StatusOK, `{}`)(req, on)
		case back.Load():
			return on.Next(req)
		}
		return hoptest.Respond(http.StatusNotFound, `{"code":"not_found","error":"no such service"}`)(req, on)
	}
}

// proxied is how often each of three members has been asked.
func proxied(members []*member) (n [3]uint64) {
	for i, m := range members {
		n[i] = countsOf(m).Proxied
	}
	return n
}

// keyed is the request to SService that keyed loops send.
func keyed() *http.Request {
	return httptest.NewRequest(http.MethodPost, "/api/invoke", strings.NewReader(`{"service":"SService"}`))
}

// ask serves a keyed request and fails the test unless it answers 200.
func (f *fleet) ask(t *testing.T) {
	t.Helper()
	if code := f.code(keyed()); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
}

// TestLoopFaults is one table for the gateway→appliance edge: each way a
// hop can go wrong, a rule on the first member of the loop's order, met
// through each loop a proxied request takes — ask under serveKeyed's retry
// rule, first (along a ticket's service walk), gather. Per cell: exactly
// one response, of the expected status; every attempt counted once, on
// the member it went to; no write sent again once its bytes reached a
// member; ejection after FailThreshold failed attempts, and no request to
// the member after; the span ended, in error when the request failed.
func TestLoopFaults(t *testing.T) {
	lowerMaxBody(t, 1<<10)
	type want struct {
		status   int
		attempts [3]uint64 // per member of the order: victim, next, last
		fails    int       // the victim's failed attempts per request: 0 or 1
	}
	always := func(a hoptest.Action) func() hoptest.Action { return func() hoptest.Action { return a } }
	faults := []struct {
		name    string
		reached bool                  // the request reached the member before the hop failed
		do      func() hoptest.Action // a fresh fault for each cell
	}{
		{"dial refused", false, always(hoptest.Refuse)},
		{"reset after the request was written", true, always(hoptest.Lose)},
		{"reply past maxBody", true, always(hoptest.Replace(hoptest.Respond(http.StatusOK, strings.Repeat("x", 1<<10+1))))},
		{"5xx", false, always(hoptest.Respond(http.StatusInternalServerError, `{"code":"internal","error":"boom"}`))},
		{"404", false, lost},
	}
	loops := []struct {
		name    string
		request func(ticket string) *http.Request
		gather  bool // asks the members in order, not SService's walk, and opens no span
	}{
		{"ask under the keyed rule", func(string) *http.Request { return keyed() }, false},
		{"first", func(ticket string) *http.Request {
			return httptest.NewRequest(http.MethodPost, "/api/cancel?ticket="+ticket, nil)
		}, false},
		{"gather", func(string) *http.Request { return httptest.NewRequest(http.MethodGet, "/api/services", nil) }, true},
	}
	// cells[loop][fault]. Under the keyed rule a refused dial, provably
	// unsent, is retried on the successor, and a 404 of a catalogued
	// service is replayed onto the member and asked again.
	cells := [3][5]want{
		{{200, [3]uint64{1, 1, 0}, 1}, {502, [3]uint64{1, 0, 0}, 1}, {502, [3]uint64{1, 0, 0}, 1}, {500, [3]uint64{1, 0, 0}, 0}, {200, [3]uint64{2, 0, 0}, 0}},
		{{200, [3]uint64{1, 1, 1}, 1}, {502, [3]uint64{1, 0, 0}, 1}, {502, [3]uint64{1, 0, 0}, 1}, {500, [3]uint64{1, 0, 0}, 0}, {200, [3]uint64{1, 1, 1}, 0}},
		{{200, [3]uint64{1, 1, 1}, 1}, {200, [3]uint64{1, 1, 1}, 1}, {200, [3]uint64{1, 1, 1}, 1}, {200, [3]uint64{1, 1, 1}, 0}, {200, [3]uint64{1, 1, 1}, 0}},
	}
	bubble.Run(func() {
		for l, loop := range loops {
			for k, fault := range faults {
				want := cells[l][k]
				t.Run(loop.name+"/"+fault.name, func(t *testing.T) {
					f := serviceFleet(t)
					order := f.ring.walk("SService", nil)
					if loop.gather {
						order = f.members
					}
					victim := order[0]
					// The last of the walk issued the ticket, which the others
					// do not know.
					inv, _, err := f.door(order[2].idx).Invoke("SService", nil)
					must(t, err)
					// The victim, admitted, is asked first: a write that reaches
					// a member after the victim's fault reached it is sent again.
					hit, writes := &hoptest.Rule{When: at(victim, nil), Do: fault.do()}, &hoptest.Rule{Match: "POST /api/*"}
					f.faults.Add(hit, writes)
					asked := proxied(order)
					serve := func(traceID string) int {
						t.Helper()
						r := loop.request(inv.Ticket)
						r.Header.Set(trace.Header, traceID+"-0123456789abcdef")
						w := &onceWriter{ResponseRecorder: httptest.NewRecorder()}
						hits, sent := hit.Hits.Load(), writes.Hits.Load()
						if f.ServeHTTP(w, r); w.headers != 1 {
							t.Fatalf("%d responses written", w.headers)
						}
						if fault.reached && hit.Hits.Load() > hits && writes.Hits.Load()-sent > 1 {
							t.Error("a write was sent again after a hop that failed once its bytes had reached an upstream")
						}
						return w.Code
					}
					const firstTrace = "000000000000000000000000000000a1"
					if status := serve(firstTrace); status != want.status {
						t.Fatalf("status %d, want %d", status, want.status)
					}
					for i, m := range order {
						fails := map[bool]int{true: want.fails}[m == victim]
						if c := countsOf(m); c.Proxied-asked[i] != want.attempts[i] || c.ProxyErrors != uint64(fails) || c.ConsecutiveFails != fails {
							t.Errorf("member %d of the order: asked %d times, %d proxy errors, %d consecutive fails; want %d, %d, %d",
								i, c.Proxied-asked[i], c.ProxyErrors, c.ConsecutiveFails, want.attempts[i], fails, fails)
						}
					}
					// A second attempt on the victim follows a catalog replay onto it.
					if got := countsOf(victim).Redeploys; got != want.attempts[0]-1 {
						t.Errorf("%d redeploys onto the victim, want %d", got, want.attempts[0]-1)
					}
					switch spans := f.spans(firstTrace); {
					case loop.gather && len(spans) != 0:
						t.Errorf("%d spans from a loop that opens none", len(spans))
					case !loop.gather && len(spans) != 1:
						t.Fatalf("%d spans ended, want 1", len(spans))
					case !loop.gather && (spans[0].Status == "error") != (want.fails > 0):
						t.Errorf("span status %q after %d failed attempts", spans[0].Status, want.fails)
					}

					// Again, up to the threshold: a member that keeps failing is
					// ejected exactly once and then no longer asked; one that
					// answers, however badly, stays.
					serve("000000000000000000000000000000a2")
					if up := f.up(victim); want.fails > 0 {
						if up.State != "ejected" || up.Ejections != 1 || up.ProxyErrors != 2 {
							t.Errorf("after %d failed attempts: %+v", f.cfg.FailThreshold, up)
						}
						before := countsOf(victim).Proxied
						if serve("000000000000000000000000000000a3"); countsOf(victim).Proxied != before {
							t.Errorf("the ejected member was asked again (%d -> %d)", before, countsOf(victim).Proxied)
						}
					} else if up.State != "healthy" || up.ConsecutiveFails != 0 || up.ProxyErrors != 0 {
						t.Errorf("a member that answered was counted against: %+v", up)
					}
				})
			}
		}
	})
}

// cooled is a serviceFleet whose SService primary, refusing dials, keyed
// requests ejected, and which then sat out its cooldown asked by none of
// the requests sent meanwhile. Its dials are still refused.
func cooled(t *testing.T) (f *fleet, victim *member, down *atomic.Bool) {
	t.Helper()
	f = serviceFleet(t)
	victim = f.ring.walk("SService", nil)[0]
	down = f.down(victim)
	if up := f.eject(t, victim, down, func() { f.ask(t) }); up.Ejections != 1 {
		t.Fatalf("after %d refused dials: %+v", f.cfg.FailThreshold, up)
	}
	asked := countsOf(victim).Proxied
	f.ask(t)
	time.Sleep(f.cfg.HalfOpenAfter - time.Nanosecond)
	f.ask(t)
	if got := countsOf(victim).Proxied; got != asked {
		t.Fatalf("asked %d times during the cooldown", got-asked)
	}
	time.Sleep(time.Nanosecond)
	if up := f.up(victim); up.State != "half-open" || up.HalfOpenTrials != 0 {
		t.Fatalf("cooldown over, nothing sent: %+v", up)
	}
	return f, victim, down
}

// TestHalfOpenTrialIsARequest: the trial that readmits an ejected member
// is a request, not a probe: the first keyed request after the cooldown.
// A reply readmits the member; a refused dial restarts the cooldown, and
// the successor serves the request.
func TestHalfOpenTrialIsARequest(t *testing.T) {
	bubble.Run(func() {
		for _, refused := range []bool{false, true} {
			t.Run(map[bool]string{false: "reply", true: "refused"}[refused], func(t *testing.T) {
				f, victim, down := cooled(t)
				asked := countsOf(victim).Proxied
				down.Store(refused)
				f.ask(t)
				if got := countsOf(victim).Proxied; got != asked+1 {
					t.Fatalf("the first request after the cooldown asked the member %d times, want 1", got-asked)
				}
				switch up := f.up(victim); {
				case !refused && (up.State != "healthy" || up.Recoveries != 1 || up.HalfOpenTrials != 1 || up.ConsecutiveFails != 0):
					t.Fatalf("a reply to the trial did not readmit: %+v", up)
				case refused && (up.State != "ejected" || up.Recoveries != 0 || up.HalfOpenTrials != 1 || up.Ejections != 1):
					t.Fatalf("a refused trial: %+v", up)
				case refused:
					if f.ask(t); countsOf(victim).Proxied != asked+1 {
						t.Fatal("a refused trial did not restart the cooldown")
					}
				}
			})
		}
	})
}

// TestHalfOpenAdmitsOneTrialAtATime: a burst of keyed requests and
// scatters that arrives once the cooldown has passed sends the ejected
// member one request, its trial, and nothing more while that trial is
// out; the rest of the burst is served without it.
func TestHalfOpenAdmitsOneTrialAtATime(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const burst = 8
		f, victim, down := cooled(t)
		gate := hoptest.NewGate()
		trial := &hoptest.Rule{When: at(victim, nil), Do: hoptest.Hold(gate, false)}
		f.faults.Add(trial)
		down.Store(false)
		asked := countsOf(victim).Proxied
		codes := make(chan int, burst)
		for i := range burst {
			r := keyed()
			if i%2 == 1 {
				r = httptest.NewRequest(http.MethodGet, "/api/services", nil)
			}
			go func() { codes <- f.code(r) }()
		}
		// Each request of the burst is past its admission once it blocks:
		// parked at the ejected member, or served elsewhere.
		bubble.Wait()
		parked := trial.Hits.Load()
		gate.Open()
		for range burst {
			if code := <-codes; code != http.StatusOK {
				t.Errorf("status %d", code)
			}
		}
		if got := countsOf(victim).Proxied - asked; parked != 1 || got != 1 {
			t.Fatalf("the ejected member was sent %d requests of the burst (%d at once), want 1", got, parked)
		}
		if up := f.up(victim); up.State != "healthy" || up.HalfOpenTrials != 1 || up.Recoveries != 1 {
			t.Fatalf("after the trial's reply: %+v", up)
		}
	})
}

// TestTicketWalksItsServiceRing: a ticket walks its service's successors,
// and nothing is scattered. The primary's ticket costs one hop; one a
// successor issued while the primary was ejected costs two once it is
// back (its 404, then the issuer); an issuer alive but ejected is asked
// last, and answers.
func TestTicketWalksItsServiceRing(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := serviceFleet(t)
		succ := f.ring.walk("SService", nil)
		primary := succ[0]
		down := f.down(primary)
		const waitTrace = "000000000000000000000000000000b1"
		var ticket string
		issue := func() {
			t.Helper()
			inv, status, err := f.front.Invoke("SService", nil)
			if err != nil || status != http.StatusOK {
				t.Fatalf("invoke: status %d, %v", status, err)
			}
			ticket = inv.Ticket
		}
		read := func() int { return f.code(httptest.NewRequest(http.MethodGet, "/api/service?name=SService", nil)) }
		wait := func(want [3]uint64) {
			t.Helper()
			before, routes := proxied(succ), f.stats.Snapshot().TicketRoutes
			r := httptest.NewRequest(http.MethodGet, "/api/wait?ticket="+ticket, nil)
			r.Header.Set(trace.Header, waitTrace+"-0123456789abcdef")
			if code := f.code(r); code != http.StatusOK {
				t.Fatalf("wait: status %d", code)
			}
			after := proxied(succ)
			for i := range after {
				after[i] -= before[i]
			}
			if st := f.stats.Snapshot(); after != want || st.TicketRoutes != routes+1 || st.Scatters != 0 {
				t.Fatalf("wait asked the walk %v, want %v; %d ticket routes (+1 wanted), %d scatters", after, want, st.TicketRoutes-routes, st.Scatters)
			}
		}

		issue()
		wait([3]uint64{1, 0, 0})
		if spans := f.spans(waitTrace); len(spans) != 1 || spans[0].Attrs["upstream"] != primary.id {
			t.Fatalf("the wait's span does not name the issuer: %+v", spans)
		}

		// The primary refuses dials until it is ejected; the invoke that
		// ejects it is issued by the successor.
		f.eject(t, primary, down, issue)
		wait([3]uint64{0, 1, 0})

		// The primary is back: a read readmits it, and the ticket takes two hops.
		down.Store(false)
		time.Sleep(f.cfg.HalfOpenAfter)
		if code := read(); code != http.StatusOK || f.up(primary).State != "healthy" {
			t.Fatalf("trial read: status %d, primary %+v", code, f.up(primary))
		}
		wait([3]uint64{1, 1, 0})
		// A 404 with no envelope is a not_found too: the trace page walks on.
		if code := f.code(httptest.NewRequest(http.MethodGet, "/trace?ticket="+ticket, nil)); code != http.StatusOK {
			t.Fatalf("trace page: status %d", code)
		}

		// The primary issues a ticket, then is ejected although alive: its
		// ticket still reaches it, after the successors' 404s, and its reply
		// readmits it.
		issue()
		f.eject(t, primary, down, func() { read() })
		down.Store(false)
		wait([3]uint64{1, 1, 1})
		if up := f.up(primary); up.State != "healthy" || up.HalfOpenTrials != 1 {
			t.Fatalf("after answering for its ticket: %+v", up)
		}
	})
}
