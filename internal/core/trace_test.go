package core

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/trace"
)

// indexSpans groups one trace's spans by name and span id.
func indexSpans(spans []trace.SpanData) (byName map[string][]trace.SpanData, byID map[string]trace.SpanData) {
	byName = make(map[string][]trace.SpanData)
	byID = make(map[string]trace.SpanData)
	for _, sd := range spans {
		byName[sd.Name] = append(byName[sd.Name], sd)
		byID[sd.SpanID] = sd
	}
	return
}

// assertSingleTree fails unless spans form one tree: a single root,
// every parent link resolving to a retained span, one shared trace id.
func assertSingleTree(t *testing.T, spans []trace.SpanData) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	_, byID := indexSpans(spans)
	roots := 0
	for _, sd := range spans {
		if sd.TraceID != spans[0].TraceID {
			t.Fatalf("span %s/%s left the trace: %s != %s", sd.Service, sd.Name, sd.TraceID, spans[0].TraceID)
		}
		if sd.ParentID == "" {
			roots++
			continue
		}
		if _, ok := byID[sd.ParentID]; !ok {
			t.Errorf("orphan span %s/%s: parent %s not retained", sd.Service, sd.Name, sd.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want 1", roots)
	}
}

// TestTraceEndToEnd is the acceptance check: one quickstart-style
// invocation with Tracing on yields a single span tree covering logon,
// blob fetch, staging, submit, polling, and output collection across
// the onServe core and all four grid services, with byte and duration
// attributes.
func TestTraceEndToEnd(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		col := trace.NewCollector(0, 0)
		f := newFixtureTraced(t, nil, col, nil)
		f.uploadDemo(t)
		inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "7"})
		if err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if got := inv.State(); got != InvDone {
			t.Fatalf("state %s: %s", got, inv.Message())
		}
		spans, err := f.ons.InvocationTrace(inv.Ticket)
		if err != nil {
			t.Fatal(err)
		}
		assertSingleTree(t, spans)

		services := map[string]bool{}
		for _, sd := range spans {
			services[sd.Service] = true
		}
		for _, svc := range []string{"onserve", "myproxy", "gridftp", "gram", "gridsim"} {
			if !services[svc] {
				t.Errorf("service %s recorded no spans", svc)
			}
		}
		byName, byID := indexSpans(spans)
		for _, name := range []string{
			"invoke", "logon", "db.fetch", "stage", "submit", "collect", "poll",
			"myproxy.get", "ftp.put", "gram.submit", "job.queue", "job.run",
		} {
			if len(byName[name]) == 0 {
				t.Errorf("span %q missing from the tree", name)
			}
		}
		t.Logf("trace: %d spans across %d services", len(spans), len(services))
		if len(byName["invoke"]) > 0 {
			root := byName["invoke"][0]
			if root.ParentID != "" || root.Status != "ok" {
				t.Errorf("root span wrong: %+v", root)
			}
			if root.Attrs["ticket"] != inv.Ticket {
				t.Errorf("root ticket attr = %q, want %q", root.Attrs["ticket"], inv.Ticket)
			}
			if root.DurationMS <= 0 {
				t.Errorf("root duration %v", root.DurationMS)
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
		for child, parent := range map[string]string{
			"myproxy.get": "logon", "ftp.put": "stage", "gram.submit": "submit",
		} {
			for _, sd := range byName[child] {
				p, ok := byID[sd.ParentID]
				if !ok || p.Name != parent {
					t.Errorf("%s parent = %q, want %s", child, p.Name, parent)
				}
			}
		}
	})
}

// stockGatekeeper is a grid transport whose gatekeeper has no event
// stream (404 on /gram/events): under PushEvents, the collector polls.
func stockGatekeeper() http.RoundTripper {
	return &eventsGate{base: overGrid, mode: gateNotFound}
}

// TestTraceHubPathsLinkParent is the satellite-2 regression: with
// coalesced staging and push fallen back to polling, each submit and each
// batched status entry still parents under its own invocation's span tree
// — no orphan spans, and the batched work is attributable per invocation.
func TestTraceHubPathsLinkParent(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		col := trace.NewCollector(0, 0)
		f := newFixtureTraced(t, stockGatekeeper(), col, func(c *Config) {
			c.CoalesceStaging = true
			c.PushEvents = true
		})
		f.uploadDemo(t)

		const n = 3
		invs := make([]*Invocation, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				inv, err := f.ons.Invoke("MontecarloService", map[string]string{"digits": "9"})
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
			subs := byName["gram.submit"]
			if len(subs) == 0 {
				t.Fatal("submit recorded no gram.submit span")
			}
			for _, sd := range subs {
				if p, ok := byID[sd.ParentID]; !ok || p.Name != "submit" {
					t.Errorf("gram.submit detached from its invocation's submit span")
				}
			}
			polled := false
			for _, sd := range byName["poll"] {
				if sd.Attrs["batched"] != "true" {
					t.Errorf("fallback poll span not marked batched: %+v", sd.Attrs)
				}
				if p, ok := byID[sd.ParentID]; !ok || p.Name != "collect" {
					t.Errorf("fallback poll span detached from its invocation's collect span")
				}
				polled = true
			}
			if !polled {
				t.Error("fallback polling recorded no poll span")
			}
		}
	})
}

const slowProgram = "compute 600s\n"

// TestTraceCancelEndsSpanTree is the satellite-3 regression for the
// stock poller: a cancelled invocation ends its root and collect spans
// with error status instead of leaking them open (an unended span is
// never recorded, so presence in the collector proves the end).
func TestTraceCancelEndsSpanTree(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		col := trace.NewCollector(0, 0)
		f := newFixtureTraced(t, nil, col, nil)
		if _, err := f.ons.UploadAndGenerate("alice", "slow.gsh", "sleeps", nil, []byte(slowProgram)); err != nil {
			t.Fatal(err)
		}
		inv, err := f.ons.Invoke("SlowService", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.ons.CancelInvocation(inv.Ticket); err != nil {
			t.Fatal(err)
		}
		<-inv.DoneChan()
		if inv.State() != InvCancelled {
			t.Fatalf("state %s: %s", inv.State(), inv.Message())
		}
		assertTreeEndedWithError(t, f, inv)
	})
}

// TestTraceWatchdogEndsSpanTree is satellite 3 for the watchdog, under
// both the stock poller and push fallen back to polling: when the deadline
// kills the invocation, the span tree still closes, with error status.
func TestTraceWatchdogEndsSpanTree(t *testing.T) {
	bubble.Run(func() {
		for _, tc := range []struct {
			name     string
			fallback bool
		}{{"stock", false}, {"pollhub", true}} {
			t.Run(tc.name, func(t *testing.T) {
				col := trace.NewCollector(0, 0)
				var grid http.RoundTripper
				if tc.fallback {
					grid = stockGatekeeper()
				}
				f := newFixtureTraced(t, grid, col, func(c *Config) {
					c.InvocationTimeout = 20 * time.Second
					c.PushEvents = tc.fallback
				})
				if _, err := f.ons.UploadAndGenerate("alice", "slow.gsh", "sleeps", nil, []byte(slowProgram)); err != nil {
					t.Fatal(err)
				}
				inv, err := f.ons.Invoke("SlowService", nil)
				if err != nil {
					t.Fatal(err)
				}
				<-inv.DoneChan()
				if inv.State() != InvKilled {
					t.Fatalf("state %s: %s", inv.State(), inv.Message())
				}
				// Two enforcement paths race at the same deadline: the client
				// watchdog, and the site's own walltime limit (derived from
				// the invocation timeout) observed as a TIMEOUT status. Either
				// way the invocation is killed and the tree must close.
				if !strings.Contains(inv.Message(), "watchdog") &&
					!strings.Contains(inv.Message(), "walltime") {
					t.Fatalf("message %q", inv.Message())
				}
				assertTreeEndedWithError(t, f, inv)
			})
		}
	})
}

func assertTreeEndedWithError(t *testing.T, f *fixture, inv *Invocation) {
	t.Helper()
	spans, err := f.ons.InvocationTrace(inv.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	assertSingleTree(t, spans)
	byName, _ := indexSpans(spans)
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
