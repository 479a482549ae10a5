package gateway

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/uddi"
)

// fault is what one upstream does to every hop that reaches it.
type fault int

const (
	healthy      fault = iota
	dialRefused        // no connection: not one byte sent
	resetOnReply       // the request is written, then the connection dies
	replyTooBig        // a 200 whose body runs past maxBody
	status500          // the appliance answers, badly
	status404          // the appliance answers that it knows no such thing
)

var faultNames = map[fault]string{dialRefused: "dial refused", resetOnReply: "reset after the request was written",
	replyTooBig: "reply past maxBody", status500: "5xx", status404: "404"}

// fakeFleet is the transport under a gateway whose members exist only as
// host names: the one seam gateway→appliance faults are injected at. The
// host bad suffers what; every other host is well. It watches for the one
// thing no loop may do: send a write again after a hop that failed once
// its bytes had reached an upstream.
type fakeFleet struct {
	mu        sync.Mutex
	bad       string
	what      fault
	knows     string          // the host that issued ticket "t-known"
	deployed  map[string]bool // hosts that have seen POST /upload
	ambiguous bool
	resent    bool
}

func (f *fakeFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	what := healthy
	if req.URL.Host == f.bad {
		what = f.what
	}
	if what == dialRefused {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	}
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	write := req.Method == http.MethodPost && req.URL.Path != "/upload"
	if write && f.ambiguous {
		f.resent = true
	}
	reply := func(status int, body string) (*http.Response, error) {
		return &http.Response{StatusCode: status, ContentLength: int64(len(body)),
			Header: http.Header{"Content-Type": {"application/json"}}, Body: io.NopCloser(strings.NewReader(body))}, nil
	}
	switch what {
	case resetOnReply:
		f.ambiguous = f.ambiguous || write
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	case replyTooBig:
		f.ambiguous = f.ambiguous || write
		return reply(http.StatusOK, strings.Repeat("x", int(maxBody)+1))
	case status500:
		return reply(http.StatusInternalServerError, `{"code":"internal","error":"boom"}`)
	case status404:
		if req.URL.Path == "/upload" {
			f.deployed[req.URL.Host] = true
		} else if !f.deployed[req.URL.Host] {
			return reply(http.StatusNotFound, `{"code":"not_found","error":"no such service"}`)
		}
	}
	switch req.URL.Path {
	case "/api/invoke":
		return reply(http.StatusOK, `{"job_id":"siteA:job-1","site":"siteA","ticket":"t-new"}`)
	case "/api/cancel":
		if req.URL.Host != f.knows {
			return reply(http.StatusNotFound, `{"code":"not_found","error":"no such ticket"}`)
		}
		return reply(http.StatusOK, `{"state":"cancelling"}`)
	case "/api/services":
		return reply(http.StatusOK, `[{"service_name":"`+strings.ToUpper(req.URL.Host[:1])+`Service"}]`)
	}
	return reply(http.StatusOK, `{}`)
}

// fakeGateway is a gateway of n members over fleet: everything Boot
// builds but the appliances, the listener and the background loops.
func fakeGateway(n int, fleet *fakeFleet) (*Gateway, *trace.Collector) {
	cfg := Config{Fleet: n, FailThreshold: 2}
	cfg.fill()
	col := trace.NewCollector(0, 0)
	g := &Gateway{cfg: cfg, clock: cfg.Clock, httpc: &http.Client{Transport: fleet}, view: newView(),
		tracer: trace.NewTracer("gateway", cfg.Clock, col), byID: map[string]*member{},
		catalog: map[string]*catalogEntry{"SService": {service: "SService", owner: "alice", contentType: "multipart/form-data; boundary=x"}}}
	g.view.upsert(uddi.Record{Name: "SService", Owner: "alice"})
	var ids []string
	for i := 0; i < n; i++ {
		m := &member{id: fmt.Sprintf("shard-%d", i), idx: i, gw: g, base: fmt.Sprintf("http://%c.invalid", 'a'+i)}
		g.members, g.byID[m.id] = append(g.members, m), m
		ids = append(ids, m.id)
	}
	g.ring = newRing(cfg.VirtualNodes, ids)
	return g, col
}

// onceWriter fails the test when a handler writes a second response.
type onceWriter struct {
	*httptest.ResponseRecorder
	t       *testing.T
	headers int
}

func (w *onceWriter) WriteHeader(status int) {
	if w.headers++; w.headers > 1 {
		w.t.Errorf("a second response (%d) was written", status)
	}
	w.ResponseRecorder.WriteHeader(status)
}

// TestLoopFaults is one table for the gateway→appliance edge: each way a
// hop can go wrong, met through each of the loops every proxied request
// takes — ask under serveKeyed's retry rule, first, gather. Per cell:
// exactly one response, of the expected status; every attempt counted
// once, as a failure or as a success, on the member it went to; a write
// never sent again once its bytes reached an upstream; the member ejected
// after FailThreshold failed attempts and left alone from then on; the
// request's span ended, in error when the request failed.
func TestLoopFaults(t *testing.T) {
	lowerMaxBody(t, 1<<10)
	type want struct {
		status   int
		attempts []uint64 // per member: victim, next, last
		fails    int      // the victim's failed attempts per request: 0 or 1
	}
	loops := []struct {
		name    string
		request func() *http.Request
		traced  bool
		order   func(g *Gateway) []*member // the first of it suffers the fault
		want    map[fault]want
	}{
		{
			name: "ask under the keyed rule",
			request: func() *http.Request {
				return httptest.NewRequest(http.MethodPost, "/api/invoke", strings.NewReader(`{"service":"SService"}`))
			},
			traced: true,
			order:  func(g *Gateway) []*member { return g.orderedMembers("SService|alice") },
			want: map[fault]want{
				dialRefused:  {http.StatusOK, []uint64{1, 1, 0}, 1}, // provably unsent: retried on the successor
				resetOnReply: {http.StatusBadGateway, []uint64{1, 0, 0}, 1},
				replyTooBig:  {http.StatusBadGateway, []uint64{1, 0, 0}, 1},
				status500:    {http.StatusInternalServerError, []uint64{1, 0, 0}, 0},
				status404:    {http.StatusOK, []uint64{2, 0, 0}, 0}, // catalogued: replayed, asked again
			},
		},
		{
			name: "first",
			request: func() *http.Request {
				return httptest.NewRequest(http.MethodPost, "/api/cancel?ticket=t-known", nil)
			},
			order: func(g *Gateway) []*member { return g.members },
			want: map[fault]want{
				dialRefused:  {http.StatusOK, []uint64{1, 1, 1}, 1},
				resetOnReply: {http.StatusBadGateway, []uint64{1, 0, 0}, 1},
				replyTooBig:  {http.StatusBadGateway, []uint64{1, 0, 0}, 1},
				status500:    {http.StatusInternalServerError, []uint64{1, 0, 0}, 0},
				status404:    {http.StatusOK, []uint64{1, 1, 1}, 0},
			},
		},
		{
			name:    "gather",
			request: func() *http.Request { return httptest.NewRequest(http.MethodGet, "/api/services", nil) },
			order:   func(g *Gateway) []*member { return g.members },
			want: map[fault]want{
				dialRefused:  {http.StatusOK, []uint64{1, 1, 1}, 1},
				resetOnReply: {http.StatusOK, []uint64{1, 1, 1}, 1},
				replyTooBig:  {http.StatusOK, []uint64{1, 1, 1}, 1},
				status500:    {http.StatusOK, []uint64{1, 1, 1}, 0},
				status404:    {http.StatusOK, []uint64{1, 1, 1}, 0},
			},
		},
	}
	for _, loop := range loops {
		for what, want := range loop.want {
			t.Run(loop.name+"/"+faultNames[what], func(t *testing.T) {
				fleet := &fakeFleet{what: what, deployed: map[string]bool{}}
				g, col := fakeGateway(3, fleet)
				order := loop.order(g)
				victim := order[0]
				fleet.bad = strings.TrimPrefix(victim.base, "http://")
				fleet.knows = strings.TrimPrefix(order[2].base, "http://")

				serve := func(traceID string) int {
					t.Helper()
					fleet.ambiguous = false     // one request's history, not the last one's
					g.tickets.Delete("t-known") // every request searches anew
					r := loop.request()
					r.Header.Set(trace.Header, traceID+"-0123456789abcdef")
					w := &onceWriter{ResponseRecorder: httptest.NewRecorder(), t: t}
					g.ServeHTTP(w, r)
					if w.headers != 1 {
						t.Fatalf("%d responses written", w.headers)
					}
					return w.Code
				}
				const firstTrace = "000000000000000000000000000000a1"
				if status := serve(firstTrace); status != want.status {
					t.Fatalf("status %d, want %d", status, want.status)
				}
				for i, m := range order {
					if got := m.proxied.Load(); got != want.attempts[i] {
						t.Errorf("member %d of the order was asked %d times, want %d", i, got, want.attempts[i])
					}
					fails := 0
					if m == victim {
						fails = want.fails
					}
					if m.proxyErrs.Load() != uint64(fails) || m.fails != fails {
						t.Errorf("member %d: %d proxy errors, %d consecutive fails; want %d of each", i, m.proxyErrs.Load(), m.fails, fails)
					}
				}
				if what == status404 && loop.traced && victim.redeploys.Load() != 1 {
					t.Errorf("%d redeploys onto the member that answered 404, want 1", victim.redeploys.Load())
				}
				spans := col.Trace(firstTrace)
				switch {
				case !loop.traced && len(spans) != 0:
					t.Errorf("%d spans from a loop that opens none", len(spans))
				case loop.traced && len(spans) != 1:
					t.Fatalf("%d spans ended, want 1", len(spans))
				case loop.traced && (spans[0].Status == "error") != (want.fails > 0):
					t.Errorf("span status %q after %d failed attempts", spans[0].Status, want.fails)
				}

				// Again, up to the threshold: a member that keeps failing is
				// ejected exactly once and then no longer asked; one that
				// answers, however badly, stays.
				serve("000000000000000000000000000000a2")
				st := g.GatewayStats()
				up := st.Upstreams[victim.idx]
				if want.fails > 0 {
					if up.State != "ejected" || up.Ejections != 1 || up.ProxyErrors != 2 {
						t.Errorf("after %d failed attempts: %+v", g.cfg.FailThreshold, up)
					}
					before := victim.proxied.Load()
					serve("000000000000000000000000000000a3")
					if got := victim.proxied.Load(); got != before {
						t.Errorf("the ejected member was asked again (%d -> %d)", before, got)
					}
				} else if up.State != "healthy" || up.ConsecutiveFails != 0 || up.ProxyErrors != 0 {
					t.Errorf("a member that answered was counted against: %+v", up)
				}
				if fleet.resent {
					t.Error("a write was sent again after a hop that failed once its bytes had reached an upstream")
				}
			})
		}
	}
}

// TestTicketTableIsBounded: the table holds the newest limit tickets and
// no more, and an evicted ticket that is still alive is found again by
// the search of the fleet, which puts it back.
func TestTicketTableIsBounded(t *testing.T) {
	fleet := &fakeFleet{deployed: map[string]bool{}}
	g, _ := fakeGateway(3, fleet)
	fleet.knows = "c.invalid"
	g.tickets.limit = len(g.members) * core.DefaultInvocationRetention
	bound := g.tickets.limit
	g.tickets.Store("t-known", g.members[2])
	for i := 0; i < bound+100; i++ {
		resp := &bufferedResponse{status: http.StatusOK, body: []byte(fmt.Sprintf(`{"job_id":"j","site":"s","ticket":"t-%d"}`, i))}
		g.learn(Route{Kind: KindInvoke}, g.members[i%3], nil, nil, resp)
	}
	if n := len(g.tickets.issuer); n != bound || len(g.tickets.fifo) != bound {
		t.Fatalf("table holds %d tickets (queue %d), want the bound %d", n, len(g.tickets.fifo), bound)
	}
	if _, ok := g.tickets.Load("t-known"); ok {
		t.Fatal("the oldest ticket was not evicted")
	}
	if m, ok := g.tickets.Load(fmt.Sprintf("t-%d", bound+99)); !ok || m != g.members[(bound+99)%3] {
		t.Fatal("the newest ticket does not resolve")
	}
	w := httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/cancel?ticket=t-known", nil))
	if w.Code != http.StatusOK || g.ctr.scatters.Load() != 1 {
		t.Fatalf("evicted ticket: status %d after %d searches, want 200 after 1", w.Code, g.ctr.scatters.Load())
	}
	if m, ok := g.tickets.Load("t-known"); !ok || m != g.members[2] {
		t.Fatal("the search did not put the ticket back")
	}
	if n := len(g.tickets.issuer); n != bound {
		t.Fatalf("table holds %d tickets after the search, want %d", n, bound)
	}
	w = httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/cancel?ticket=t-known", nil))
	if w.Code != http.StatusOK || g.ctr.scatters.Load() != 1 || g.ctr.ticketRoutes.Load() != 1 {
		t.Fatalf("relearned ticket: status %d, %d searches, %d direct routes", w.Code, g.ctr.scatters.Load(), g.ctr.ticketRoutes.Load())
	}
}
