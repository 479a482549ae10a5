package gateway

import (
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bubble"
	"repro/internal/trace"
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
	knows     string          // the host that issued fakeTicket: its last invoke's
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
		f.knows = req.URL.Host
		return reply(http.StatusOK, `{"job_id":"siteA:job-1","site":"siteA","ticket":"`+fakeTicket+`"}`)
	case "/api/cancel", "/api/wait":
		if req.URL.Host != f.knows {
			return reply(http.StatusNotFound, `{"code":"not_found","error":"no such ticket"}`)
		}
		return reply(http.StatusOK, `{"state":"cancelling"}`)
	case "/trace": // an HTML page: its 404 is plain text
		if req.URL.Host != f.knows {
			return reply(http.StatusNotFound, "no such ticket\n")
		}
	case "/api/services":
		return reply(http.StatusOK, `[{"service_name":"`+strings.ToUpper(req.URL.Host[:1])+`Service"}]`)
	}
	return reply(http.StatusOK, `{}`)
}

// fakeTicket is the ticket every fakeFleet member issues: one of
// SService's.
const fakeTicket = "inv-000001-SService-0123456789ab"

// fakeGateway is a gateway of n members over fleet: everything Boot
// builds but the appliances and the listener.
func fakeGateway(n int, fleet *fakeFleet) (*Gateway, *trace.Collector) {
	cfg := Config{Fleet: n, FailThreshold: 2}
	cfg.fill()
	col := trace.NewCollector(0, 0)
	g := &Gateway{cfg: cfg, rt: fleet,
		tracer:  trace.NewTracer("gateway", nil, col),
		catalog: map[string]*catalogEntry{"SService": {service: "SService", contentType: "multipart/form-data; boundary=x"}}}
	for i := 0; i < n; i++ {
		g.members = append(g.members, &member{id: fmt.Sprintf("shard-%d", i), idx: i, gw: g, base: fmt.Sprintf("http://%c.invalid", 'a'+i)})
	}
	g.ring = newRing(g.members)
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

// countsOf reads m's counters.
func countsOf(m *member) UpstreamStats { return m.stats(time.Time{}) }

// TestLoopFaults is one table for the gateway→appliance edge: each way a
// hop can go wrong, met through each of the loops every proxied request
// takes — ask under serveKeyed's retry rule, first (along a ticket's
// service walk), gather. Per cell:
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
		replays bool                       // a 404 replays the catalogued upload
		order   func(g *Gateway) []*member // the first of it suffers the fault
		want    map[fault]want
	}{
		{
			name: "ask under the keyed rule",
			request: func() *http.Request {
				return httptest.NewRequest(http.MethodPost, "/api/invoke", strings.NewReader(`{"service":"SService"}`))
			},
			traced:  true,
			replays: true,
			order:   func(g *Gateway) []*member { return g.ring.successors("SService") },
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
				return httptest.NewRequest(http.MethodPost, "/api/cancel?ticket="+fakeTicket, nil)
			},
			traced: true,
			order:  func(g *Gateway) []*member { return g.ring.successors("SService") },
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
					fleet.ambiguous = false // one request's history, not the last one's
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
					if got := countsOf(m).Proxied; got != want.attempts[i] {
						t.Errorf("member %d of the order was asked %d times, want %d", i, got, want.attempts[i])
					}
					fails := 0
					if m == victim {
						fails = want.fails
					}
					if countsOf(m).ProxyErrors != uint64(fails) || countsOf(m).ConsecutiveFails != fails {
						t.Errorf("member %d: %d proxy errors, %d consecutive fails; want %d of each", i, countsOf(m).ProxyErrors, countsOf(m).ConsecutiveFails, fails)
					}
				}
				if what == status404 && loop.replays && countsOf(victim).Redeploys != 1 {
					t.Errorf("%d redeploys onto the member that answered 404, want 1", countsOf(victim).Redeploys)
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
					before := countsOf(victim).Proxied
					serve("000000000000000000000000000000a3")
					if got := countsOf(victim).Proxied; got != before {
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

// TestHalfOpenTrialIsARequest: the trial that readmits an ejected member
// is a request, not a probe. During the cooldown the member is never
// asked; once the cooldown has passed, the next keyed request asks it. A
// reply readmits it; a refused dial restarts the cooldown, and the
// request itself is served by the successor.
func TestHalfOpenTrialIsARequest(t *testing.T) {
	bubble.Run(func() {
		for name, trial := range map[string]fault{"reply": healthy, "refused": dialRefused} {
			t.Run(name, func(t *testing.T) {
				fleet := &fakeFleet{what: dialRefused, deployed: map[string]bool{}}
				g, _ := fakeGateway(3, fleet)
				victim := g.ring.successors("SService")[0]
				fleet.bad = strings.TrimPrefix(victim.base, "http://")
				invoke := func() {
					t.Helper()
					w := httptest.NewRecorder()
					g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/invoke", strings.NewReader(`{"service":"SService"}`)))
					if w.Code != http.StatusOK {
						t.Fatalf("status %d: %s", w.Code, w.Body)
					}
				}
				upstream := func() UpstreamStats { return g.GatewayStats().Upstreams[victim.idx] }
				for range g.cfg.FailThreshold {
					invoke()
				}
				if up := upstream(); up.State != "ejected" || up.Ejections != 1 {
					t.Fatalf("after %d refused dials: %+v", g.cfg.FailThreshold, up)
				}
				asked := countsOf(victim).Proxied
				invoke()
				time.Sleep(g.cfg.HalfOpenAfter - time.Nanosecond)
				invoke()
				if got := countsOf(victim).Proxied; got != asked {
					t.Fatalf("asked %d times during the cooldown", got-asked)
				}
				time.Sleep(time.Nanosecond)
				if up := upstream(); up.State != "half-open" || up.HalfOpenTrials != 0 {
					t.Fatalf("cooldown over, nothing sent: %+v", up)
				}
				fleet.mu.Lock()
				fleet.what = trial
				fleet.mu.Unlock()
				invoke()
				if got := countsOf(victim).Proxied; got != asked+1 {
					t.Fatalf("the first request after the cooldown asked the member %d times, want 1", got-asked)
				}
				up := upstream()
				switch trial {
				case healthy:
					if up.State != "healthy" || up.Recoveries != 1 || up.HalfOpenTrials != 1 || up.ConsecutiveFails != 0 {
						t.Fatalf("a reply to the trial did not readmit: %+v", up)
					}
				case dialRefused:
					if up.State != "ejected" || up.Recoveries != 0 || up.HalfOpenTrials != 1 || up.Ejections != 1 {
						t.Fatalf("a refused trial: %+v", up)
					}
					invoke()
					if got := countsOf(victim).Proxied; got != asked+1 {
						t.Fatal("a refused trial did not restart the cooldown")
					}
				}
			})
		}
	})
}

// gatedFleet holds every hop to host until open is closed, saying
// "parked" on events first.
type gatedFleet struct {
	*fakeFleet
	host   string
	events chan<- string
	open   <-chan struct{}
}

func (f gatedFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == f.host {
		f.events <- "parked"
		<-f.open
	}
	return f.fakeFleet.RoundTrip(req)
}

// TestHalfOpenAdmitsOneTrialAtATime: a burst of keyed requests and
// scatters that arrives once the cooldown has passed sends the ejected
// member one request, its trial, and nothing more while that trial is
// out; the rest of the burst is served without it.
func TestHalfOpenAdmitsOneTrialAtATime(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const burst = 8
		fleet := &fakeFleet{what: dialRefused, deployed: map[string]bool{}}
		g, _ := fakeGateway(3, fleet)
		victim := g.ring.successors("SService")[0]
		fleet.bad = strings.TrimPrefix(victim.base, "http://")
		serve := func(i int) int {
			r := httptest.NewRequest(http.MethodGet, "/api/services", nil)
			if i%2 == 0 {
				r = httptest.NewRequest(http.MethodPost, "/api/invoke", strings.NewReader(`{"service":"SService"}`))
			}
			w := httptest.NewRecorder()
			g.ServeHTTP(w, r)
			return w.Code
		}
		for i := range g.cfg.FailThreshold {
			serve(2 * i)
		}
		if up := g.GatewayStats().Upstreams[victim.idx]; up.State != "ejected" {
			t.Fatalf("after %d refused dials: %+v", g.cfg.FailThreshold, up)
		}
		time.Sleep(g.cfg.HalfOpenAfter)
		fleet.what = healthy
		events, open := make(chan string, 2*burst), make(chan struct{})
		g.rt = gatedFleet{fleet, fleet.bad, events, open}
		asked := countsOf(victim).Proxied

		codes := make(chan int, burst)
		for i := range burst {
			go func() {
				code := serve(i)
				events <- "done"
				codes <- code
			}()
		}
		// Until the gate opens, each request of the burst either parks at the
		// ejected member or is served elsewhere: one event each.
		parked := 0
		for range burst {
			if <-events == "parked" {
				parked++
			}
		}
		close(open)
		for range burst {
			if code := <-codes; code != http.StatusOK {
				t.Errorf("status %d", code)
			}
		}
		if got := countsOf(victim).Proxied - asked; parked != 1 || got != 1 {
			t.Fatalf("the ejected member was sent %d requests of the burst (%d at once), want 1", got, parked)
		}
		if up := g.GatewayStats().Upstreams[victim.idx]; up.State != "healthy" || up.HalfOpenTrials != 1 || up.Recoveries != 1 {
			t.Fatalf("after the trial's reply: %+v", up)
		}
	})
}

// TestTicketWalksItsServiceRing: a ticket is routed by the service it
// names, along that service's successor walk, and nothing is scattered.
// The primary's ticket costs one hop. A ticket a successor issued while
// the primary was ejected costs two once the primary is back: its 404,
// then the issuer. An issuer that is alive but ejected is asked last, and
// still answers for its ticket.
func TestTicketWalksItsServiceRing(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		fleet := &fakeFleet{deployed: map[string]bool{}}
		g, col := fakeGateway(3, fleet)
		succ := g.ring.successors("SService")
		primary := succ[0]
		const waitTrace = "000000000000000000000000000000b1"
		serve := func(method, target string) int {
			t.Helper()
			w := httptest.NewRecorder()
			var body io.Reader
			if method == http.MethodPost {
				body = strings.NewReader(`{"service":"SService"}`)
			}
			r := httptest.NewRequest(method, target, body)
			if strings.HasPrefix(target, "/api/wait") {
				r.Header.Set(trace.Header, waitTrace+"-0123456789abcdef")
			}
			g.ServeHTTP(w, r)
			return w.Code
		}
		hops := func() (n [3]uint64) {
			for i, m := range succ {
				n[i] = countsOf(m).Proxied
			}
			return n
		}
		wait := func(want [3]uint64) {
			t.Helper()
			before, routes := hops(), g.stats.Snapshot().TicketRoutes
			if code := serve(http.MethodGet, "/api/wait?ticket="+fakeTicket); code != http.StatusOK {
				t.Fatalf("wait: status %d", code)
			}
			after := hops()
			for i := range after {
				after[i] -= before[i]
			}
			if after != want || g.stats.Snapshot().TicketRoutes != routes+1 || g.stats.Snapshot().Scatters != 0 {
				t.Fatalf("wait asked the walk %v, want %v; %d ticket routes (+1 wanted), %d scatters",
					after, want, g.stats.Snapshot().TicketRoutes-routes, g.stats.Snapshot().Scatters)
			}
		}

		if code := serve(http.MethodPost, "/api/invoke"); code != http.StatusOK || fleet.knows != strings.TrimPrefix(primary.base, "http://") {
			t.Fatalf("invoke: status %d, issued by %s", code, fleet.knows)
		}
		wait([3]uint64{1, 0, 0})
		if spans := col.Trace(waitTrace); len(spans) != 1 || spans[0].Attrs["upstream"] != primary.id {
			t.Fatalf("the wait's span does not name the issuer: %+v", spans)
		}

		// The primary refuses dials until it is ejected; the invoke that
		// ejects it is issued by the successor.
		fleet.mu.Lock()
		fleet.bad, fleet.what = strings.TrimPrefix(primary.base, "http://"), dialRefused
		fleet.mu.Unlock()
		for range g.cfg.FailThreshold {
			if code := serve(http.MethodPost, "/api/invoke"); code != http.StatusOK {
				t.Fatalf("invoke during the outage: status %d", code)
			}
		}
		if fleet.knows != strings.TrimPrefix(succ[1].base, "http://") || g.GatewayStats().Upstreams[primary.idx].State != "ejected" {
			t.Fatalf("issued by %s, primary %+v", fleet.knows, g.GatewayStats().Upstreams[primary.idx])
		}
		wait([3]uint64{0, 1, 0})

		// The primary is back: a read readmits it, and the ticket takes two hops.
		fleet.mu.Lock()
		fleet.what = healthy
		fleet.mu.Unlock()
		time.Sleep(g.cfg.HalfOpenAfter)
		if code := serve(http.MethodGet, "/api/service?name=SService"); code != http.StatusOK || g.GatewayStats().Upstreams[primary.idx].State != "healthy" {
			t.Fatalf("trial read: status %d, primary %+v", code, g.GatewayStats().Upstreams[primary.idx])
		}
		wait([3]uint64{1, 1, 0})
		// A 404 with no envelope is a not_found too: the trace page walks on.
		if code := serve(http.MethodGet, "/trace?ticket="+fakeTicket); code != http.StatusOK {
			t.Fatalf("trace page: status %d", code)
		}

		// The primary issues a ticket, then is ejected although alive: its
		// ticket still reaches it, after the successors' 404s, and its reply
		// readmits it.
		serve(http.MethodPost, "/api/invoke")
		fleet.mu.Lock()
		fleet.what = dialRefused
		fleet.mu.Unlock()
		for range g.cfg.FailThreshold {
			serve(http.MethodGet, "/api/service?name=SService")
		}
		fleet.mu.Lock()
		fleet.what = healthy
		fleet.mu.Unlock()
		if up := g.GatewayStats().Upstreams[primary.idx]; up.State != "ejected" {
			t.Fatalf("primary %+v, want ejected", up)
		}
		wait([3]uint64{1, 1, 1})
		if up := g.GatewayStats().Upstreams[primary.idx]; up.State != "healthy" || up.HalfOpenTrials != 1 {
			t.Fatalf("after answering for its ticket: %+v", up)
		}
	})
}

// TestOrderedMembersAllocations: a key's ordered members — the walk every
// keyed and ticket request takes — cost no object: they go into the
// caller's array.
func TestOrderedMembersAllocations(t *testing.T) {
	g, _ := fakeGateway(4, &fakeFleet{})
	allocs := testing.AllocsPerRun(200, func() {
		var buf [8]*member
		if succ := g.ring.walk("SService", buf[:]); len(succ) != 4 {
			t.Fatalf("%d successors", len(succ))
		}
	})
	if allocs > 0 {
		t.Fatalf("the ordered members of a key cost %.0f objects, want 0", allocs)
	}
}

// TestPrimaryForIsStable: the ring places 1 000 service names where it
// always has, primaries and whole successor walks, on fleets of four and
// five. results/fleet.json and every fleet study assume this placement.
func TestPrimaryForIsStable(t *testing.T) {
	golden := map[int]struct {
		primaries string // PrimaryFor of Svc<i>Service, i = 0..999
		walks     uint64 // FNV-64a of every walk's member indices
	}{
		4: {"1220232303132323203323122020033133022302200003301211310222231120133301212232321200230213031000021111" +
			"0110130321003103002003332213320031032330021230231022122201231033233313200031122130332002133212221312" +
			"1332203313100030333323202301001221022211333101023012113313222201333113020111321332030303322102113102" +
			"1103011323321223222300023000213300102301101112013323101213331200321111332030332121103033130331101210" +
			"0331100232232012202220232030020113330202233120212000011331121003213102202330030101000133320131321010" +
			"2120031011121131312311030231123103033000030002323302010121013231323103332010113321313220013313230321" +
			"2230213113213000211200113302300230122010211232232331012301322023112322013031212321002312230301313312" +
			"1331300223111331300130302003123123121212333331331110313213330022311122300131201233110333002301212200" +
			"2230313013333013212023131332331003331300213130310020103201213300321323003201333220310003033331021031" +
			"1010303002223233112213213333300230323101312113200330310230001022313323210323332333020003003303300232",
			0xd82bc5f364d6ee5},
		5: {"4220232343132343203324442020033133042302200043301241340222431144133301412232424200230244031400024111" +
			"4110430321003403002003334213324041032330441234241044124404231433233313400031122130334002133244241312" +
			"1342443313100440333344242301001221022211333104023014113313222241334114020141421432040304324102113142" +
			"1104041343441423242300443000214404404441101412013323101213434200341141332430334141103044140344101210" +
			"4331104432232044202220432030420113340202233120242400014434144403213404204434034101000144420131321010" +
			"2120031011124131412311030231123143034000030042323302010121043231324143332414113341313440013343230421" +
			"2430243113414040241200413302300434122010241232442331442301324023112324014434414321002442240341313312" +
			"1331404423411431300130304404123443121212333344331110313213330422311142400434201243110333042301214204" +
			"2240313043333043212023431332334003331304413134310020104201413300321343003241334220310003033331421031" +
			"1010303002243433112413243333300430324101312113200334310430001024313324244344332333024043044303300232",
			0xe72a2d94f23516b5},
	}
	for n, want := range golden {
		g, _ := fakeGateway(n, &fakeFleet{})
		var primaries strings.Builder
		walks := fnv.New64a()
		for i := range 1000 {
			key := fmt.Sprintf("Svc%dService", i)
			fmt.Fprint(&primaries, g.PrimaryFor(key))
			for _, m := range g.ring.successors(key) {
				fmt.Fprintf(walks, "%d,", m.idx)
			}
		}
		if primaries.String() != want.primaries {
			t.Errorf("fleet of %d: primaries moved:\n got %s\nwant %s", n, primaries.String(), want.primaries)
		}
		if walks.Sum64() != want.walks {
			t.Errorf("fleet of %d: successor walks moved", n)
		}
	}
}
