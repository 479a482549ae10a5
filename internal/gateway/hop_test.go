package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bubble"
	"repro/internal/hop/hoptest"
	"repro/internal/sizedio"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// sent is a request as a member would have seen it, body read.
type sent struct {
	*http.Request
	body []byte
}

// answered is a fleet of one whose member is never reached: reply answers
// every hop, and the request it saw last is kept in the sent it returns.
func answered(t *testing.T, reply hoptest.Action) (*fleet, *member, *sent) {
	f, last := newFleet(t, 1, nil), &sent{}
	f.faults.Add(&hoptest.Rule{Do: func(req *http.Request, on hoptest.Path) (*http.Response, error) {
		last.Request, last.body = req, nil
		if req.Body != nil {
			last.body, _ = io.ReadAll(req.Body)
		}
		return reply(req, on)
	}})
	return f, f.members[0], last
}

func TestForwardAllocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 1, nil)
		f.faults.Add(&hoptest.Rule{Do: hoptest.Respond(http.StatusOK, `{}`)})
		r := httptest.NewRequest(http.MethodGet, "/api/service?name=RungService", nil)
		r.Header.Set(tenant.KeyHeader, "acme-secret")
		allocs := testing.AllocsPerRun(200, func() {
			resp, err := f.forward(f.members[0], r, nil, nil)
			if err != nil || resp.status != http.StatusOK || string(resp.body) != `{}` {
				t.Fatalf("forward: %+v, %v", resp, err)
			}
		})
		// Five of these are the rule's reply, five the gateway's hop.
		if allocs > 10 {
			t.Fatalf("forward allocates %.0f objects, want <= 10", allocs)
		}
	})
}

// TestForwardedInvokeOnTheWire pins what the proxy hop sends for a
// caller's /api/invoke: method, URL, the caller's header set and body,
// as http.NewRequest and Client.Do sent them.
func TestForwardedInvokeOnTheWire(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		body := `{"job_id":"siteA:job-1","site":"siteA","ticket":"t-1"}` + "\n"
		f, m, req := answered(t, hoptest.Respond(http.StatusOK, body, "Content-Length", strconv.Itoa(len(body))))
		payload := `{"service":"S","args":{"n":"1"}}`
		caller := http.Header{"Content-Type": {"application/json"}, "Content-Length": {"32"}, tenant.KeyHeader: {"acme-secret"},
			trace.Header: {"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}, "Accept": {"a", "b"}}
		for _, traced := range []bool{false, true} {
			r := httptest.NewRequest(http.MethodPost, "/api/invoke?x=a%20b&y", strings.NewReader(payload))
			r.Header = caller.Clone()
			var sp *trace.Span
			if traced {
				sp = f.startSpan(r, Route{Kind: KindInvoke}, m)
			}
			resp, err := f.forward(m, r, []byte(payload), sp)
			must(t, err)
			if req.Method != http.MethodPost || req.URL.String() != m.base+"/api/invoke?x=a%20b&y" || "http://"+req.Host != m.base {
				t.Errorf("traced=%v: sent %s %s (host %s)", traced, req.Method, req.URL, req.Host)
			}
			if string(req.body) != payload || req.ContentLength != int64(len(payload)) || req.GetBody == nil {
				t.Errorf("traced=%v: body %q, declared %d, replayable %v", traced, req.body, req.ContentLength, req.GetBody != nil)
			}
			want := caller.Clone()
			if traced {
				want.Set(trace.Header, sp.Context().String())
			}
			if !reflect.DeepEqual(req.Header, want) {
				t.Errorf("traced=%v: header %v, want %v", traced, req.Header, want)
			}
			if !reflect.DeepEqual(r.Header, caller) {
				t.Errorf("traced=%v: the caller's header was changed: %v", traced, r.Header)
			}
			if resp.header.Get("Content-Length") != "" || resp.header.Get("Content-Type") != "application/json" {
				t.Errorf("traced=%v: reply header %v", traced, resp.header)
			}
			sp.End()
		}
	})
}

// TestForwardDropsHopByHopHeaders: the fields that describe one connection,
// and those Connection names, stay on their own leg both ways; the caller's
// header is not changed, and the rest of it goes on.
func TestForwardDropsHopByHopHeaders(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f, m, req := answered(t, hoptest.Respond(http.StatusOK, `{}`, "Connection", "X-Member-Private", "X-Member-Private", "1",
			"Keep-Alive", "timeout=5", "Transfer-Encoding", "chunked", "Upgrade", "h2c", "X-Kept", "yes"))
		r := httptest.NewRequest(http.MethodGet, "/api/services", nil)
		r.Header = http.Header{"Connection": {"close, X-Caller-Private"}, "X-Caller-Private": {"1"},
			"Te": {"trailers"}, "Proxy-Authorization": {"Basic eA=="}, tenant.KeyHeader: {"acme-secret"}}
		caller := r.Header.Clone()
		resp, err := f.forward(m, r, nil, nil)
		must(t, err)
		if want := (http.Header{tenant.KeyHeader: {"acme-secret"}}); !reflect.DeepEqual(req.Header, want) {
			t.Errorf("sent %v, want %v", req.Header, want)
		}
		if !reflect.DeepEqual(r.Header, caller) {
			t.Errorf("the caller's header was changed: %v", r.Header)
		}
		if want := (http.Header{"Content-Type": {"application/json"}, "X-Kept": {"yes"}}); !reflect.DeepEqual(resp.header, want) {
			t.Errorf("reply header %v, want %v", resp.header, want)
		}
	})
}

// TestCallerConnectionCloseKeepsTheMemberConnection: a caller that closes
// its own connection after each request does not close the gateway's
// pooled one to the member: five such GETs dial the member no more.
func TestCallerConnectionCloseKeepsTheMemberConnection(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 1, nil)
		get := func(close bool) {
			req, _ := http.NewRequest(http.MethodGet, f.BaseURL+"/api/services", nil)
			req.Close = close
			resp, err := f.Web.Do(req)
			must(t, err)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /api/services: %d", resp.StatusCode)
			}
		}
		get(false) // the member's connection, dialled and pooled
		before := f.dials.Load()
		for range 5 {
			get(true)
		}
		if n := f.dials.Load() - before; n != 0 {
			t.Fatalf("five GETs with Connection: close dialled the member %d times, want 0", n)
		}
	})
}

// TestDeleteSweepActsForTheCaller: with tenancy on, the sweep that follows
// a delete has to show the caller's key, or every sibling refuses it,
// audits a denial, and keeps the copy a failover replay left there.
func TestDeleteSweepActsForTheCaller(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := newFleet(t, 2, func(cfg *Config) { cfg.Appliance.Tenancy = fleetTenancyConfig() })
		f.front.Key = "acme-secret"
		publish(t, f.front, "swept.gsh", "echo ok\n")
		// What a failover replay does: the same upload onto the other shard.
		other := 1 - f.PrimaryFor("SweptService")
		publish(t, f.door(other), "swept.gsh", "echo ok\n")
		must(t, f.front.Delete("SweptService"))
		if n := f.holders(t, "SweptService"); n != 0 {
			t.Errorf("%d shards still hold the deleted service", n)
		}
		for i, app := range f.Fleet() {
			for _, rec := range app.OnServe.Tenancy().Audit("", 100) {
				if rec.Code == "unauthorized" {
					t.Errorf("shard %d audited an unauthorized %s: the sweep showed no key", i, rec.Verb)
				}
			}
		}
	})
}

// TestOversizeRequestBodyRefused: a request body past maxBody, declared
// or streamed, is refused 413 and reaches no appliance.
func TestOversizeRequestBodyRefused(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const limit = 8 << 10
		lowerMaxBody(t, limit)
		f := newFleet(t, 2, nil)
		proxied := &hoptest.Rule{} // counts the requests sent to a member
		f.faults.Add(proxied)
		// hop sends no body of unknown length: a client of net/http's
		// streams the undeclared one.
		web := &http.Client{Transport: &http.Transport{DialContext: f.Net.DialContext}}
		defer web.CloseIdleConnections()
		post := func(body io.Reader) (int, string) {
			t.Helper()
			resp, err := web.Post(f.BaseURL+"/upload", "application/octet-stream", body)
			must(t, err)
			defer resp.Body.Close()
			var env struct{ Code string }
			json.NewDecoder(resp.Body).Decode(&env)
			return resp.StatusCode, env.Code
		}
		big := make([]byte, limit+1)
		for name, body := range map[string]io.Reader{
			"declared":   bytes.NewReader(big),                      // Content-Length: limit+1
			"undeclared": struct{ io.Reader }{bytes.NewReader(big)}, // chunked
		} {
			if status, code := post(body); status != http.StatusRequestEntityTooLarge || code != "too_large" {
				t.Errorf("%s body of maxBody+1: status %d code %q, want 413 too_large", name, status, code)
			}
		}
		if n := proxied.Hits.Load(); n != 0 {
			t.Fatalf("an oversize body was proxied (%d upstream requests)", n)
		}
		// At the bound the size is no objection (the route decoder's verdict
		// on a body that is no upload form is not this test's business).
		if status, _ := post(bytes.NewReader(big[:limit])); status == http.StatusRequestEntityTooLarge {
			t.Fatal("a body of exactly maxBody was refused for its size")
		}
	})
}

// TestOversizeResponseBodyIsAProxyError: the same bound on the way back.
// An upstream response past maxBody is a failed hop, not a reply cut
// short and relayed as if it were whole.
func TestOversizeResponseBodyIsAProxyError(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		const limit = 8 << 10
		lowerMaxBody(t, limit)
		// The member answers ?n= bytes, with their length or chunked.
		f, m, _ := answered(t, func(req *http.Request, on hoptest.Path) (*http.Response, error) {
			n, _ := strconv.Atoi(req.URL.Query().Get("n"))
			var chunked []string
			if req.URL.Path == "/undeclared" {
				chunked = []string{"Transfer-Encoding", "chunked"}
			}
			return hoptest.Respond(http.StatusOK, strings.Repeat("x", n), chunked...)(req, on)
		})
		for i, path := range []string{"/declared", "/undeclared"} {
			get := func(n int) (*bufferedResponse, error) {
				return f.forward(m, httptest.NewRequest(http.MethodGet, path+"?n="+strconv.Itoa(n), nil), nil, nil)
			}
			if _, err := get(limit + 1); !errors.Is(err, sizedio.ErrTooLarge) || countsOf(m).ProxyErrors != uint64(i+1) {
				t.Errorf("%s response of maxBody+1: err %v, %d proxy errors; want ErrTooLarge counted once", path, err, countsOf(m).ProxyErrors-uint64(i))
			}
			if resp, err := get(limit); err != nil || len(resp.body) != limit {
				t.Errorf("%s response of exactly maxBody: %v", path, err)
			}
		}
	})
}

// TestCatalogKeepsTheUploadBuffer: the catalog keeps an upload's own
// request buffer, which nothing reuses, not a copy: learning a 1 MB upload
// allocates nothing of its size. A buffer that grew past its body (an
// upload of unknown length) is copied to the body's size, without slack.
func TestCatalogKeepsTheUploadBuffer(t *testing.T) {
	t.Run("unknown length", func(t *testing.T) {
		g := &Gateway{catalog: map[string]*catalogEntry{}}
		body := make([]byte, 1<<20+1, 2<<20)
		g.learn(Route{Kind: KindUpload, Service: "Chunked"}, nil, nil, body, http.StatusOK)
		if e := g.catalog["Chunked"]; e == nil || len(e.body) != len(body) || cap(e.body) != len(body) {
			t.Fatal("the catalog keeps the slack of a buffer that grew past its body")
		}
	})
	g := &Gateway{catalog: map[string]*catalogEntry{}}
	body := make([]byte, 1<<20)
	rt := Route{Kind: KindUpload, Service: "BigService"}
	g.learn(rt, nil, nil, body, http.StatusOK)
	if e := g.catalog["BigService"]; e == nil || unsafe.SliceData(e.body) != unsafe.SliceData(body) || len(e.body) != len(body) {
		t.Fatal("the catalog entry does not share the request's buffer")
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		g.learn(rt, nil, nil, body, http.StatusOK)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("learning a 1 MB upload allocates %d bytes, want < 4 KB", per)
	}
}
