package gateway

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// stubUpstream answers every hop with one fixed reply, no server
// goroutine, and keeps the last request it saw.
type stubUpstream struct {
	body string
	last *http.Request
	sent []byte
}

func (s *stubUpstream) RoundTrip(req *http.Request) (*http.Response, error) {
	s.last, s.sent = req, nil
	if req.Body != nil {
		s.sent, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, ContentLength: int64(len(s.body)),
		Header: http.Header{"Content-Type": {"application/json"}, "Content-Length": {"2"}},
		Body:   io.NopCloser(strings.NewReader(s.body))}, nil
}

func stubbedGateway(stub http.RoundTripper) (*Gateway, *member) {
	g := &Gateway{httpc: &http.Client{Transport: stub}}
	return g, &member{id: "shard-0", gw: g, base: "http://shard.invalid:8080"}
}

func TestForwardAllocations(t *testing.T) {
	stub := &stubUpstream{body: `{}`}
	g, m := stubbedGateway(stub)
	r := httptest.NewRequest(http.MethodGet, "/api/service?name=RungService", nil)
	r.Header.Set(tenant.KeyHeader, "acme-secret")
	allocs := testing.AllocsPerRun(200, func() {
		resp, err := g.forward(m, r, nil, nil)
		if err != nil || resp.status != http.StatusOK || string(resp.body) != `{}` {
			t.Fatalf("forward: %+v, %v", resp, err)
		}
	})
	// Seven of these are the stub's reply.
	t.Logf("forward: %.0f objects", allocs)
	if allocs > 16 {
		t.Fatalf("forward allocates %.0f objects, want <= 16", allocs)
	}
}

// TestForwardedInvokeOnTheWire pins what the proxy hop sends for a
// caller's /api/invoke: method, URL, the caller's header set and body,
// as http.NewRequest and Client.Do sent them.
func TestForwardedInvokeOnTheWire(t *testing.T) {
	stub := &stubUpstream{body: `{"job_id":"siteA:job-1","site":"siteA","ticket":"t-1"}` + "\n"}
	g, m := stubbedGateway(stub)
	g.tracer = trace.NewTracer("gateway", nil, trace.NewCollector(0, 0))
	payload := `{"service":"S","args":{"n":"1"}}`
	caller := http.Header{
		"Content-Type":   {"application/json"},
		"Content-Length": {"32"},
		tenant.KeyHeader: {"acme-secret"},
		trace.Header:     {"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		"Accept":         {"a", "b"},
	}
	for _, traced := range []bool{false, true} {
		r := httptest.NewRequest(http.MethodPost, "/api/invoke?x=a%20b&y", strings.NewReader(payload))
		r.Header = caller.Clone()
		var sp *trace.Span
		if traced {
			sp = g.startSpan(r, Route{Kind: KindInvoke}, m)
		}
		resp, err := g.forward(m, r, []byte(payload), sp)
		if err != nil {
			t.Fatal(err)
		}
		req := stub.last
		if req.Method != http.MethodPost || req.URL.String() != "http://shard.invalid:8080/api/invoke?x=a%20b&y" || req.Host != "shard.invalid:8080" {
			t.Errorf("traced=%v: sent %s %s (host %s)", traced, req.Method, req.URL, req.Host)
		}
		if string(stub.sent) != payload || req.ContentLength != int64(len(payload)) || req.GetBody == nil {
			t.Errorf("traced=%v: body %q, declared %d, replayable %v", traced, stub.sent, req.ContentLength, req.GetBody != nil)
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
		g.learn(Route{Kind: KindInvoke}, m, r.Header, nil, resp)
		if got, ok := g.tickets.Load("t-1"); !ok || got != m {
			t.Errorf("traced=%v: ticket not learnt", traced)
		}
		g.tickets.Delete("t-1")
	}
	// A reply off the appliance's shape is still read, by encoding/json.
	for doc, want := range map[string]string{
		`{"ticket": "t-2"}`:               "t-2",
		`{"ticket":"t-3","ticket":"t-4"}`: "t-4",
		`{"state":"x","ticket":"t-5"}`:    "t-5",
		`{"ticket":"t-6"} trailing`:       "",
		`{"ticket":7}`:                    "",
	} {
		if got := invokeTicket([]byte(doc)); got != want {
			t.Errorf("invokeTicket(%s) = %q, want %q", doc, got, want)
		}
	}
}

// TestForwardDialErrorIsRetryable: a write is retried on a successor only
// when the dial failed, which safeToRetry reads off the error's
// *net.OpError — through whatever the hop wraps around it.
func TestForwardDialErrorIsRetryable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	g := &Gateway{httpc: &http.Client{}}
	m := &member{id: "shard-0", gw: g, base: "http://" + addr}
	r := httptest.NewRequest(http.MethodPost, "/api/invoke", strings.NewReader(`{}`))
	_, err = g.forward(m, r, []byte(`{}`), nil)
	if err == nil || !safeToRetry(http.MethodPost, err) {
		t.Fatalf("dial failure %v is not seen as safe to retry", err)
	}
	if m.proxyErrs.Load() != 1 {
		t.Fatalf("proxy errors %d, want 1", m.proxyErrs.Load())
	}
}

// TestDeleteSweepActsForTheCaller: with tenancy on, the sweep that follows
// a delete has to show the caller's key, or every sibling refuses it,
// audits a denial, and keeps the copy a failover replay left there.
func TestDeleteSweepActsForTheCaller(t *testing.T) {
	w := bootFleet(t, 2, func(cfg *Config) {
		cfg.Appliance.Tenancy = fleetTenancyConfig()
	})
	ct, body := multipartUploadProgram(t, "swept.gsh", "alice", "echo ok\n")
	resp, raw := keyedDo(t, http.MethodPost, w.gw.BaseURL+"/upload", "acme-secret", ct, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, raw)
	}
	// What a failover replay does: the same upload onto the other shard.
	fleet := w.gw.Fleet()
	other := fleet[1-w.gw.PrimaryFor("SweptService", "alice")]
	if resp, raw = keyedDo(t, http.MethodPost, other.BaseURL+"/upload", "acme-secret", ct, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed upload: %d %s", resp.StatusCode, raw)
	}

	resp, raw = keyedDo(t, http.MethodPost, w.gw.BaseURL+"/api/delete?name=SweptService", "acme-secret", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, raw)
	}
	for i, app := range fleet {
		_, raw := keyedDo(t, http.MethodGet, app.BaseURL+"/api/services", "acme-secret", "", nil)
		var infos []core.ExecutableInfo
		if err := json.Unmarshal(raw, &infos); err != nil {
			t.Fatalf("shard %d services %q: %v", i, raw, err)
		}
		for _, info := range infos {
			if info.ServiceName == "SweptService" {
				t.Errorf("shard %d still holds the deleted service", i)
			}
		}
		for _, rec := range app.OnServe.Tenancy().Audit("", 100) {
			if rec.Code == "unauthorized" {
				t.Errorf("shard %d audited an unauthorized %s: the sweep showed no key", i, rec.Verb)
			}
		}
	}
}
