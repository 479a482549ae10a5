package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"

	"repro/internal/tenant"
	"repro/internal/trace"
)

// newTenantFixture is newFixture with the multi-tenant control plane
// enforcing cfg at the portal edge.
func newTenantFixture(t *testing.T, cfg tenant.Config) *fixture {
	t.Helper()
	f := newFixture(t)
	ctl, err := tenant.NewController(cfg, tenant.Options{
		Clock:  f.clock,
		Tracer: trace.NewTracer("tenant", f.clock, trace.NewCollector(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.onserve.SetTenancy(ctl)
	return f
}

func twoTenantConfig() tenant.Config {
	return tenant.Config{
		Owners: []tenant.OwnerConfig{
			{Name: "acme", Weight: 2, MaxInFlight: 4},
			{Name: "probe", Weight: 1, MaxInFlight: 2,
				Policy: tenant.Policy{Allow: []tenant.Rule{{Verbs: []string{"invoke"}}}}},
		},
		Keys: []tenant.KeyConfig{
			{Key: "acme-secret", Owner: "acme"},
			{Key: "probe-secret", Owner: "probe"},
		},
		Limits: tenant.LimitsConfig{MaxInFlight: 8},
	}
}

func (f *fixture) do(t *testing.T, method, path, key, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, f.url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if key != "" {
		req.Header.Set(tenant.KeyHeader, key)
	}
	resp, err := f.web.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func (f *fixture) uploadKeyed(t *testing.T, filename, key string) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", filename)
	io.WriteString(fw, "compute 1s\necho ok\n")
	mw.WriteField("user", "alice")
	mw.WriteField("description", "tenancy test")
	mw.Close()
	return f.do(t, http.MethodPost, "/upload", key, mw.FormDataContentType(), buf.Bytes())
}

func (f *fixture) invokeKeyed(t *testing.T, service, key string) (*http.Response, []byte) {
	t.Helper()
	payload, _ := json.Marshal(map[string]any{"service": service, "args": map[string]string{"x": "1"}})
	return f.do(t, http.MethodPost, "/api/invoke", key, "application/json", payload)
}

// TestTenancyOffWireGolden pins the stock wire contract with the knob
// off: /api/audit is indistinguishable from an unknown path, /api/stats
// carries no tenant block, and the JSON error envelope (the one
// deliberate change to stock error bodies) is byte-exact.
func TestTenancyOffWireGolden(t *testing.T) {
	f := newFixture(t)

	// /api/audit must be byte-identical to the mux fall-through 404.
	resp, body := f.do(t, http.MethodGet, "/api/audit", "", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("audit status %d, want 404", resp.StatusCode)
	}
	if string(body) != "404 page not found\n" {
		t.Fatalf("audit body %q, want the stock NotFound page", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("audit content type %q", ct)
	}

	// No tenant key leaks into stats when the knob is off.
	resp, body = f.do(t, http.MethodGet, "/api/stats", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["tenant"]; ok {
		t.Fatal("stats carries a tenant block with tenancy off")
	}

	// The JSON error envelope is byte-exact and machine-readable.
	resp, body = f.do(t, http.MethodGet, "/api/invoke", "", "", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("invoke GET status %d, want 405", resp.StatusCode)
	}
	if want := "{\"code\":\"method_not_allowed\",\"error\":\"POST only\"}\n"; string(body) != want {
		t.Fatalf("envelope %q, want %q", body, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("envelope content type %q", ct)
	}

	// A keyed request against a tenancy-off portal is served exactly like
	// an anonymous one: the header is ignored, not rejected.
	resp, _ = f.uploadKeyed(t, "anon.gsh", "some-ignored-key")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed upload with tenancy off: status %d", resp.StatusCode)
	}
}

// TestTenancyAdmissionPipeline walks the admission pipeline end to end:
// no key -> 401, wrong verb for the owner's policy -> 403, rate bucket
// empty -> 429, happy path -> 200 with the action audited exactly once.
func TestTenancyAdmissionPipeline(t *testing.T) {
	f := newTenantFixture(t, twoTenantConfig())

	// Unauthenticated upload and invoke bounce with the envelope.
	resp, body := f.uploadKeyed(t, "denied.gsh", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous upload status %d, want 401", resp.StatusCode)
	}
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env["code"] != "unauthorized" {
		t.Fatalf("envelope code %q", env["code"])
	}

	// acme may publish.
	resp, body = f.uploadKeyed(t, "tenantjob.gsh", "acme-secret")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme upload status %d: %s", resp.StatusCode, body)
	}

	// probe's policy allows invoke only: publishing is forbidden.
	resp, body = f.uploadKeyed(t, "sneaky.gsh", "probe-secret")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("probe upload status %d, want 403: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &env)
	if env["code"] != "forbidden" {
		t.Fatalf("envelope code %q", env["code"])
	}

	// Both tenants may invoke.
	resp, body = f.invokeKeyed(t, "TenantjobService", "acme-secret")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme invoke status %d: %s", resp.StatusCode, body)
	}
	resp, body = f.invokeKeyed(t, "TenantjobService", "probe-secret")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe invoke status %d: %s", resp.StatusCode, body)
	}

	// The books: one denied upload under unknown, one forbidden upload,
	// one ok upload, two ok invokes — each exactly once.
	resp, body = f.do(t, http.MethodGet, "/api/audit?n=100", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit status %d", resp.StatusCode)
	}
	var audit struct {
		Records []tenant.Record `json:"records"`
		Dropped uint64          `json:"dropped"`
	}
	if err := json.Unmarshal(body, &audit); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range audit.Records {
		counts[rec.Owner+"/"+rec.Verb+"/"+rec.Outcome]++
		if rec.TraceID == "" {
			t.Fatalf("record %+v has no trace ID", rec)
		}
	}
	want := map[string]int{
		"unknown/upload/denied": 1,
		"probe/upload/denied":   1,
		"acme/upload/ok":        1,
		"acme/invoke/ok":        1,
		"probe/invoke/ok":       1,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("audit count %s = %d, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
	if audit.Dropped != 0 {
		t.Fatalf("audit dropped %d", audit.Dropped)
	}

	// Stats surface the per-owner counters.
	resp, body = f.do(t, http.MethodGet, "/api/stats", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats struct {
		Tenant *tenant.Stats `json:"tenant"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Tenant == nil {
		t.Fatal("stats missing tenant block with tenancy on")
	}
	if stats.Tenant.Admitted != 3 || stats.Tenant.Denied != 2 {
		t.Fatalf("tenant stats admitted=%d denied=%d, want 3/2", stats.Tenant.Admitted, stats.Tenant.Denied)
	}
	if stats.Tenant.Owners["acme"].Admitted != 2 {
		t.Fatalf("acme admitted %d, want 2", stats.Tenant.Owners["acme"].Admitted)
	}
}

// TestTenancyRateLimit drains a one-token invoke bucket and checks the
// shed is a 429 with the rate_limited code (not quota_exceeded).
func TestTenancyRateLimit(t *testing.T) {
	cfg := tenant.Config{
		Owners: []tenant.OwnerConfig{{
			Name:  "meter",
			Rates: map[string]float64{"invoke": 0.000001}, Bursts: map[string]float64{"invoke": 1},
		}},
		Keys: []tenant.KeyConfig{{Key: "meter-secret", Owner: "meter"}},
	}
	f := newTenantFixture(t, cfg)
	resp, body := f.uploadKeyed(t, "meterjob.gsh", "meter-secret")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	resp, body = f.invokeKeyed(t, "MeterjobService", "meter-secret")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first invoke status %d: %s", resp.StatusCode, body)
	}
	resp, body = f.invokeKeyed(t, "MeterjobService", "meter-secret")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second invoke status %d, want 429: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "\"code\":\"rate_limited\"") {
		t.Fatalf("envelope %s, want rate_limited", body)
	}
}
