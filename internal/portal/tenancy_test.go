package portal_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/tenant"
)

// withTenancy boots an appliance whose control plane enforces cfg.
func withTenancy(t testing.TB, cfg tenant.Config) *appliancetest.Fixture {
	t.Helper()
	return appliancetest.Boot(t, func(c *appliance.Config) { c.Tenancy = &cfg })
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

// uploadAs is the route of file's upload as key's owner.
func uploadAs(file, key string, status int, want string) appliancetest.Route {
	ctype, body := appliancetest.UploadForm(file, "compute 1s\necho ok\n", "description", "tenancy test")
	return appliancetest.Route{Method: "POST", Path: "/upload", Type: ctype, Body: body, Key: key, Status: status, Want: want}
}

// invokeAs is the route of one invocation of service as key's owner.
func invokeAs(service, key string, status int, want string) appliancetest.Route {
	return appliancetest.Route{Method: "POST", Path: "/api/invoke", Type: jsonType, Body: `{"service":"` + service + `","args":{"x":"1"}}`,
		Key: key, Status: status, Want: want}
}

// TestTenancyOffWireGolden pins the stock wire contract with the knob
// off: /api/audit is indistinguishable from an unknown path, /api/stats
// carries no tenant block, and the JSON error envelope (the one
// deliberate change to stock error bodies) is byte-exact.
func TestTenancyOffWireGolden(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		exact := func(body, contentType string) func(testing.TB, appliancetest.Reply) {
			return func(t testing.TB, r appliancetest.Reply) {
				if r.Body != body || r.Header.Get("Content-Type") != contentType {
					t.Errorf("%q (%s), want %q (%s)", r.Body, r.Header.Get("Content-Type"), body, contentType)
				}
			}
		}
		f.Serve(t,
			// /api/audit is byte-identical to the mux fall-through 404.
			appliancetest.Route{Method: "GET", Path: "/api/audit", Status: 404, Check: exact("404 page not found\n", "text/plain; charset=utf-8")},
			// No tenant key leaks into stats when the knob is off.
			appliancetest.Route{Method: "GET", Path: "/api/stats", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				var stats map[string]json.RawMessage
				if decode(t, r, &stats); stats["tenant"] != nil {
					t.Error("stats carries a tenant block with tenancy off")
				}
			}},
			// The JSON error envelope is byte-exact and machine-readable.
			appliancetest.Route{Method: "GET", Path: "/api/invoke", Status: 405, Check: exact(`{"code":"method_not_allowed","error":"POST only"}`+"\n", jsonType)},
			// A keyed request against a tenancy-off portal is served exactly
			// like an anonymous one: the header is ignored, not rejected.
			uploadAs("anon.gsh", "some-ignored-key", 200, ""),
		)
	})
}

// TestTenancyAdmissionPipeline walks the admission pipeline end to end:
// no key -> 401, wrong verb for the owner's policy -> 403, rate bucket
// empty -> 429, happy path -> 200 with the action audited exactly once.
func TestTenancyAdmissionPipeline(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := withTenancy(t, twoTenantConfig())
		f.Serve(t,
			// Unauthenticated upload bounces with the envelope.
			uploadAs("denied.gsh", "", 401, `"code":"unauthorized"`),
			// acme may publish.
			uploadAs("tenantjob.gsh", "acme-secret", 200, ""),
			// probe's policy allows invoke only: publishing is forbidden.
			uploadAs("sneaky.gsh", "probe-secret", 403, `"code":"forbidden"`),
			// Both tenants may invoke.
			invokeAs("TenantjobService", "acme-secret", 200, ""),
			invokeAs("TenantjobService", "probe-secret", 200, ""),
			// The books: one denied upload under unknown, one forbidden upload,
			// one ok upload, two ok invokes — each exactly once.
			appliancetest.Route{Method: "GET", Path: "/api/audit?n=100", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				var audit struct {
					Records []tenant.Record `json:"records"`
					Dropped uint64          `json:"dropped"`
				}
				decode(t, r, &audit)
				counts := map[string]int{}
				for _, rec := range audit.Records {
					counts[rec.Owner+"/"+rec.Verb+"/"+rec.Outcome]++
					if rec.TraceID == "" {
						t.Errorf("record %+v has no trace ID", rec)
					}
				}
				want := map[string]int{"unknown/upload/denied": 1, "probe/upload/denied": 1, "acme/upload/ok": 1, "acme/invoke/ok": 1, "probe/invoke/ok": 1}
				for k, n := range want {
					if counts[k] != n {
						t.Errorf("audit count %s = %d, want %d (all: %v)", k, counts[k], n, counts)
					}
				}
				if audit.Dropped != 0 {
					t.Errorf("audit dropped %d", audit.Dropped)
				}
			}},
			// Stats surface the per-owner counters.
			appliancetest.Route{Method: "GET", Path: "/api/stats", Status: 200, Check: func(t testing.TB, r appliancetest.Reply) {
				var stats struct {
					Tenant *tenant.Stats `json:"tenant"`
				}
				if decode(t, r, &stats); stats.Tenant == nil || stats.Tenant.Admitted != 3 || stats.Tenant.Denied != 2 || stats.Tenant.Owners["acme"].Admitted != 2 {
					t.Errorf("tenant stats %+v: want 3 admitted, 2 denied, 2 of them acme's", stats.Tenant)
				}
			}},
		)
	})
}

// TestTenancyRateLimit drains a one-token invoke bucket and checks the
// shed is a 429 with the rate_limited code (not quota_exceeded).
func TestTenancyRateLimit(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := withTenancy(t, tenant.Config{
			Owners: []tenant.OwnerConfig{{
				Name:  "meter",
				Rates: map[string]float64{"invoke": 0.000001}, Bursts: map[string]float64{"invoke": 1},
			}},
			Keys: []tenant.KeyConfig{{Key: "meter-secret", Owner: "meter"}},
		})
		f.Serve(t,
			uploadAs("meterjob.gsh", "meter-secret", 200, ""),
			invokeAs("MeterjobService", "meter-secret", 200, ""),
			invokeAs("MeterjobService", "meter-secret", http.StatusTooManyRequests, `"code":"rate_limited"`),
		)
	})
}
