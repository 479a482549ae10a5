package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/portal"
	"repro/internal/tenant"
)

func fleetTenancyConfig() *tenant.Config {
	return &tenant.Config{
		Owners: []tenant.OwnerConfig{{Name: "acme", Weight: 1, MaxInFlight: 8}},
		Keys:   []tenant.KeyConfig{{Key: "acme-secret", Owner: "acme"}},
		Limits: tenant.LimitsConfig{MaxInFlight: 16},
	}
}

func keyedDo(t *testing.T, method, url, key, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if key != "" {
		req.Header.Set(tenant.KeyHeader, key)
	}
	resp, err := web.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// TestFleetTenancyForwardsKeysAndMerges proves per-shard enforcement
// through the gateway: the X-Grid-Key header rides the proxy hop, shard
// denials pass through verbatim, and /api/stats and /api/audit present
// one fleet-wide tenant view.
func TestFleetTenancyForwardsKeysAndMerges(t *testing.T) {
	w := bootFleet(t, 2, func(cfg *Config) {
		cfg.Appliance.Tenancy = fleetTenancyConfig()
	})

	// An unauthenticated upload is denied by the owning shard; the
	// gateway passes the upstream envelope through untouched.
	ct, body := multipartUploadProgram(t, "tenantfleet.gsh", "alice", "compute 1s\necho ok\n")
	resp, raw := keyedDo(t, http.MethodPost, w.gw.BaseURL+"/upload", "", ct, body)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous upload status %d, want 401: %s", resp.StatusCode, raw)
	}
	var env map[string]string
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("envelope %q: %v", raw, err)
	}
	if env["code"] != "unauthorized" {
		t.Fatalf("envelope code %q", env["code"])
	}

	// With the key the same request sails through the proxy hop.
	resp, raw = keyedDo(t, http.MethodPost, w.gw.BaseURL+"/upload", "acme-secret", ct, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed upload status %d: %s", resp.StatusCode, raw)
	}
	payload, _ := json.Marshal(map[string]any{"service": "TenantfleetService", "args": map[string]string{"x": "1"}})
	resp, raw = keyedDo(t, http.MethodPost, w.gw.BaseURL+"/api/invoke", "acme-secret", "application/json", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed invoke status %d: %s", resp.StatusCode, raw)
	}

	// Fleet stats carry one merged tenant block: counters summed over
	// the shards that enforced anything.
	resp, raw = keyedDo(t, http.MethodGet, w.gw.BaseURL+"/api/stats", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats struct {
		Tenant *tenant.Stats `json:"tenant"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Tenant == nil {
		t.Fatalf("fleet stats missing merged tenant block: %s", raw)
	}
	if stats.Tenant.Admitted < 2 {
		t.Fatalf("merged admitted %d, want >= 2 (upload + invoke)", stats.Tenant.Admitted)
	}
	if stats.Tenant.Denied < 1 {
		t.Fatalf("merged denied %d, want >= 1", stats.Tenant.Denied)
	}

	// The fleet audit view merges shard logs newest-first.
	resp, raw = keyedDo(t, http.MethodGet, w.gw.BaseURL+"/api/audit?n=100", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit status %d: %s", resp.StatusCode, raw)
	}
	var audit struct {
		Records []tenant.Record `json:"records"`
	}
	if err := json.Unmarshal(raw, &audit); err != nil {
		t.Fatal(err)
	}
	okInvokes, denials := 0, 0
	for i, rec := range audit.Records {
		if i > 0 && rec.Time.After(audit.Records[i-1].Time) {
			t.Fatalf("audit records not newest-first at %d", i)
		}
		switch {
		case rec.Outcome == "ok" && rec.Verb == "invoke":
			okInvokes++
		case rec.Outcome == "denied":
			denials++
		}
	}
	if okInvokes != 1 || denials != 1 {
		t.Fatalf("fleet audit ok-invokes=%d denials=%d, want 1/1 (records: %+v)", okInvokes, denials, audit.Records)
	}
}

// TestFleetTenancyFailoverReplaysAsTheUploader: a catalog replay is the
// upload it replays — the uploader's key rides with it. Without the key a
// shard with tenancy on refuses the replay 401, so neither the failover
// redeploy nor Rejoin could work on such a fleet.
func TestFleetTenancyFailoverReplaysAsTheUploader(t *testing.T) {
	w := bootFleet(t, 2, func(cfg *Config) {
		cfg.Appliance.Tenancy = fleetTenancyConfig()
		cfg.FailThreshold = 2
	})
	front := portal.Client{Base: w.gw.BaseURL, HTTP: web, Key: "acme-secret"}
	rec, err := front.Upload(portal.UploadRequest{FileName: "failover.gsh", Content: []byte("echo f=${x}\n"), User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	victim := w.gw.PrimaryFor(rec.Name)
	if err := w.gw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	call := func() (portal.WaitReply, error) {
		inv, status, err := front.Invoke(rec.Name, map[string]string{"x": "1"})
		if err != nil || status != http.StatusOK {
			return portal.WaitReply{}, fmt.Errorf("invoke: status %d: %v", status, err)
		}
		return front.Wait(inv.Ticket)
	}
	// The first attempt may die on a pooled connection, ambiguously, and
	// is then not the gateway's to retry: the client asks again.
	done, err := call()
	for attempt := 1; err != nil && attempt < 5; attempt++ {
		done, err = call()
	}
	if err != nil || done.State != "DONE" || done.Output != "f=1\n" {
		t.Fatalf("failover invoke: %+v, %v", done, err)
	}
	if st := gatewayStats(t, w.gw); st.Redeploys < 1 {
		t.Fatalf("no catalog replay onto the successor: %+v", st)
	}
	replayed := false
	for _, rec := range w.gw.Fleet()[1-victim].OnServe.Tenancy().Audit("", 100) {
		if rec.Code == "unauthorized" {
			t.Errorf("the successor refused a %s as unauthorized: the replay showed no key", rec.Verb)
		}
		replayed = replayed || (rec.Verb == "upload" && rec.Owner == "acme" && rec.Outcome == "ok")
	}
	if !replayed {
		t.Error("the successor's audit does not show the replayed upload under the uploader's owner")
	}
	if err := w.gw.Rejoin(victim); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
}

// TestFleetAuditOffMatchesStock404 pins the off behaviour at the fleet
// edge: with no shard enforcing tenancy, /api/audit answers the stock
// 404 page.
func TestFleetAuditOffMatchesStock404(t *testing.T) {
	w := bootFleet(t, 2, nil)
	resp, raw := keyedDo(t, http.MethodGet, w.gw.BaseURL+"/api/audit", "", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("audit status %d, want 404", resp.StatusCode)
	}
	if string(raw) != "404 page not found\n" {
		t.Fatalf("audit body %q, want the stock NotFound page", raw)
	}
}

// TestGatewayOwnEnvelopeCarriesCode pins the gateway-originated error
// envelope: routing failures answer with the same {"error","code"}
// contract the portal uses.
func TestGatewayOwnEnvelopeCarriesCode(t *testing.T) {
	w := bootFleet(t, 1, nil)
	resp, raw := keyedDo(t, http.MethodPost, w.gw.BaseURL+"/api/invoke", "", "application/json", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad invoke status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "\"code\":\"bad_request\"") {
		t.Fatalf("gateway envelope %q lacks the bad_request code", raw)
	}
}
