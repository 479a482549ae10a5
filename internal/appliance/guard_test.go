package appliance

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/wsdl"
)

// deployPing deploys a one-operation service straight into w's container
// and returns how often its handler ran.
func deployPing(t *testing.T, w *world, name string) *atomic.Int64 {
	t.Helper()
	svc := soap.NewService(wsdl.ServiceDef{
		Name:        name,
		Namespace:   "urn:" + name,
		EndpointURL: w.app.ServicesURL() + name,
		Operations:  []wsdl.OperationDef{{Name: "ping"}},
	})
	var ran atomic.Int64
	svc.MustBind("ping", func(*soap.Request) (string, error) {
		ran.Add(1)
		return "pong", nil
	})
	if err := w.app.Container.Deploy(svc); err != nil {
		t.Fatal(err)
	}
	return &ran
}

// soapDoor sends one request to the SOAP door; a POST carries a ping
// envelope for the service named in path. It returns the status and the
// body, or where a redirect points.
func soapDoor(t *testing.T, w *world, method, path, key string) (int, string) {
	t.Helper()
	var body io.Reader
	if method == http.MethodPost {
		name, _, _ := soap.ServiceName(path)
		env, err := soap.Encode(&soap.Message{Namespace: "urn:" + name, Operation: "ping"})
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(env)
	}
	req, err := http.NewRequest(method, w.app.BaseURL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	if key != "" {
		req.Header.Set(tenant.KeyHeader, key)
	}
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "" {
		return resp.StatusCode, loc
	}
	return resp.StatusCode, string(got)
}

// noFollow shows a redirect instead of following it: the mux answers a
// path with an empty segment that way, before any handler sees it.
var noFollow = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}

const pong = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
	`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body>` +
	`<ns:pingResponse xmlns:ns="urn:PayrollService"><return>pong</return></ns:pingResponse>` +
	`</soapenv:Body></soapenv:Envelope>`

func noSuchService(name string) string {
	return `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body>` +
		`<soapenv:Fault><faultcode>Client</faultcode><faultstring>no such service: ` + name +
		`</faultstring></soapenv:Fault></soapenv:Body></soapenv:Envelope>`
}

// TestGuardServices drives the SOAP door of a tenancy-on appliance
// through the real handler chain: whatever the path's spelling, the
// service the container would run is the one the policy is asked about.
func TestGuardServices(t *testing.T) {
	w := boot(t, func(cfg *Config) {
		cfg.Tenancy = &tenant.Config{
			Owners: []tenant.OwnerConfig{{Name: "acme", Policy: tenant.Policy{
				Deny: []tenant.Rule{{Verbs: []string{"invoke"}, Services: []string{"PayrollService"}}},
			}}},
			Keys: []tenant.KeyConfig{{Key: "acme-secret", Owner: "acme"}},
		}
	})
	payroll, open := deployPing(t, w, "PayrollService"), deployPing(t, w, "OpenService")

	const forbidden = `{"code":"forbidden","error":"tenant: policy forbids this action"}` + "\n"
	for _, tc := range []struct {
		name, method, path, key string
		status                  int
		body                    string // "" is not compared
	}{
		{"keyless POST", "POST", "/services/OpenService", "", 401, `{"code":"unauthorized","error":"tenant: missing or unknown API key"}` + "\n"},
		{"unknown key", "POST", "/services/OpenService", "nobody-secret", 401, ""},
		{"denied", "POST", "/services/PayrollService", "acme-secret", 403, forbidden},
		{"denied, trailing slash", "POST", "/services/PayrollService/", "acme-secret", 403, forbidden},
		{"denied, two slashes", "POST", "/services/PayrollService//", "acme-secret", 301, "/services/PayrollService/"},
		{"denied, something under it", "POST", "/services/PayrollService/extra", "acme-secret", 403, forbidden},
		{"allowed", "POST", "/services/OpenService", "acme-secret", 200, strings.ReplaceAll(pong, "PayrollService", "OpenService")},
		{"allowed, trailing slash", "POST", "/services/OpenService/", "acme-secret", 200, ""},
		{"allowed, not an address", "POST", "/services/OpenService/extra", "acme-secret", 404, noSuchService("OpenService/extra")},
		{"wsdl stays open", "GET", "/services/PayrollService?wsdl", "", 200, ""},
		{"index stays open", "GET", "/services/", "", 200, ""},
	} {
		status, body := soapDoor(t, w, tc.method, tc.path, tc.key)
		if status != tc.status || (tc.body != "" && body != tc.body) {
			t.Errorf("%s: %s %s = %d %q, want %d %q", tc.name, tc.method, tc.path, status, body, tc.status, tc.body)
		}
	}
	// The mux never lets an empty segment through; the guard would not either.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/services/PayrollService//", nil)
	req.Header.Set(tenant.KeyHeader, "acme-secret")
	guardServices(w.app.OnServe.Tenancy(), w.app.Container).ServeHTTP(rec, req)
	if rec.Code != 403 || rec.Body.String() != forbidden {
		t.Errorf("guard alone, two slashes: %d %q", rec.Code, rec.Body)
	}
	if n := payroll.Load(); n != 0 {
		t.Errorf("the denied service ran %d time(s)", n)
	}
	if n := open.Load(); n != 2 {
		t.Errorf("the allowed service ran %d time(s), want 2", n)
	}
}

// TestTenancyOffServicesWireGolden is portal's TestTenancyOffWireGolden
// for the other door: with tenancy off nothing stands before the
// container, and what it answers to each spelling of a service's path is
// byte-exact.
func TestTenancyOffServicesWireGolden(t *testing.T) {
	w := boot(t, nil)
	ran := deployPing(t, w, "PayrollService")
	for _, tc := range []struct {
		method, path string
		status       int
		body         string
	}{
		{"POST", "/services/PayrollService", 200, pong},
		{"POST", "/services/PayrollService/", 200, pong},
		{"POST", "/services/PayrollService//", 301, "/services/PayrollService/"},
		{"POST", "/services/PayrollService/extra", 404, noSuchService("PayrollService/extra")},
		{"POST", "/services/PayrollService/extra/", 404, noSuchService("PayrollService/extra")},
		{"POST", "/services//PayrollService", 301, "/services/PayrollService"},
		{"POST", "/services/NoService", 404, noSuchService("NoService")},
		{"GET", "/services/PayrollService", 200, "PayrollService: \nAppend ?wsdl for the service description.\n"},
		{"GET", "/services/", 200, "CyberaideAgent\nPayrollService\nUDDIRegistry\n"},
	} {
		// A keyed request is served like an anonymous one.
		for _, key := range []string{"", "some-ignored-key"} {
			status, body := soapDoor(t, w, tc.method, tc.path, key)
			if status != tc.status || body != tc.body {
				t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, status, body, tc.status, tc.body)
			}
		}
	}
	if n := ran.Load(); n != 4 {
		t.Errorf("the service ran %d time(s), want 4", n)
	}
}

// TestBuildImageRejectsKnobsWithoutChunkedStaging is core's
// TestNewRejectsKnobsWithoutChunkedStaging one layer up: the image is
// refused when it is built, before a database directory exists or a port
// is bound for it.
func TestBuildImageRejectsKnobsWithoutChunkedStaging(t *testing.T) {
	w := boot(t, nil)
	for name, set := range map[string]func(*Config){
		"DataAwarePlacement": func(c *Config) { c.DataAwarePlacement = true },
		"WireCompression":    func(c *Config) { c.WireCompression = true },
	} {
		dir := filepath.Join(t.TempDir(), "db")
		cfg := Config{Endpoints: w.env.Endpoints(), Clock: w.clock, DBDir: dir}
		set(&cfg)
		if _, err := BuildImage(cfg); err == nil || !strings.Contains(err.Error(), "require ChunkedStaging") {
			t.Errorf("%s without ChunkedStaging: %v", name, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: refused image left %s behind (%v)", name, dir, err)
		}
		cfg.ChunkedStaging = true
		if _, err := BuildImage(cfg); err != nil {
			t.Errorf("%s with ChunkedStaging: %v", name, err)
		}
	}
}
