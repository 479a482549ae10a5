package appliance_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/wsdl"
)

// deployPing deploys a one-operation service straight into f's container
// and returns how often its handler ran.
func deployPing(t *testing.T, f *appliancetest.Fixture, name string) *atomic.Int64 {
	t.Helper()
	svc := soap.NewService(wsdl.ServiceDef{
		Name:        name,
		Namespace:   "urn:" + name,
		EndpointURL: f.App.ServicesURL() + name,
		Operations:  []wsdl.OperationDef{{Name: "ping"}},
	})
	var ran atomic.Int64
	svc.MustBind("ping", func(*soap.Request) (string, error) {
		ran.Add(1)
		return "pong", nil
	})
	if err := f.App.Container.Deploy(svc); err != nil {
		t.Fatal(err)
	}
	return &ran
}

// soapRoute is one request to the SOAP door at path; a POST carries op's
// envelope in namespace ns.
func soapRoute(t *testing.T, method, path, key, ns, op string, params ...soap.Param) appliancetest.Route {
	t.Helper()
	r := appliancetest.Route{Method: method, Path: path, Type: "text/xml; charset=utf-8", Key: key}
	if method == http.MethodPost {
		env, err := soap.Encode(&soap.Message{Namespace: ns, Operation: op, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		r.Body = string(env)
	}
	return r
}

// soapDoor sends one request to the SOAP door; a POST carries a ping
// envelope for the service named in path. It returns the status and the
// body, or where a redirect points.
func soapDoor(t *testing.T, f *appliancetest.Fixture, method, path, key string) (int, string) {
	t.Helper()
	name, _, _ := soap.ServiceName(path)
	r := f.Do(t, soapRoute(t, method, path, key, "urn:"+name, "ping"))
	return r.Status, r.Body
}

// callLong calls op of the generated LongService as key's owner.
func callLong(t *testing.T, f *appliancetest.Fixture, key, op string, params ...soap.Param) (int, string) {
	t.Helper()
	r := f.Do(t, soapRoute(t, http.MethodPost, "/services/LongService", key, "urn:onserve:LongService", op, params...))
	return r.Status, r.Body
}

// withLong boots an appliance with tenancy cfg on and LongService, a
// job that runs for hours, published by alice.
func withLong(t *testing.T, cfg *tenant.Config) *appliancetest.Fixture {
	t.Helper()
	f := appliancetest.Boot(t, func(c *appliance.Config) { c.Tenancy = cfg })
	if _, err := f.App.OnServe.UploadAndGenerate("alice", "long.gsh", "", nil, []byte("emit 2s 10000 t\n")); err != nil {
		t.Fatal(err)
	}
	return f
}

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
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, func(cfg *appliance.Config) {
			cfg.Tenancy = &tenant.Config{
				Owners: []tenant.OwnerConfig{{Name: "acme", Policy: tenant.Policy{
					Deny: []tenant.Rule{{Verbs: []string{"invoke"}, Services: []string{"PayrollService"}}},
				}}},
				Keys: []tenant.KeyConfig{{Key: "acme-secret", Owner: "acme"}},
			}
		})
		payroll, open := deployPing(t, f, "PayrollService"), deployPing(t, f, "OpenService")

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
			status, body := soapDoor(t, f, tc.method, tc.path, tc.key)
			if status != tc.status || (tc.body != "" && body != tc.body) {
				t.Errorf("%s: %s %s = %d %q, want %d %q", tc.name, tc.method, tc.path, status, body, tc.status, tc.body)
			}
		}
		// The mux never lets an empty segment through; the guard would not either.
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/services/PayrollService//", nil)
		req.Header.Set(tenant.KeyHeader, "acme-secret")
		appliance.GuardServices(f.App.OnServe.Tenancy(), func(string) bool { return true }, f.App.Container).ServeHTTP(rec, req)
		if rec.Code != 403 || rec.Body.String() != forbidden {
			t.Errorf("guard alone, two slashes: %d %q", rec.Code, rec.Body)
		}
		if n := payroll.Load(); n != 0 {
			t.Errorf("the denied service ran %d time(s)", n)
		}
		if n := open.Load(); n != 2 {
			t.Errorf("the allowed service ran %d time(s), want 2", n)
		}
	})
}

// TestTenancyOffServicesWireGolden is portal's TestTenancyOffWireGolden
// for the other door: with tenancy off nothing stands before the
// container, and what it answers to each spelling of a service's path is
// byte-exact.
func TestTenancyOffServicesWireGolden(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		ran := deployPing(t, f, "PayrollService")
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
				status, body := soapDoor(t, f, tc.method, tc.path, key)
				if status != tc.status || body != tc.body {
					t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, status, body, tc.status, tc.body)
				}
			}
		}
		if n := ran.Load(); n != 4 {
			t.Errorf("the service ran %d time(s), want 4", n)
		}
	})
}

// TestSOAPExecuteIsAdmitted: a generated service's execute is admitted
// as /api/invoke is. It takes the owner's quota slot, is refused for the
// same reason when the slot is taken, and is audited either way.
func TestSOAPExecuteIsAdmitted(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := withLong(t, &tenant.Config{
			Owners: []tenant.OwnerConfig{{Name: "acme", MaxInFlight: 1}},
			Keys:   []tenant.KeyConfig{{Key: "acme-secret", Owner: "acme"}},
		})
		// The slot is free: the SOAP door takes it.
		if status, body := callLong(t, f, "acme-secret", "execute"); status != http.StatusOK || !strings.Contains(body, "inv-") {
			t.Fatalf("first execute: %d %s", status, body)
		}
		// The slot is held: both doors refuse as the quota does.
		f.Serve(t, appliancetest.Route{Method: "POST", Path: "/api/invoke", Body: `{"service":"LongService"}`, Key: "acme-secret",
			Status: http.StatusTooManyRequests, Want: "quota_exceeded"})
		if status, body := callLong(t, f, "acme-secret", "execute"); status != http.StatusInternalServerError || !strings.Contains(body, tenant.ErrSaturated.Error()) {
			t.Fatalf("execute with the slot held: %d %s", status, body)
		}

		recs := f.App.OnServe.Tenancy().Audit("acme", 10)
		var got []string
		for _, r := range recs {
			got = append(got, r.Verb+" "+r.Outcome+" "+r.Code+" "+r.Service)
			if r.Outcome == "ok" && !strings.HasPrefix(r.Ticket, "inv-") {
				t.Errorf("admitted execute audited without its ticket: %+v", r)
			}
		}
		want := []string{
			"invoke denied quota_exceeded LongService",
			"invoke denied quota_exceeded LongService",
			"invoke ok  LongService",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("audit, newest first:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// executeLong starts LongService over SOAP as key's owner and returns the
// ticket.
func executeLong(t *testing.T, f *appliancetest.Fixture, key string) string {
	t.Helper()
	status, body := callLong(t, f, key, "execute")
	_, rest, _ := strings.Cut(body, "<return>")
	ticket, _, _ := strings.Cut(rest, "</return>")
	if status != http.StatusOK || !strings.HasPrefix(ticket, "inv-") {
		t.Fatalf("execute: %d %s", status, body)
	}
	return ticket
}

// TestSOAPCancelOnlyOwnerCancels: an owner allowed to cancel a service
// but not to invoke it cancels over SOAP, and its own execute is still
// refused: each operation is admitted for its own verb.
func TestSOAPCancelOnlyOwnerCancels(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := withLong(t, &tenant.Config{
			Owners: []tenant.OwnerConfig{{Name: "janitor", Policy: tenant.Policy{
				Deny: []tenant.Rule{{Verbs: []string{"invoke"}, Services: []string{"LongService"}}},
			}}},
			Keys: []tenant.KeyConfig{{Key: "janitor-secret", Owner: "janitor"}, {Key: "ops-secret", Owner: "ops"}},
		})
		ticket := executeLong(t, f, "ops-secret")
		if status, body := callLong(t, f, "janitor-secret", "cancel", soap.Param{Name: "ticket", Value: ticket}); status != http.StatusOK || !strings.Contains(body, "<return>cancelling</return>") {
			t.Fatalf("cancel by a cancel-only owner: %d %s", status, body)
		}
		if status, body := callLong(t, f, "janitor-secret", "execute"); status == http.StatusOK || !strings.Contains(body, tenant.ErrForbidden.Error()) {
			t.Fatalf("execute by an owner denied invoke: %d %s", status, body)
		}
	})
}

// TestSOAPCancelIsAdmitted: a generated service's cancel is admitted as
// /api/cancel is. An owner allowed to invoke a service but not to cancel
// it is refused at both doors, and a cancel that is allowed is audited
// once.
func TestSOAPCancelIsAdmitted(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := withLong(t, &tenant.Config{
			Owners: []tenant.OwnerConfig{{Name: "acme", Policy: tenant.Policy{
				Deny: []tenant.Rule{{Verbs: []string{"cancel"}, Services: []string{"LongService"}}},
			}}},
			Keys: []tenant.KeyConfig{{Key: "acme-secret", Owner: "acme"}, {Key: "ops-secret", Owner: "ops"}},
		})
		ticket := executeLong(t, f, "acme-secret")
		ticketParam := soap.Param{Name: "ticket", Value: ticket}
		f.Serve(t, appliancetest.Route{Method: "POST", Path: "/api/cancel?ticket=" + ticket, Key: "acme-secret", Status: http.StatusForbidden})
		if status, body := callLong(t, f, "acme-secret", "cancel", ticketParam); status != http.StatusInternalServerError || !strings.Contains(body, tenant.ErrForbidden.Error()) {
			t.Fatalf("SOAP cancel denied by policy: %d %s", status, body)
		}
		if status, body := callLong(t, f, "ops-secret", "cancel", ticketParam); status != http.StatusOK || !strings.Contains(body, "<return>cancelling</return>") {
			t.Fatalf("SOAP cancel allowed: %d %s", status, body)
		}

		for owner, want := range map[string][]string{
			"acme": {
				"cancel denied forbidden LongService ",
				"cancel denied forbidden LongService ",
				"invoke ok  LongService " + ticket,
			},
			"ops": {"cancel ok  LongService " + ticket},
		} {
			var got []string
			for _, r := range f.App.OnServe.Tenancy().Audit(owner, 10) {
				got = append(got, r.Verb+" "+r.Outcome+" "+r.Code+" "+r.Service+" "+r.Ticket)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s's audit, newest first:\n%s\nwant:\n%s", owner, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	})
}

// TestRouteTable holds each spelling of a path to the answer — status,
// Location and body — of a ServeMux routing "/services/" to the SOAP
// container and "/" to the portal: a clean path skips that mux, whatever
// a mux would rewrite still meets it.
func TestRouteTable(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		deployPing(t, f, "Ping")
		home := httptest.NewRecorder()
		f.App.Portal.ServeHTTP(home, httptest.NewRequest("GET", "/", nil))
		for _, tc := range []struct {
			method, path   string
			status         int
			location, body string
		}{
			{"GET", "/services", 301, "/services/", `<a href="/services/">Moved Permanently</a>.` + "\n\n"},
			{"GET", "/services/", 200, "", "CyberaideAgent\nPing\nUDDIRegistry\n"},
			{"POST", "/services/Ping/extra", 404, "", noSuchService("Ping/extra")},
			{"GET", "/services/./Ping", 301, "/services/Ping", `<a href="/services/Ping">Moved Permanently</a>.` + "\n\n"},
			{"GET", "/services/../api/stats", 301, "/api/stats", `<a href="/api/stats">Moved Permanently</a>.` + "\n\n"},
			{"POST", "//services/Ping", 301, "/services/Ping", ""},
			{"GET", "/api/trace/x", 404, "", `{"code":"not_found","error":"onserve: no such invocation ticket: \"x\""}` + "\n"},
			{"GET", "/", 200, "", home.Body.String()},
			{"GET", "/nope", 404, "", "404 page not found\n"},
			{"CONNECT", "/services/../api/stats", 404, "", noSuchService("../api/stats")},
		} {
			req, err := http.NewRequest(tc.method, f.App.BaseURL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := f.Web.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if loc := resp.Header.Get("Location"); resp.StatusCode != tc.status || loc != tc.location || string(body) != tc.body {
				t.Errorf("%s %s = %d %q %q, want %d %q %q", tc.method, tc.path, resp.StatusCode, loc, body, tc.status, tc.location, tc.body)
			}
		}
	})
}

// TestDispatchAllocations: a SOAP call and an /api/invoke reach their
// handlers without a routing object. The portal stands in as a mux of its
// shape, a catch-all and exact API paths; a prefix match in a ServeMux
// costs 3 objects a request, an exact one none.
func TestDispatchAllocations(t *testing.T) {
	var served string
	leaf := func(name string) http.Handler {
		return http.HandlerFunc(func(http.ResponseWriter, *http.Request) { served = name })
	}
	portal := http.NewServeMux()
	portal.Handle("/", leaf("home"))
	portal.Handle("/api/invoke", leaf("invoke"))
	h := appliance.NewRoot(leaf("soap"), portal)
	w := httptest.NewRecorder()
	for _, tc := range []struct{ path, want string }{{"/services/pi", "soap"}, {"/api/invoke", "invoke"}} {
		req := httptest.NewRequest(http.MethodPost, tc.path, nil)
		if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) }); n != 0 || served != tc.want {
			t.Errorf("%s: %v objects to reach %q, want 0 to reach %q", tc.path, n, served, tc.want)
		}
	}
}

// TestSOAPExecuteContentType: a generated service's execute, answered
// over a listener by net/http, is text/xml by its sniffed first bytes.
func TestSOAPExecuteContentType(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		if _, err := f.App.OnServe.UploadAndGenerate("alice", "hi.gsh", "", nil, []byte("echo hi\n")); err != nil {
			t.Fatal(err)
		}
		r := f.Do(t, soapRoute(t, http.MethodPost, "/services/HiService", "", "urn:onserve:HiService", "execute"))
		if ct := r.Header.Get("Content-Type"); r.Status != http.StatusOK || !strings.Contains(r.Body, "<return>inv-") || ct != "text/xml; charset=utf-8" {
			t.Fatalf("execute: %d, Content-Type %q, %s", r.Status, ct, r.Body)
		}
	})
}
