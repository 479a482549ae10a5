package appliance_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/cyberaide"
	"repro/internal/metrics"
	"repro/internal/portal"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/uddi"
	"repro/internal/wsclient"
)

// TestMain runs the package's tests under GOEXPERIMENT=synctest, where
// those that build a simulated grid run it in a bubble.
func TestMain(m *testing.M) { bubble.Main(m) }

// TestBuildImageValidation: an image needs GRAM, MyProxy and a GridFTP
// endpoint, and one built lists the components Boot provisions.
func TestBuildImageValidation(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		for name, set := range map[string]func(*appliance.Config){
			"no endpoints":        func(c *appliance.Config) { c.Endpoints = cyberaide.Endpoints{} },
			"no GridFTP endpoint": func(c *appliance.Config) { c.Endpoints.FTPURLs = nil },
		} {
			if _, err := f.Build(set); err == nil {
				t.Errorf("%s: built", name)
			}
		}
		if len(f.Image.Manifest) < 5 {
			t.Fatalf("manifest %v", f.Image.Manifest)
		}
	})
}

// TestBuildImageRejectsKnobsWithoutChunkedStaging is core's
// TestNewRejectsKnobsWithoutChunkedStaging one layer up: the image is
// refused when it is built, before a database directory exists or a port
// is bound for it.
func TestBuildImageRejectsKnobsWithoutChunkedStaging(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		for name, set := range map[string]func(*appliance.Config){
			"DataAwarePlacement": func(c *appliance.Config) { c.DataAwarePlacement = true },
			"WireCompression":    func(c *appliance.Config) { c.WireCompression = true },
		} {
			dir := filepath.Join(t.TempDir(), "db")
			chunked := false
			build := func(c *appliance.Config) { c.DBDir, c.ChunkedStaging = dir, chunked; set(c) }
			if _, err := f.Build(build); err == nil || !strings.Contains(err.Error(), "require ChunkedStaging") {
				t.Errorf("%s without ChunkedStaging: %v", name, err)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("%s: refused image left %s behind (%v)", name, dir, err)
			}
			chunked = true
			if _, err := f.Build(build); err != nil {
				t.Errorf("%s with ChunkedStaging: %v", name, err)
			}
		}
	})
}

func TestFullSaaSLoopThroughApplianceHTTP(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)

		// Scenario A: upload through the portal.
		if rec := f.Upload(t, "demo.gsh", "echo v=${x}\ncompute 500ms\n", "paramName1", "x", "paramType1", "int"); !strings.Contains(rec, `"name":"DemoService"`) {
			t.Fatalf("published %s", rec)
		}

		// Scenario B step 1: discover through the UDDI SOAP service.
		sc := soap.Client{HTTP: f.Web}
		found, err := sc.Call(f.App.RegistryURL(), uddi.Namespace, "find",
			[]soap.Param{{Name: "pattern", Value: "Demo%"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := uddi.DecodeRecords(found)
		if err != nil || len(recs) != 1 {
			t.Fatalf("uddi records %v err %v", recs, err)
		}

		// Scenario B step 2: wsimport the WSDL and build a client proxy.
		proxy, err := wsclient.ImportURL(recs[0].Endpoint, f.Web)
		if err != nil {
			t.Fatal(err)
		}

		// Scenario B step 3: invoke; the grid executes; collect output.
		ticket, err := proxy.Invoke("execute", map[string]string{"x": "7"})
		if err != nil {
			t.Fatal(err)
		}
		out, err := proxy.Invoke("wait", map[string]string{"ticket": ticket})
		if err != nil {
			t.Fatal(err)
		}
		if out != "v=7\n" {
			t.Fatalf("output %q", out)
		}
	})
}

func TestPortalHomeListsServices(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		f.Upload(t, "alpha.gsh", "echo a\n")
		f.Serve(t, appliancetest.Route{Method: "GET", Path: "/", Status: 200, Want: "AlphaService"},
			appliancetest.Route{Method: "GET", Path: "/", Status: 200, Want: "Upload file and generate WebService"})
	})
}

// TestPortalErrors: what the door refuses on an appliance: an unknown
// service or ticket, an upload for a user with no grid credentials, and
// a GET of the upload form's action.
func TestPortalErrors(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		ctype, form := appliancetest.UploadForm("f.gsh", "echo x\n", "user", "mallory")
		f.Serve(t,
			appliancetest.Route{Method: "GET", Path: "/api/service?name=Nope", Status: 404},
			appliancetest.Route{Method: "GET", Path: "/api/status?ticket=inv-000000-ffffffffffff", Status: 404},
			appliancetest.Route{Method: "POST", Path: "/upload", Type: ctype, Body: form, Status: 400},
			appliancetest.Route{Method: "GET", Path: "/upload", Status: 405})
	})
}

// TestPortalCancel: /api/cancel of a running invocation ends it
// CANCELLED.
func TestPortalCancel(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		f.Upload(t, "long.gsh", "emit 2s 10000 t\n")
		var inv portal.InvokeReply
		json.Unmarshal([]byte(f.Do(t, appliancetest.Route{Method: "POST", Path: "/api/invoke", Body: `{"service":"LongService"}`}).Body), &inv)
		f.Serve(t, appliancetest.Route{Method: "POST", Path: "/api/cancel?ticket=" + inv.Ticket, Status: 200},
			appliancetest.Route{Method: "GET", Path: "/api/wait?ticket=" + inv.Ticket, Status: 200, Want: `"state":"CANCELLED"`})
	})
}

func TestApplianceHostsToolkitServices(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		names := f.App.Container.Names()
		joined := strings.Join(names, ",")
		if !strings.Contains(joined, "UDDIRegistry") || !strings.Contains(joined, "CyberaideAgent") {
			t.Fatalf("toolkit services missing: %v", names)
		}
	})
}

// TestGuardedSOAPStatusAllocations: with tenancy on, the SOAP door reads
// and decodes a call once, in the guard, and the container serves what the
// guard read. A status call through both, the test's recorder included,
// costs 36 objects; 43 when the container read and decoded it again.
func TestGuardedSOAPStatusAllocations(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, func(c *appliance.Config) {
			c.Cost = metrics.Cost{} // nothing sleeps, so nothing else runs, while the count runs
			c.Tenancy = &tenant.Config{Keys: []tenant.KeyConfig{{Key: "acme-secret", Owner: "acme"}}}
		})
		if _, err := f.App.OnServe.UploadAndGenerate("alice", "long.gsh", "", nil, []byte("compute 23h\n")); err != nil {
			t.Fatal(err)
		}
		inv, err := f.App.OnServe.Invoke("LongService", nil)
		if err != nil {
			t.Fatal(err)
		}
		env, _ := soap.Encode(&soap.Message{Namespace: "urn:onserve:LongService", Operation: "status",
			Params: []soap.Param{{Name: "ticket", Value: inv.Ticket}}})
		door := appliance.GuardServices(f.App.OnServe.Tenancy(), func(string) bool { return true }, f.App.Container)
		body := bytes.NewReader(env)
		req := httptest.NewRequest(http.MethodPost, "/services/LongService", body)
		req.Header.Set(tenant.KeyHeader, "acme-secret")
		allocs := testing.AllocsPerRun(50, func() {
			body.Reset(env)
			req.Body, req.ContentLength = io.NopCloser(body), int64(len(env))
			w := httptest.NewRecorder()
			door.ServeHTTP(w, req)
			if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "RUNNING") {
				t.Fatalf("status: %d %s", w.Code, w.Body)
			}
		})
		if allocs > 36 && !raceEnabled {
			t.Fatalf("a guarded SOAP status call allocates %.0f objects, want at most 36", allocs)
		}
	})
}
