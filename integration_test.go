package repro

// Whole-system integration tests: the five-layer stack of the paper's
// Fig. 2 exercised exactly as a deployment would be, across reboot and
// redeployment boundaries, through both front doors of one appliance and
// of a fleet.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/appliance/appliancetest"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gridsim"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsclient"
)

// TestMain runs the package's tests under GOEXPERIMENT=synctest, where
// those that build a simulated grid run it in a bubble.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestIntegrationFullLifecycleAcrossReboot(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		dbDir := t.TempDir()
		f := appliancetest.Boot(t, func(cfg *appliance.Config) { cfg.DBDir = dbDir })

		// First boot: upload through the form and run once.
		f.Upload(t, "persist.gsh", "echo round ${n}\ncompute 500ms\n",
			"description", "survives reboots", "paramName1", "n", "paramType1", "int")
		out, err := f.App.OnServe.ExecuteAndWait("PersistService", map[string]string{"n": "1"})
		if err != nil || out != "round 1\n" {
			t.Fatalf("first run: %q %v", out, err)
		}

		// Second boot from the same image + database: the stored executable
		// must be redeployable without re-upload.
		f.Reboot(t)
		app := f.App

		// The database carried the record across the reboot...
		if _, err := app.DB.Table(core.ExecutablesTable).Stat("PersistService"); err != nil {
			t.Fatalf("record lost across reboot: %v", err)
		}
		info, err := app.OnServe.ServiceInfo("PersistService")
		if err != nil {
			t.Fatal(err)
		}
		if info.Description != "survives reboots" || len(info.Params) != 1 {
			t.Fatalf("info %+v", info)
		}
		// ...and RedeployAll brings the service (and its UDDI record) back.
		n, err := app.OnServe.RedeployAll()
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("redeployed %d services", n)
		}
		// Idempotent: a second call finds everything live already.
		if n, err := app.OnServe.RedeployAll(); err != nil || n != 0 {
			t.Fatalf("second redeploy: n=%d err=%v", n, err)
		}
		out, err = app.OnServe.ExecuteAndWait("PersistService", map[string]string{"n": "2"})
		if err != nil || out != "round 2\n" {
			t.Fatalf("post-reboot run: %q %v", out, err)
		}
		if app.Registry.Len() != 1 {
			t.Fatal("uddi record not republished")
		}
	})
}

func TestIntegrationDiscoveryPipeline(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)

		// Publish three services, discover by pattern, invoke the match.
		for _, name := range []string{"alphafold.gsh", "alphasort.gsh", "betareduce.gsh"} {
			if _, err := f.App.OnServe.UploadAndGenerate("alice", name, "", nil, []byte("echo ran "+name+"\n")); err != nil {
				t.Fatal(err)
			}
		}
		c := soap.Client{HTTP: f.Web}
		found, err := c.Call(f.App.RegistryURL(), uddi.Namespace, "find",
			[]soap.Param{{Name: "pattern", Value: "Alpha%"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := uddi.DecodeRecords(found)
		if err != nil || len(recs) != 2 {
			t.Fatalf("discovered %d services: %v", len(recs), err)
		}
		proxy, err := wsclient.ImportURL(recs[0].Endpoint, f.Web)
		if err != nil {
			t.Fatal(err)
		}
		ticket, err := proxy.Invoke("execute", nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := proxy.Invoke("wait", map[string]string{"ticket": ticket})
		if err != nil || !strings.HasPrefix(out, "ran alpha") {
			t.Fatalf("output %q err %v", out, err)
		}
	})
}

// keyed carries every request with the tenancy key set.
type keyed struct {
	rt  http.RoundTripper
	key string
}

func (k keyed) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(tenant.KeyHeader, k.key)
	return k.rt.RoundTrip(r)
}

// aliceKeys lets alice's key upload and invoke the services it names,
// denies Secret*, and keeps her jobs on the sites named site?.
func aliceKeys() *tenant.Config {
	return &tenant.Config{
		Owners: []tenant.OwnerConfig{{Name: "alice", Policy: tenant.Policy{
			Allow: []tenant.Rule{{Verbs: []string{"upload", "invoke"}, Services: []string{"Art*", "Secret*", "Fleet*"}}},
			Deny:  []tenant.Rule{{Services: []string{"Secret*"}}},
			Sites: []string{"site?"},
		}}},
		Keys: []tenant.KeyConfig{{Key: "alice-key", Owner: "alice"}},
	}
}

// TestIntegrationPortalRoutes drives every page and route an operator or a
// user reaches on one appliance booted with a keys config: the upload
// form's stage-in list, an invocation through the SOAP door that writes an
// artifact, then /, /registry, /trace, /api/stats, /api/service,
// /api/client, /api/registry, /api/outfile and the SOAP base path. The
// tenancy door admits the key's owner where its policy allows and refuses
// a keyless call, a denied service and a site its policy leaves out.
func TestIntegrationPortalRoutes(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, func(cfg *appliance.Config) { cfg.Tenancy = aliceKeys() },
			gridsim.SiteConfig{Name: "siteA", Nodes: 2, CoresPerNode: 4}, gridsim.SiteConfig{Name: "other", Nodes: 2, CoresPerNode: 4})
		if err := f.Env.StageEverywhere("/O=Repro/CN=alice", "corpus.txt", []byte("some words\n")); err != nil {
			t.Fatal(err)
		}
		// The upload form, with its stage-in list.
		ctype, form := appliancetest.UploadForm("artifacts.gsh", "process corpus.txt 100\nwrite data.bin 64\necho done ${n}\n",
			"paramName1", "n", "paramType1", "int", "stageIn", "corpus.txt")
		f.Serve(t, appliancetest.Route{Method: "POST", Path: "/upload", Type: ctype, Body: form, Key: "alice-key", Status: http.StatusOK})

		// An invocation through the SOAP door, as the key's owner.
		soapc := soap.Client{HTTP: &http.Client{Transport: keyed{f.Web.Transport, "alice-key"}}}
		url, ns := f.App.ServicesURL()+"ArtifactsService", "urn:onserve:ArtifactsService"
		ticket, err := soapc.Call(url, ns, "execute", []soap.Param{{Name: "n", Value: "7"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := soapc.Call(url, ns, "wait", []soap.Param{{Name: "ticket", Value: ticket}}, nil); err != nil || !strings.Contains(out, "done 7") {
			t.Fatalf("wait: %q, %v", out, err)
		}

		// The policy leaves "other" out, which placement would otherwise try
		// first (equal loads order by name).
		if inv, err := f.App.OnServe.Invocation(ticket); err != nil || inv.Site != "siteA" {
			t.Fatalf("invocation %+v, %v: want it placed at siteA", inv, err)
		}
		get := func(path, want string) appliancetest.Route {
			return appliancetest.Route{Method: "GET", Path: path, Key: "alice-key", Status: http.StatusOK, Want: want}
		}
		f.Serve(t,
			get("/", "ArtifactsService"),
			get("/registry", "ArtifactsService"),
			get("/trace?ticket="+ticket, "onserve/invoke"),
			get("/api/service?name=ArtifactsService", `"stage_in":["corpus.txt"]`),
			get("/api/client?name=ArtifactsService", `"n": "0", // int`),
			get("/api/registry?pattern=Art%", "ArtifactsService"),
			get(f.App.Container.BasePath(), "ArtifactsService"),
			appliancetest.Route{Method: "GET", Path: "/api/outfile?ticket=" + ticket + "&name=data.bin", Key: "alice-key", Status: http.StatusOK,
				Check: func(t testing.TB, r appliancetest.Reply) {
					if len(r.Body) != 64 {
						t.Errorf("/api/outfile served %d bytes, want the 64 written", len(r.Body))
					}
				}},
			// The door: no key.
			appliancetest.Route{Method: "POST", Path: "/api/invoke", Type: "application/json", Body: `{"service":"ArtifactsService"}`, Status: http.StatusUnauthorized},
			appliancetest.Route{Method: "GET", Path: "/api/stats", Status: http.StatusOK, Check: func(t testing.TB, r appliancetest.Reply) {
				var stats struct {
					Tenant *tenant.Stats         `json:"tenant"`
					Trace  *trace.CollectorStats `json:"trace"`
				}
				if err := json.Unmarshal([]byte(r.Body), &stats); err != nil || stats.Tenant == nil || stats.Tenant.Keys != 1 ||
					stats.Tenant.Admitted < 2 || stats.Trace == nil || stats.Trace.Spans == 0 {
					t.Errorf("/api/stats: tenant %+v, trace %+v (%v)", stats.Tenant, stats.Trace, err)
				}
			}},
		)
		// ... and a service the policy denies.
		if _, err := soapc.Call(f.App.ServicesURL()+"SecretService", "urn:onserve:SecretService", "execute", nil, nil); err == nil || !strings.Contains(err.Error(), "http 403") {
			t.Errorf("a service the policy denies: %v, want 403", err)
		}
	})
}

// TestIntegrationFleetRoutes drives the fleet gateway's own routes over a
// two-member fleet with tenancy on, the fixture's grid beneath it: the
// home page any member serves, and the scatter routes — /registry,
// /api/services, /api/stats with the gateway block and the members'
// tenant blocks merged, /api/audit — each the union of both members.
func TestIntegrationFleetRoutes(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		f := appliancetest.Boot(t, nil)
		gw, err := gateway.Boot(gateway.Config{Fleet: 2, Net: f.Net, Trace: f.Trace, Appliance: appliance.Config{
			Endpoints: f.Env.Endpoints(), GridDial: f.Net.DialContext, PollInterval: 2 * time.Second, Tenancy: aliceKeys(),
		}}, f.Net.Listen())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gw.Shutdown() })
		gw.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
		services := []string{"FleetaService", "FleetcService"}
		if gw.PrimaryFor(services[0]) == gw.PrimaryFor(services[1]) {
			t.Fatalf("both services map to shard %d: the scatter routes would merge one member", gw.PrimaryFor(services[0]))
		}
		for _, file := range []string{"fleetc.gsh", "fleeta.gsh"} {
			time.Sleep(time.Second) // the audit orders its records by time
			ctype, form := appliancetest.UploadForm(file, "echo fleet\n")
			f.Serve(t, appliancetest.Route{Method: "POST", Path: gw.BaseURL + "/upload", Type: ctype, Body: form, Key: "alice-key", Status: http.StatusOK})
		}
		get := func(path, want string, check func(t testing.TB, r appliancetest.Reply)) appliancetest.Route {
			return appliancetest.Route{Method: "GET", Path: gw.BaseURL + path, Status: http.StatusOK, Want: want, Check: check}
		}
		decode := func(t testing.TB, r appliancetest.Reply, v any) {
			if err := json.Unmarshal([]byte(r.Body), v); err != nil {
				t.Fatalf("%v: %.300q", err, r.Body)
			}
		}
		f.Serve(t,
			get("/", "Upload file and generate WebService", nil),
			get("/registry", "2 published", func(t testing.TB, r appliancetest.Reply) {
				if !strings.Contains(r.Body, services[0]) || !strings.Contains(r.Body, services[1]) {
					t.Errorf("the fleet's registry page lists not both services:\n%s", r.Body)
				}
			}),
			get("/api/services", "", func(t testing.TB, r appliancetest.Reply) {
				var infos []core.ExecutableInfo
				if decode(t, r, &infos); len(infos) != 2 || infos[0].ServiceName != services[0] || infos[1].ServiceName != services[1] {
					t.Errorf("/api/services: %+v, want %v in order", infos, services)
				}
			}),
			get("/api/stats", "", func(t testing.TB, r appliancetest.Reply) {
				var doc struct {
					Gateway *gateway.Stats    `json:"gateway"`
					Fleet   []json.RawMessage `json:"fleet"`
					Tenant  *tenant.Stats     `json:"tenant"`
				}
				decode(t, r, &doc)
				if doc.Gateway == nil || doc.Gateway.RingMembers != 2 || doc.Gateway.Routed != 2 || doc.Gateway.Scatters != 3 || len(doc.Fleet) != 2 {
					t.Errorf("gateway block %+v over %d members: want 2 members, 2 routed, this and 2 earlier scatters", doc.Gateway, len(doc.Fleet))
				}
				if doc.Tenant == nil || doc.Tenant.Keys != 1 || doc.Tenant.Admitted != 2 || doc.Tenant.Owners["alice"].Admitted != 2 {
					t.Errorf("merged tenant block %+v: want one key, and both members' one upload each", doc.Tenant)
				}
			}),
			get("/api/audit", "", func(t testing.TB, r appliancetest.Reply) {
				var doc struct{ Records []tenant.Record }
				decode(t, r, &doc)
				var got []string
				for _, rec := range doc.Records {
					got = append(got, rec.Owner+" "+rec.Verb+" "+rec.Outcome+" "+rec.Service)
				}
				if want := "alice upload ok " + services[0] + "\nalice upload ok " + services[1]; strings.Join(got, "\n") != want {
					t.Errorf("the fleet's audit, newest first:\n%s\nwant:\n%s", strings.Join(got, "\n"), want)
				}
			}),
		)
	})
}
