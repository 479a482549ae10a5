package repro

// Whole-system integration tests: the five-layer stack of the paper's
// Fig. 2 exercised exactly as a deployment would be, across reboot and
// redeployment boundaries.

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/bubble"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/portal"
	"repro/internal/soap"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

// TestMain runs the package's tests under GOEXPERIMENT=synctest, where
// those that build a simulated grid run it in a bubble.
func TestMain(m *testing.M) { bubble.Main(m) }

func TestIntegrationFullLifecycleAcrossReboot(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		pipes := netsim.NewNet()
		env, err := gridenv.Start(gridenv.Options{
			Sites: []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}},
			Net:   pipes,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		if _, err := env.AddUser("alice", "pw", 0); err != nil {
			t.Fatal(err)
		}

		dbDir := t.TempDir()
		img, err := appliance.BuildImage(appliance.Config{
			Endpoints:    env.Endpoints(),
			DBDir:        dbDir,
			PollInterval: 2 * time.Second,
			GridDial:     pipes.DialContext,
		})
		if err != nil {
			t.Fatal(err)
		}

		// First boot: upload and run once.
		app, err := img.Boot(pipes.Listen())
		if err != nil {
			t.Fatal(err)
		}
		app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
		if _, err := app.OnServe.UploadAndGenerate("alice", "persist.gsh", "survives reboots",
			[]wsdl.ParamDef{{Name: "n", Type: wsdl.TypeInt}},
			[]byte("echo round ${n}\ncompute 500ms\n")); err != nil {
			t.Fatal(err)
		}
		out, err := app.OnServe.ExecuteAndWait("PersistService", map[string]string{"n": "1"})
		if err != nil || out != "round 1\n" {
			t.Fatalf("first run: %q %v", out, err)
		}
		if err := app.Shutdown(); err != nil {
			t.Fatal(err)
		}

		// Second boot from the same image + database: the stored executable
		// must be redeployable without re-upload.
		app2, err := img.Boot(pipes.Listen())
		if err != nil {
			t.Fatal(err)
		}
		defer app2.Shutdown()
		app2.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})

		// The database carried the record across the reboot...
		info, err := app2.OnServe.ServiceInfo("PersistService")
		if err != nil {
			t.Fatal(err)
		}
		if info.Description != "survives reboots" || len(info.Params) != 1 {
			t.Fatalf("info %+v", info)
		}
		// ...and RedeployAll brings the service (and its UDDI record) back.
		n, err := app2.OnServe.RedeployAll()
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("redeployed %d services", n)
		}
		// Idempotent: a second call finds everything live already.
		if n, err := app2.OnServe.RedeployAll(); err != nil || n != 0 {
			t.Fatalf("second redeploy: n=%d err=%v", n, err)
		}
		out, err = app2.OnServe.ExecuteAndWait("PersistService", map[string]string{"n": "2"})
		if err != nil || out != "round 2\n" {
			t.Fatalf("post-reboot run: %q %v", out, err)
		}
		if app2.Registry.Len() != 1 {
			t.Fatal("uddi record not republished")
		}
	})
}

func TestIntegrationDiscoveryPipeline(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		pipes := netsim.NewNet()
		env, err := gridenv.Start(gridenv.Options{
			Sites: []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}},
			Net:   pipes,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		env.AddUser("alice", "pw", 0)
		img, _ := appliance.BuildImage(appliance.Config{
			Endpoints: env.Endpoints(), PollInterval: 2 * time.Second,
			GridDial: pipes.DialContext,
		})
		app, err := img.Boot(pipes.Listen())
		if err != nil {
			t.Fatal(err)
		}
		defer app.Shutdown()
		app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})

		// Publish three services, discover by pattern, invoke the match.
		for _, name := range []string{"alphafold.gsh", "alphasort.gsh", "betareduce.gsh"} {
			if _, err := app.OnServe.UploadAndGenerate("alice", name, "", nil, []byte("echo ran "+name+"\n")); err != nil {
				t.Fatal(err)
			}
		}
		user := &http.Client{Transport: hop.NewTransport(pipes.DialContext)}
		c := soap.Client{HTTP: user}
		found, err := c.Call(app.RegistryURL(), uddi.Namespace, "find",
			[]soap.Param{{Name: "pattern", Value: "Alpha%"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := uddi.DecodeRecords(found)
		if err != nil || len(recs) != 2 {
			t.Fatalf("discovered %d services: %v", len(recs), err)
		}
		proxy, err := wsclient.ImportURL(recs[0].Endpoint, user)
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

// TestIntegrationPortalRoutes drives every page and route an operator or a
// user reaches on one appliance booted with a keys config: the upload
// form's stage-in list, an invocation through the SOAP door that writes an
// artifact, then /, /registry, /trace, /api/stats, /api/service,
// /api/client, /api/registry, /api/outfile and the SOAP base path. The
// tenancy door admits the key's owner where its policy allows and refuses
// a keyless call, a denied service and a site its policy leaves out.
func TestIntegrationPortalRoutes(t *testing.T) {
	bubble.Test(t, func(t *testing.T) {
		pipes := netsim.NewNet()
		env, err := gridenv.Start(gridenv.Options{
			Sites: []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}, {Name: "other", Nodes: 2, CoresPerNode: 4}},
			Net:   pipes,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		if _, err := env.AddUser("alice", "pw", 0); err != nil {
			t.Fatal(err)
		}
		img, err := appliance.BuildImage(appliance.Config{
			Endpoints: env.Endpoints(), PollInterval: 2 * time.Second, GridDial: pipes.DialContext,
			Trace: trace.NewCollector(0, 0),
			Tenancy: &tenant.Config{
				Owners: []tenant.OwnerConfig{{Name: "alice", Policy: tenant.Policy{
					Allow: []tenant.Rule{{Verbs: []string{"upload", "invoke"}, Services: []string{"Art*", "Secret*"}}},
					Deny:  []tenant.Rule{{Services: []string{"Secret*"}}},
					Sites: []string{"site?"},
				}}},
				Keys: []tenant.KeyConfig{{Key: "alice-key", Owner: "alice"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		app, err := img.Boot(pipes.Listen())
		if err != nil {
			t.Fatal(err)
		}
		defer app.Shutdown()
		app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
		if err := env.StageEverywhere("/O=Repro/CN=alice", "corpus.txt", []byte("some words\n")); err != nil {
			t.Fatal(err)
		}
		pipe := hop.NewTransport(pipes.DialContext)
		web := &http.Client{Transport: keyed{pipe, "alice-key"}}
		get := func(path string, want int) string {
			t.Helper()
			resp, err := web.Get(app.BaseURL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("GET %s: %d %s, want %d", path, resp.StatusCode, body, want)
			}
			return string(body)
		}

		// The upload form, with its stage-in list.
		var form bytes.Buffer
		mw := multipart.NewWriter(&form)
		fw, _ := mw.CreateFormFile("file", "artifacts.gsh")
		io.WriteString(fw, "process corpus.txt 100\nwrite data.bin 64\necho done ${n}\n")
		mw.WriteField("user", "alice")
		mw.WriteField("paramName1", "n")
		mw.WriteField("paramType1", "int")
		mw.WriteField("stageIn", "corpus.txt")
		mw.Close()
		resp, err := web.Post(app.BaseURL+"/upload", mw.FormDataContentType(), &form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: %d", resp.StatusCode)
		}

		// An invocation through the SOAP door, as the key's owner.
		soapc := soap.Client{HTTP: web}
		url, ns := app.ServicesURL()+"ArtifactsService", "urn:onserve:ArtifactsService"
		ticket, err := soapc.Call(url, ns, "execute", []soap.Param{{Name: "n", Value: "7"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := soapc.Call(url, ns, "wait", []soap.Param{{Name: "ticket", Value: ticket}}, nil); err != nil || !strings.Contains(out, "done 7") {
			t.Fatalf("wait: %q, %v", out, err)
		}

		// The policy leaves "other" out, which placement would otherwise try
		// first (equal loads order by name).
		if inv, err := app.OnServe.Invocation(ticket); err != nil || inv.Site != "siteA" {
			t.Fatalf("invocation %+v, %v: want it placed at siteA", inv, err)
		}
		for path, want := range map[string]string{
			"/":                                  "ArtifactsService",
			"/registry":                          "ArtifactsService",
			"/trace?ticket=" + ticket:            "onserve/invoke",
			"/api/service?name=ArtifactsService": `"stage_in":["corpus.txt"]`,
			"/api/client?name=ArtifactsService":  `"n": "0", // int`,
			"/api/registry?pattern=Art%":         "ArtifactsService",
			app.Container.BasePath():             "ArtifactsService",
		} {
			if body := get(path, http.StatusOK); !strings.Contains(body, want) {
				t.Errorf("GET %s: %.300q, want %q in it", path, body, want)
			}
		}
		if n := len(get("/api/outfile?ticket="+ticket+"&name=data.bin", http.StatusOK)); n != 64 {
			t.Errorf("/api/outfile served %d bytes, want the 64 written", n)
		}

		// The door: no key, and a service the policy denies.
		if _, status, err := (portal.Client{Base: app.BaseURL, HTTP: &http.Client{Transport: pipe}}).Invoke("ArtifactsService", nil); err != nil || status != http.StatusUnauthorized {
			t.Errorf("a keyless invoke: %d, %v; want 401", status, err)
		}
		if _, err := soapc.Call(app.ServicesURL()+"SecretService", "urn:onserve:SecretService", "execute", nil, nil); err == nil || !strings.Contains(err.Error(), "http 403") {
			t.Errorf("a service the policy denies: %v, want 403", err)
		}
		var stats struct {
			Tenant *tenant.Stats         `json:"tenant"`
			Trace  *trace.CollectorStats `json:"trace"`
		}
		if err := json.Unmarshal([]byte(get("/api/stats", http.StatusOK)), &stats); err != nil || stats.Tenant == nil || stats.Tenant.Keys != 1 ||
			stats.Tenant.Admitted < 2 || stats.Trace == nil || stats.Trace.Spans == 0 {
			t.Errorf("/api/stats: tenant %+v, trace %+v (%v)", stats.Tenant, stats.Trace, err)
		}
	})
}
