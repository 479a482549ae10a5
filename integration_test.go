package repro

// Whole-system integration tests: the five-layer stack of the paper's
// Fig. 2 exercised exactly as a deployment would be, across reboot and
// redeployment boundaries.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/hop"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/vtime"
	"repro/internal/wsclient"
	"repro/internal/wsdl"
)

func TestIntegrationFullLifecycleAcrossReboot(t *testing.T) {
	clk, pipes := vtime.NewAuto(), netsim.NewNet()
	defer clk.Stop()
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
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
		Clock:        clk,
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
}

func TestIntegrationDiscoveryPipeline(t *testing.T) {
	clk, pipes := vtime.NewAuto(), netsim.NewNet()
	defer clk.Stop()
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}},
		Net:   pipes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.AddUser("alice", "pw", 0)
	img, _ := appliance.BuildImage(appliance.Config{
		Endpoints: env.Endpoints(), Clock: clk, PollInterval: 2 * time.Second,
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
}
