package appliance

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/blobdb/blobtest"
	"repro/internal/core"
	"repro/internal/cyberaide"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/vtime"
	"repro/internal/wsclient"
)

type world struct {
	app   *Appliance
	env   *gridenv.Env
	clock *vtime.Auto
	// web is a browser on the world's in-process network. It shows a
	// redirect instead of following it: the mux answers a path with an
	// empty segment that way, before any handler sees it.
	web *http.Client
}

// boot starts a grid and an appliance on one event clock and one
// in-process network.
func boot(t *testing.T, mutate func(*Config)) *world {
	t.Helper()
	clk := vtime.NewAuto()
	t.Cleanup(clk.Stop)
	pipes := netsim.NewNet()
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{
			{Name: "siteA", Nodes: 2, CoresPerNode: 4},
			{Name: "siteB", Nodes: 1, CoresPerNode: 4},
		},
		Net: pipes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Endpoints:         env.Endpoints(),
		Clock:             clk,
		Cost:              metrics.DefaultCost(),
		PollInterval:      2 * time.Second,
		InvocationTimeout: time.Hour,
		GridDial:          pipes.DialContext,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	img, err := BuildImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := img.Boot(pipes.Listen())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		blobtest.VerifyStored(t, app.DB)
		app.Shutdown()
	})
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	web := &http.Client{Transport: &http.Transport{DialContext: pipes.DialContext},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	return &world{app: app, env: env, clock: clk, web: web}
}

func (w *world) uploadViaPortal(t *testing.T, filename, program string, params [][2]string) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", filename)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(fw, program)
	mw.WriteField("user", "alice")
	mw.WriteField("description", "uploaded in test")
	for i, p := range params {
		mw.WriteField("paramName"+string(rune('1'+i)), p[0])
		mw.WriteField("paramType"+string(rune('1'+i)), p[1])
	}
	mw.Close()
	resp, err := w.web.Post(w.app.BaseURL+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("upload reply %q: %v", body, err)
	}
	return out
}

func TestBuildImageValidation(t *testing.T) {
	if _, err := BuildImage(Config{}); err == nil {
		t.Fatal("empty config built")
	}
	img, err := BuildImage(Config{Endpoints: cyberaide.Endpoints{
		GramURL:     "http://gram.test",
		MyProxyAddr: "myproxy.test:7512",
		FTPURLs:     map[string]string{"siteA": "http://ftp.test"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Manifest) < 5 {
		t.Fatalf("manifest %v", img.Manifest)
	}
}

func TestFullSaaSLoopThroughApplianceHTTP(t *testing.T) {
	w := boot(t, nil)

	// Scenario A: upload through the portal.
	rec := w.uploadViaPortal(t, "demo.gsh", "echo v=${x}\ncompute 500ms\n", [][2]string{{"x", "int"}})
	if rec["name"] != "DemoService" {
		t.Fatalf("published %v", rec)
	}

	// Scenario B step 1: discover through the UDDI SOAP service.
	sc := soap.Client{HTTP: w.web}
	found, err := sc.Call(w.app.RegistryURL(), uddi.Namespace, "find",
		[]soap.Param{{Name: "pattern", Value: "Demo%"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := uddi.DecodeRecords(found)
	if err != nil || len(recs) != 1 {
		t.Fatalf("uddi records %v err %v", recs, err)
	}

	// Scenario B step 2: wsimport the WSDL and build a client proxy.
	proxy, err := wsclient.ImportURL(recs[0].Endpoint, w.web)
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
}

func TestPortalHomeListsServices(t *testing.T) {
	w := boot(t, nil)
	w.uploadViaPortal(t, "alpha.gsh", "echo a\n", nil)
	resp, err := w.web.Get(w.app.BaseURL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "AlphaService") {
		t.Fatalf("home page missing service:\n%s", body)
	}
	if !strings.Contains(string(body), "Upload file and generate WebService") {
		t.Fatal("upload dialog missing")
	}
}

func TestPortalJSONAPI(t *testing.T) {
	w := boot(t, nil)
	w.uploadViaPortal(t, "api.gsh", "echo out=${n}\n", [][2]string{{"n", "int"}})

	// List services.
	resp, err := w.web.Get(w.app.BaseURL + "/api/services")
	if err != nil {
		t.Fatal(err)
	}
	var services []core.ExecutableInfo
	json.NewDecoder(resp.Body).Decode(&services)
	resp.Body.Close()
	if len(services) != 1 || services[0].ServiceName != "ApiService" {
		t.Fatalf("services %+v", services)
	}

	// Invoke.
	payload, _ := json.Marshal(map[string]any{
		"service": "ApiService", "args": map[string]string{"n": "9"},
	})
	resp, err = w.web.Post(w.app.BaseURL+"/api/invoke", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var invReply map[string]string
	json.NewDecoder(resp.Body).Decode(&invReply)
	resp.Body.Close()
	ticket := invReply["ticket"]
	if ticket == "" {
		t.Fatalf("invoke reply %v", invReply)
	}

	// Wait for the result.
	resp, err = w.web.Get(w.app.BaseURL + "/api/wait?ticket=" + ticket)
	if err != nil {
		t.Fatal(err)
	}
	var waitReply map[string]string
	json.NewDecoder(resp.Body).Decode(&waitReply)
	resp.Body.Close()
	if waitReply["state"] != "DONE" || waitReply["output"] != "out=9\n" {
		t.Fatalf("wait reply %v", waitReply)
	}

	// Status and output endpoints agree.
	resp, _ = w.web.Get(w.app.BaseURL + "/api/status?ticket=" + ticket)
	var st map[string]string
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st["state"] != "DONE" {
		t.Fatalf("status %v", st)
	}
	resp, _ = w.web.Get(w.app.BaseURL + "/api/output?ticket=" + ticket)
	outBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(outBody) != "out=9\n" {
		t.Fatalf("output %q", outBody)
	}
}

func TestPortalErrors(t *testing.T) {
	w := boot(t, nil)
	// Unknown service info.
	resp, err := w.web.Get(w.app.BaseURL + "/api/service?name=Nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Unknown ticket.
	resp, _ = w.web.Get(w.app.BaseURL + "/api/status?ticket=inv-000000-ffffffffffff")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Upload with unregistered user.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", "f.gsh")
	io.WriteString(fw, "echo x\n")
	mw.WriteField("user", "mallory")
	mw.Close()
	resp, err = w.web.Post(w.app.BaseURL+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Upload GET not allowed.
	resp, _ = w.web.Get(w.app.BaseURL + "/upload")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestPortalDeleteService(t *testing.T) {
	w := boot(t, nil)
	w.uploadViaPortal(t, "gone.gsh", "echo x\n", nil)
	resp, err := w.web.Post(w.app.BaseURL+"/api/delete?name=GoneService", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := w.app.OnServe.ServiceInfo("GoneService"); !errors.Is(err, core.ErrNoSuchService) {
		t.Fatalf("got %v", err)
	}
}

func TestPortalCancel(t *testing.T) {
	w := boot(t, nil)
	w.uploadViaPortal(t, "long.gsh", "emit 2s 10000 t\n", nil)
	payload, _ := json.Marshal(map[string]any{"service": "LongService"})
	resp, err := w.web.Post(w.app.BaseURL+"/api/invoke", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var invReply map[string]string
	json.NewDecoder(resp.Body).Decode(&invReply)
	resp.Body.Close()
	resp, err = w.web.Post(w.app.BaseURL+"/api/cancel?ticket="+invReply["ticket"], "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	inv, err := w.app.OnServe.Invocation(invReply["ticket"])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inv.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatal("cancel never landed")
	}
	if inv.State() != core.InvCancelled {
		t.Fatalf("state %s", inv.State())
	}
}

func TestApplianceHostsToolkitServices(t *testing.T) {
	w := boot(t, nil)
	names := w.app.Container.Names()
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "UDDIRegistry") || !strings.Contains(joined, "CyberaideAgent") {
		t.Fatalf("toolkit services missing: %v", names)
	}
}

func TestAppliancePersistentDBSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	clk := vtime.NewAuto()
	defer clk.Stop()
	pipes := netsim.NewNet()
	env, err := gridenv.Start(gridenv.Options{Clock: clk, Net: pipes, Sites: []gridsim.SiteConfig{
		{Name: "siteA", Nodes: 1, CoresPerNode: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.AddUser("alice", "pw", 0)
	cfg := Config{Endpoints: env.Endpoints(), Clock: clk, DBDir: dir, GridDial: pipes.DialContext}
	img, err := BuildImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := img.Boot(pipes.Listen())
	if err != nil {
		t.Fatal(err)
	}
	app.OnServe.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	if _, err := app.OnServe.UploadAndGenerate("alice", "keep.gsh", "", nil, []byte("echo x\n")); err != nil {
		t.Fatal(err)
	}
	app.Shutdown()

	app2, err := img.Boot(pipes.Listen())
	if err != nil {
		t.Fatal(err)
	}
	defer app2.Shutdown()
	// The executable record survives the reboot in the database.
	if _, err := app2.DB.Table(core.ExecutablesTable).Stat("KeepService"); err != nil {
		t.Fatalf("record lost across reboot: %v", err)
	}
}
