package portal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/blobdb"
	"repro/internal/blobdb/blobtest"
	"repro/internal/core"
	"repro/internal/cyberaide"
	"repro/internal/gridenv"
	"repro/internal/gridsim"
	"repro/internal/metrics"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/uddi"
	"repro/internal/vtime"
	"repro/internal/wsdl"
)

type fixture struct {
	portal    *Portal
	onserve   *core.OnServe
	db        *blobdb.DB
	container *soap.Server
	registry  *uddi.Registry
	url       string
	clock     *vtime.Scaled
}

// newFixture wires a portal over a real onServe + grid; unlike the
// appliance tests, the SOAP container is mounted on the same mux so the
// generated endpoints in WSDL documents resolve.
func newFixture(t *testing.T) *fixture {
	return newTracedFixture(t, nil)
}

// newTracedFixture is newFixture with an optional shared span collector
// wired through the grid environment and the core.
func newTracedFixture(t *testing.T, col *trace.Collector) *fixture {
	t.Helper()
	clk := vtime.NewScaled(20000)
	env, err := gridenv.Start(gridenv.Options{
		Clock: clk,
		Sites: []gridsim.SiteConfig{{Name: "siteA", Nodes: 2, CoresPerNode: 4}},
		Trace: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if _, err := env.AddUser("alice", "pw", 0); err != nil {
		t.Fatal(err)
	}
	db, err := blobdb.Open(blobdb.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		blobtest.VerifyStored(t, db)
		db.Close()
	})
	container := soap.NewServer(nil, metrics.Cost{})
	registry := uddi.NewRegistry(clk)
	agent := cyberaide.New(cyberaide.Options{Endpoints: env.Endpoints(), Clock: clk})

	mux := http.NewServeMux()
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	parts := core.Parts{DB: db, Container: container, Registry: registry, Agent: agent, BaseURL: hs.URL}
	if col != nil {
		parts.Tracing = trace.NewTracer("onserve", clk, col)
	}
	ons, err := core.New(core.Config{Clock: clk, PollInterval: 2 * time.Second, Trace: col}, parts)
	if err != nil {
		t.Fatal(err)
	}
	ons.RegisterUser("alice", core.UserAuth{MyProxyUser: "alice", Passphrase: "pw"})
	p := New(ons, registry, nil, metrics.Cost{})
	mux.Handle("/services/", container)
	mux.Handle("/", p)
	return &fixture{portal: p, onserve: ons, db: db, container: container, registry: registry, url: hs.URL, clock: clk}
}

func (f *fixture) upload(t *testing.T, filename, program string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", filename)
	io.WriteString(fw, program)
	mw.WriteField("user", "alice")
	mw.WriteField("description", "test upload")
	mw.WriteField("paramName1", "x")
	mw.WriteField("paramType1", "int")
	mw.Close()
	resp, err := http.Post(f.url+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload failed: %d %s", resp.StatusCode, body)
	}
}

func TestRegistryBrowserPage(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "browse.gsh", "echo ${x}\n")
	resp, err := http.Get(f.url + "/registry")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	page := string(body)
	if !strings.Contains(page, "BrowseService") || !strings.Contains(page, "uddi:") {
		t.Fatalf("registry page missing record:\n%s", page)
	}
	// Pattern filtering.
	resp, _ = http.Get(f.url + "/registry?pattern=Nope%25")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "0 published") {
		t.Fatalf("pattern filter broken:\n%s", body)
	}
}

// TestAPIRegistrySortedJSON pins the machine-readable registry listing
// fleet gateways replicate from: JSON, sorted by service name, with the
// UDDI '%' pattern filter.
func TestAPIRegistrySortedJSON(t *testing.T) {
	f := newFixture(t)
	// Upload out of name order; the listing must come back sorted.
	f.upload(t, "zeta.gsh", "echo ${x}\n")
	f.upload(t, "alpha.gsh", "echo ${x}\n")
	f.upload(t, "mid.gsh", "echo ${x}\n")

	resp, err := http.Get(f.url + "/api/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var recs []uddi.Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	want := []string{"AlphaService", "MidService", "ZetaService"}
	for i, rec := range recs {
		if rec.Name != want[i] {
			t.Fatalf("listing not sorted: got %v at %d, want %v", rec.Name, i, want[i])
		}
		if rec.Owner != "alice" {
			t.Fatalf("record %v missing owner", rec)
		}
	}

	resp, err = http.Get(f.url + "/api/registry?pattern=Alpha%25")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	recs = nil
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "AlphaService" {
		t.Fatalf("pattern filter: %v", recs)
	}
}

func TestRegistryPageWithoutRegistry(t *testing.T) {
	f := newFixture(t)
	p := New(f.onserve, nil, nil, metrics.Cost{})
	srv := httptest.NewServer(p)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/registry")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestClientStubDownload(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "stubbed.gsh", "echo ${x}\n")
	resp, err := http.Get(f.url + "/api/client?name=StubbedService")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	stub := string(body)
	for _, want := range []string{
		"package main",
		"wsclient.ImportURL",
		`"execute"`,
		`"x": "0", // int`,
		f.url + "/services/StubbedService",
	} {
		if !strings.Contains(stub, want) {
			t.Errorf("stub missing %q:\n%s", want, stub)
		}
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "StubbedService_client.go") {
		t.Fatalf("disposition %q", cd)
	}
}

func TestClientStubUnknownService(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.url + "/api/client?name=Ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestOutputFileDownload(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "writer.gsh", "write artifact-${x}.bin 96\necho ok\n")
	inv, err := f.onserve.Invoke("WriterService", map[string]string{"x": "7"})
	if err != nil {
		t.Fatal(err)
	}
	<-inv.DoneChan()
	resp, err := http.Get(f.url + "/api/outfile?ticket=" + inv.Ticket + "&name=artifact-7.bin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 96 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	// Missing artifact and missing ticket.
	resp, _ = http.Get(f.url + "/api/outfile?ticket=" + inv.Ticket + "&name=ghost.bin")
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("phantom artifact served")
	}
	resp, _ = http.Get(f.url + "/api/outfile?ticket=inv-000000-ffffffffffff&name=x")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestUploadParamRowsBeyondThree(t *testing.T) {
	f := newFixture(t)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", "many.gsh")
	io.WriteString(fw, "echo ${a}${b}${c}${d}\n")
	mw.WriteField("user", "alice")
	for i, name := range []string{"a", "b", "c", "d"} {
		mw.WriteField("paramName"+string(rune('1'+i)), name)
		mw.WriteField("paramType"+string(rune('1'+i)), "string")
	}
	mw.Close()
	resp, err := http.Post(f.url+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	info, err := f.onserve.ServiceInfo("ManyService")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Params) != 4 {
		t.Fatalf("params %+v", info.Params)
	}
}

func TestUploadSkipsBlankParamRows(t *testing.T) {
	f := newFixture(t)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", "gaps.gsh")
	io.WriteString(fw, "echo ${later}\n")
	mw.WriteField("user", "alice")
	// Row 1 and 2 blank, row 3 set — as a browser form would post it.
	mw.WriteField("paramName1", "")
	mw.WriteField("paramType1", "")
	mw.WriteField("paramName3", "later")
	mw.WriteField("paramType3", "")
	mw.Close()
	resp, err := http.Post(f.url+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	info, err := f.onserve.ServiceInfo("GapsService")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Params) != 1 || info.Params[0].Name != "later" || info.Params[0].Type != wsdl.TypeString {
		t.Fatalf("params %+v", info.Params)
	}
}

func TestUploadRejectsBadParamType(t *testing.T) {
	f := newFixture(t)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", "badtype.gsh")
	io.WriteString(fw, "echo x\n")
	mw.WriteField("user", "alice")
	mw.WriteField("paramName1", "p")
	mw.WriteField("paramType1", "blob")
	mw.Close()
	resp, err := http.Post(f.url+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestUploadMissingFile(t *testing.T) {
	f := newFixture(t)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("user", "alice")
	mw.Close()
	resp, err := http.Post(f.url+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestUploadNonMultipart(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Post(f.url+"/upload", "text/plain", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestInvokeBadJSON(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Post(f.url+"/api/invoke", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHomePage404ForUnknownPaths(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.url + "/definitely/not/here")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMonitoringStats(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "mon.gsh", "echo ${x}\n")
	inv, err := f.onserve.Invoke("MonService", map[string]string{"x": "1"})
	if err != nil {
		t.Fatal(err)
	}
	<-inv.DoneChan()
	resp, err := http.Get(f.url + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var mon core.Monitoring
	json.NewDecoder(resp.Body).Decode(&mon)
	resp.Body.Close()
	if mon.Invocations["DONE"] != 1 {
		t.Fatalf("invocations %+v", mon.Invocations)
	}
	found := false
	for _, s := range mon.Services {
		if s.Name == "MonService" {
			found = true
		}
	}
	if !found {
		t.Fatalf("services %+v", mon.Services)
	}
}

func TestInvokeWaitOutputCancelViaAPI(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "flow.gsh", "compute 500ms\necho flow=${x}\n")

	payload, _ := json.Marshal(map[string]any{
		"service": "FlowService", "args": map[string]string{"x": "5"},
	})
	resp, err := http.Post(f.url+"/api/invoke", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var inv map[string]string
	json.NewDecoder(resp.Body).Decode(&inv)
	resp.Body.Close()
	ticket := inv["ticket"]
	if ticket == "" || inv["job_id"] == "" || inv["site"] == "" {
		t.Fatalf("invoke reply %v", inv)
	}

	resp, err = http.Get(f.url + "/api/wait?ticket=" + ticket)
	if err != nil {
		t.Fatal(err)
	}
	var wait map[string]string
	json.NewDecoder(resp.Body).Decode(&wait)
	resp.Body.Close()
	if wait["state"] != "DONE" || wait["output"] != "flow=5\n" {
		t.Fatalf("wait reply %v", wait)
	}

	resp, _ = http.Get(f.url + "/api/output?ticket=" + ticket)
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(out) != "flow=5\n" {
		t.Fatalf("output %q", out)
	}

	resp, _ = http.Get(f.url + "/api/status?ticket=" + ticket)
	var st map[string]string
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st["state"] != "DONE" {
		t.Fatalf("status %v", st)
	}

	// Cancel of a finished invocation is a clean no-op.
	resp, err = http.Post(f.url+"/api/cancel?ticket="+ticket, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
}

func TestDeleteViaAPI(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "gone.gsh", "echo x\n")
	resp, err := http.Post(f.url+"/api/delete?name=GoneService", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp, _ = http.Get(f.url + "/api/service?name=GoneService")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d after delete", resp.StatusCode)
	}
	// Method checks on the POST-only endpoints.
	for _, path := range []string{"/api/delete?name=x", "/api/cancel?ticket=x", "/api/invoke"} {
		resp, err := http.Get(f.url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s status %d", path, resp.StatusCode)
		}
	}
}

func TestHomePageRendersUploadedService(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "shown.gsh", "echo x\n")
	resp, err := http.Get(f.url + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	if !strings.Contains(page, "ShownService") || !strings.Contains(page, "Upload file and generate WebService") {
		t.Fatalf("home page:\n%s", page)
	}
}

func TestUploadWithStageInField(t *testing.T) {
	f := newFixture(t)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("file", "staged.gsh")
	io.WriteString(fw, "read a.dat\nread b.dat\n")
	mw.WriteField("user", "alice")
	mw.WriteField("stageIn", " a.dat , b.dat ")
	mw.Close()
	resp, err := http.Post(f.url+"/upload", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	info, err := f.onserve.ServiceInfo("StagedService")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.StageIn) != 2 || info.StageIn[0] != "a.dat" || info.StageIn[1] != "b.dat" {
		t.Fatalf("stage-in %v", info.StageIn)
	}
}

func TestServiceDescribeAPI(t *testing.T) {
	f := newFixture(t)
	f.upload(t, "desc.gsh", "echo ${x}\n")
	resp, err := http.Get(f.url + "/api/service?name=DescService")
	if err != nil {
		t.Fatal(err)
	}
	var info core.ExecutableInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.ServiceName != "DescService" || info.Owner != "alice" {
		t.Fatalf("info %+v", info)
	}
}

// TestStatsSurfacesSubsystemCounters pins the /api/stats extension: the
// monitoring tallies stay inline (TestMonitoringStats still decodes the
// document into core.Monitoring), and the poll-hub, submission, staging
// and trace-ring counters ride alongside.
func TestStatsSurfacesSubsystemCounters(t *testing.T) {
	f := newTracedFixture(t, trace.NewCollector(0, 0))
	f.upload(t, "stats.gsh", "echo ${x}\n")
	inv, err := f.onserve.Invoke("StatsService", map[string]string{"x": "1"})
	if err != nil {
		t.Fatal(err)
	}
	<-inv.DoneChan()
	resp, err := http.Get(f.url + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	for _, key := range []string{"invocations", "services", "collector", "submit", "stage", "placement", "trace", "db"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/api/stats missing %q: have %v", key, keys(doc))
		}
	}
	var tr trace.CollectorStats
	if err := json.Unmarshal(doc["trace"], &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Spans == 0 {
		t.Fatalf("trace ring empty after a traced invocation: %+v", tr)
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceExportAndWaterfall drives one invocation and reads its trace
// back through both the JSON export (path and query forms) and the HTML
// waterfall page.
func TestTraceExportAndWaterfall(t *testing.T) {
	f := newTracedFixture(t, trace.NewCollector(0, 0))
	f.upload(t, "traced.gsh", "echo ${x}\n")
	inv, err := f.onserve.Invoke("TracedService", map[string]string{"x": "1"})
	if err != nil {
		t.Fatal(err)
	}
	<-inv.DoneChan()

	for _, url := range []string{
		f.url + "/api/trace/" + inv.Ticket,
		f.url + "/api/trace?ticket=" + inv.Ticket,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Ticket string           `json:"ticket"`
			Spans  []trace.SpanData `json:"spans"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		if doc.Ticket != inv.Ticket || len(doc.Spans) == 0 {
			t.Fatalf("%s: ticket %q, %d spans", url, doc.Ticket, len(doc.Spans))
		}
		if doc.Spans[0].Name != "invoke" {
			t.Fatalf("first span %q, want the invoke root", doc.Spans[0].Name)
		}
	}

	resp, err := http.Get(f.url + "/trace?ticket=" + inv.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("waterfall status %d: %s", resp.StatusCode, body)
	}
	page := string(body)
	for _, want := range []string{"onserve/invoke", "gram/gram.submit", "class=\"bar\""} {
		if !strings.Contains(page, want) {
			t.Errorf("waterfall missing %q", want)
		}
	}

	// Unknown tickets 404; unknown tickets on the page too.
	resp, err = http.Get(f.url + "/api/trace/no-such-ticket")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ticket status %d", resp.StatusCode)
	}
}

// TestUploadAndInvokeJoinCallerTrace pins header propagation at the
// portal boundary: a caller-supplied X-Grid-Trace parents the upload and
// invocation trees, and a malformed header degrades to a fresh root
// trace instead of rejecting the request.
func TestUploadAndInvokeJoinCallerTrace(t *testing.T) {
	col := trace.NewCollector(0, 0)
	f := newTracedFixture(t, col)
	f.upload(t, "joined.gsh", "echo ${x}\n")

	caller := trace.NewTracer("cli", f.clock, col)
	root := caller.StartRoot("cli.invoke")
	payload, _ := json.Marshal(map[string]any{
		"service": "JoinedService", "args": map[string]string{"x": "2"},
	})
	req, _ := http.NewRequest("POST", f.url+"/api/invoke", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, root.Context().String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke status %d", resp.StatusCode)
	}
	inv, err := f.onserve.Invocation(out["ticket"])
	if err != nil {
		t.Fatal(err)
	}
	<-inv.DoneChan()
	root.End()

	spans := col.Trace(root.Context().String()[:32])
	var invokeRoot *trace.SpanData
	for i := range spans {
		if spans[i].Name == "invoke" {
			invokeRoot = &spans[i]
		}
	}
	if invokeRoot == nil {
		t.Fatalf("invocation did not join the caller's trace: %d spans", len(spans))
	}
	if invokeRoot.ParentID != spans[0].SpanID || spans[0].Name != "cli.invoke" {
		t.Fatalf("invoke span not parented under the CLI root: %+v", invokeRoot)
	}

	// Malformed header: accepted request, fresh root trace.
	req, _ = http.NewRequest("POST", f.url+"/api/invoke", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "zz-not-a-trace")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out2 map[string]string
	json.NewDecoder(resp.Body).Decode(&out2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed-header invoke rejected: %d", resp.StatusCode)
	}
	inv2, err := f.onserve.Invocation(out2["ticket"])
	if err != nil {
		t.Fatal(err)
	}
	<-inv2.DoneChan()
	spans2, err := f.onserve.InvocationTrace(out2["ticket"])
	if err != nil {
		t.Fatal(err)
	}
	if len(spans2) == 0 || spans2[0].TraceID == spans[0].TraceID {
		t.Fatalf("malformed header did not mint a fresh root trace")
	}
}

// TestHotRepliesRenderLikeTheMaps: /api/invoke and /api/wait answered
// with map[string]string until their replies became structs; the bytes
// on the wire are those the maps gave, whatever the values hold.
func TestHotRepliesRenderLikeTheMaps(t *testing.T) {
	awkward := []string{"", "plain", "3.14159\n", `quote " backslash \ slash /`, "<script>&amp;</script>",
		"tab\tnul\x00bell\x07", "non-UTF-8 \xff\xfe", "\u2028 line \u2029 sep", "größe 大小 😀"}
	render := func(v any) string {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		return rec.Body.String()
	}
	for i, a := range awkward {
		b, c := awkward[(i+1)%len(awkward)], awkward[(i+2)%len(awkward)]
		got := render(InvokeReply{JobID: a, Site: b, Ticket: c})
		if want := render(map[string]string{"ticket": c, "job_id": a, "site": b}); got != want {
			t.Errorf("invoke reply %q, the map gave %q", got, want)
		}
		got = render(WaitReply{Message: a, Output: b, State: c})
		if want := render(map[string]string{"state": c, "message": a, "output": b}); got != want {
			t.Errorf("wait reply %q, the map gave %q", got, want)
		}
	}
}

// TestErrorCancelDeleteRepliesRenderLikeTheMaps: the last three
// map[string]string replies, golden and against the maps they were.
func TestErrorCancelDeleteRepliesRenderLikeTheMaps(t *testing.T) {
	render := func(status int, write func(w http.ResponseWriter)) string {
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != status || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		return rec.Body.String()
	}
	asJSON := func(v any) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, v) }
	}
	if got, want := render(http.StatusOK, asJSON(deleteReply{Deleted: "MonteService"})), `{"deleted":"MonteService"}`+"\n"; got != want {
		t.Errorf("delete reply %q, want %q", got, want)
	}
	if got, want := render(http.StatusOK, asJSON(cancelReply{State: "cancelling"})), `{"state":"cancelling"}`+"\n"; got != want {
		t.Errorf("cancel reply %q, want %q", got, want)
	}
	got := render(http.StatusNotFound, func(w http.ResponseWriter) { WriteError(w, http.StatusNotFound, core.ErrNoSuchService) })
	if want := `{"code":"not_found","error":"` + core.ErrNoSuchService.Error() + `"}` + "\n"; got != want {
		t.Errorf("error envelope %q, want %q", got, want)
	}
	for _, s := range []string{"", `quote " backslash \`, "<script>&amp;</script>", "nul\x00 non-UTF-8 \xff", "  größe 😀"} {
		if got, want := render(http.StatusOK, asJSON(deleteReply{Deleted: s})), render(http.StatusOK, asJSON(map[string]string{"deleted": s})); got != want {
			t.Errorf("delete reply %q, the map gave %q", got, want)
		}
		got := render(http.StatusBadRequest, func(w http.ResponseWriter) { WriteError(w, http.StatusBadRequest, errors.New(s)) })
		want := render(http.StatusBadRequest, func(w http.ResponseWriter) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": s, "code": "bad_request"})
		})
		if got != want {
			t.Errorf("error envelope %q, the map gave %q", got, want)
		}
	}
}
